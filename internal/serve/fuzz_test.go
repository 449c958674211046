package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/ares-cps/ares/internal/campaign"
	"github.com/ares-cps/ares/internal/metrics"
)

// FuzzJobSpec drives arbitrary bytes through the POST /v1/jobs decode +
// canonical-hash path. Invariants: the handler answers a sane status and
// never panics; a body that decodes must hash stably (decode → normalize
// → re-marshal → decode hashes equal), and resubmitting the same body
// must land on the same job ID.
func FuzzJobSpec(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"seed": 7, "trials": 3}`))
	f.Add([]byte(`{"name":"x","missions":[{"kind":"line","size":60,"alt":10}],"variables":["PIDR.INTEG","CMD.Roll"],"goals":["deviation","crash"],"defenses":["none","ci"],"trials":2}`))
	f.Add([]byte(`{"missions":[{"kind":"triangle","size":1,"alt":1}]}`))
	f.Add([]byte(`{"trials": "eight"}`))
	f.Add([]byte(`not json at all`))
	f.Add([]byte(`{"seed":1} {"seed":2}`))
	f.Add([]byte(`{"seed":-9223372036854775808,"max_action":1e308,"success_deviation":-0}`))

	// Workers never start, so accepted specs queue up but nothing flies;
	// a small queue keeps the jobs map bounded across iterations.
	s, err := New(Config{
		StoreDir:   f.TempDir(),
		QueueDepth: 2,
		CacheSize:  4,
		Metrics:    metrics.NewRegistry(),
		Executor: func(context.Context, campaign.Job) (campaign.Metrics, error) {
			return campaign.Metrics{}, nil
		},
	})
	if err != nil {
		f.Fatal(err)
	}
	handler := s.Handler()

	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/jobs", strings.NewReader(string(body))))
		code := rec.Code
		switch code {
		case http.StatusOK, http.StatusAccepted, http.StatusBadRequest,
			http.StatusTooManyRequests, http.StatusRequestEntityTooLarge:
		default:
			t.Fatalf("unexpected status %d for body %q", code, body)
		}

		spec, err := decodeSpecBytes(body)
		if err != nil {
			if code != http.StatusBadRequest && code != http.StatusRequestEntityTooLarge {
				t.Fatalf("undecodable body answered %d, want 400: %q", code, body)
			}
			return
		}
		// Decodable specs must hash canonically and stably.
		h1 := SpecHash(spec)
		norm, err := json.Marshal(spec.Normalized())
		if err != nil {
			t.Fatalf("marshal normalized: %v", err)
		}
		spec2, err := decodeSpecBytes(norm)
		if err != nil {
			t.Fatalf("normalized form does not re-decode: %v (%s)", err, norm)
		}
		if h2 := SpecHash(spec2); h2 != h1 {
			t.Fatalf("hash not canonical: %s vs %s for %q", h1, h2, body)
		}

		// Same body again → same job ID (dedup/cache, or an equal 4xx).
		if code == http.StatusOK || code == http.StatusAccepted {
			var st1 JobStatus
			if err := json.Unmarshal(rec.Body.Bytes(), &st1); err != nil {
				t.Fatalf("submit response not a JobStatus: %v", err)
			}
			if st1.ID != h1 {
				t.Fatalf("job id %q is not the spec hash %q", st1.ID, h1)
			}
			rec2 := httptest.NewRecorder()
			handler.ServeHTTP(rec2, httptest.NewRequest("POST", "/v1/jobs", strings.NewReader(string(body))))
			if rec2.Code != http.StatusOK && rec2.Code != http.StatusAccepted {
				t.Fatalf("resubmit of accepted body answered %d", rec2.Code)
			}
			var st2 JobStatus
			if err := json.Unmarshal(rec2.Body.Bytes(), &st2); err != nil {
				t.Fatalf("resubmit response not a JobStatus: %v", err)
			}
			if st2.ID != st1.ID {
				t.Fatalf("equal specs got different job ids: %q vs %q", st1.ID, st2.ID)
			}
		}
	})
}

// decodeSpecBytes is campaign.DecodeSpec over a byte slice.
func decodeSpecBytes(b []byte) (campaign.Spec, error) {
	return campaign.DecodeSpec(bytes.NewReader(b))
}
