package dist

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/ares-cps/ares/internal/metrics"
)

// FuzzDistEnvelope drives arbitrary bytes through every worker↔coordinator
// wire endpoint, mirroring serve.FuzzJobSpec on the submission surface.
// Invariants: the handlers answer a sane status and never panic; the
// strict decoder and the handlers agree (a body that fails decodeWire is
// a 400, a well-formed register with a valid worker ID is a 200);
// decoding is stable (decode twice, equal results); and whatever slots a
// lease request names, the grant it sizes stays within [1, MaxLease].
func FuzzDistEnvelope(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"worker":"w0"}`))
	f.Add([]byte(`{"worker":"w0","max":4}`))
	f.Add([]byte(`{"worker":"w0","slots":4}`))
	f.Add([]byte(`{"worker":"w0","slots":-3}`))
	f.Add([]byte(`{"worker":"w0","slots":1000000000}`))
	f.Add([]byte(`{"worker":"w0","lease":"L000001"}`))
	f.Add([]byte(`{"worker":"w0","wake":3}`))
	f.Add([]byte(`{"worker":"w0","lease":"L000001","offset":0,"records":[{"key":"k","mission":"line-40","variable":"PIDR.INTEG","goal":"deviation","defense":"none","trial":0,"seed":9,"status":"ok"}]}`))
	f.Add([]byte(`{"worker":"w0","bogus":1}`))
	f.Add([]byte(`{"worker":"w0"} trailing`))
	f.Add([]byte(`{"worker":"has space"}`))
	f.Add([]byte(`{"worker":"` + string(bytes.Repeat([]byte{'x'}, 200)) + `"}`))
	f.Add([]byte(`not json`))
	f.Add([]byte(`{"offset":-1}`))

	c, err := NewCoordinator(CoordConfig{
		StoreDir: f.TempDir(),
		LeaseTTL: time.Hour,
		Metrics:  metrics.NewRegistry(),
	})
	if err != nil {
		f.Fatal(err)
	}
	handler := c.Handler()
	ended, end := context.WithCancel(context.Background())
	end()
	endpoints := []string{
		"/v1/dist/register",
		"/v1/dist/lease",
		"/v1/dist/wait",
		"/v1/dist/heartbeat",
		"/v1/dist/records",
		"/v1/dist/complete",
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		// The fuzzer registers a worker per decodable body; keep the
		// registry bounded across iterations.
		c.mu.Lock()
		if len(c.workers) > 1024 {
			c.workers = make(map[string]time.Time)
		}
		c.mu.Unlock()

		for _, ep := range endpoints {
			// A wait naming the current wake counter parks until its
			// request ends: end it before it starts.
			ctx := context.Background()
			if ep == "/v1/dist/wait" {
				ctx = ended
			}
			rec := httptest.NewRecorder()
			handler.ServeHTTP(rec, httptest.NewRequest("POST", ep, bytes.NewReader(body)).WithContext(ctx))
			switch rec.Code {
			case http.StatusOK, http.StatusBadRequest,
				http.StatusNotFound, http.StatusConflict,
				http.StatusRequestEntityTooLarge:
			default:
				t.Fatalf("%s: unexpected status %d for body %q", ep, rec.Code, body)
			}
		}

		// A grant is at least the announced width, up to MaxLease.
		if lr, err := decodeWire[LeaseRequest](bytes.NewReader(body), maxControlBytes); err == nil {
			for _, pending := range []int{1, 7, 1000} {
				c.mu.Lock()
				n := c.fleetLeaseSize(pending, lr.Slots)
				c.mu.Unlock()
				if n < 1 || n > c.cfg.MaxLease || n < min(lr.Slots, c.cfg.MaxLease) {
					t.Fatalf("slots %d, %d pending: lease of %d, MaxLease %d", lr.Slots, pending, n, c.cfg.MaxLease)
				}
			}
		}

		req, err := decodeWire[registerRequest](bytes.NewReader(body), maxControlBytes)
		req2, err2 := decodeWire[registerRequest](bytes.NewReader(body), maxControlBytes)
		if (err == nil) != (err2 == nil) || req != req2 {
			t.Fatalf("decode not stable for %q: (%+v, %v) vs (%+v, %v)", body, req, err, req2, err2)
		}
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/dist/register", bytes.NewReader(body)))
		if err != nil || validWorkerID(req.Worker) != nil {
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("undecodable register answered %d, want 400: %q", rec.Code, body)
			}
			return
		}
		if rec.Code != http.StatusOK {
			t.Fatalf("valid register %q answered %d, want 200", body, rec.Code)
		}
		// Registration is idempotent: the same envelope again is still 200.
		rec2 := httptest.NewRecorder()
		handler.ServeHTTP(rec2, httptest.NewRequest("POST", "/v1/dist/register", bytes.NewReader(body)))
		if rec2.Code != http.StatusOK {
			t.Fatalf("re-register answered %d, want 200", rec2.Code)
		}
	})
}
