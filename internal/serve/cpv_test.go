package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/ares-cps/ares/internal/campaign"
	"github.com/ares-cps/ares/internal/cpv"
	"github.com/ares-cps/ares/internal/metrics"
)

func TestCPVCatalogEndpoints(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})

	resp, err := http.Get(ts.URL + "/v1/cpvs")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		CPVs []cpv.Record `json:"cpvs"`
	}
	err = json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(list.CPVs) != len(cpv.Catalog()) {
		t.Fatalf("GET /v1/cpvs returned %d records, want %d", len(list.CPVs), len(cpv.Catalog()))
	}

	resp, err = http.Get(ts.URL + "/v1/cpvs/ARES-CPV-001")
	if err != nil {
		t.Fatal(err)
	}
	var rec cpv.Record
	err = json.NewDecoder(resp.Body).Decode(&rec)
	resp.Body.Close()
	if err != nil || rec.ID != "ARES-CPV-001" {
		t.Fatalf("GET one record: id %q err %v", rec.ID, err)
	}

	resp, err = http.Get(ts.URL + "/v1/cpvs/ARES-CPV-999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown record: %d, want 404", resp.StatusCode)
	}
}

func TestCPVAssess(t *testing.T) {
	var count atomic.Int64
	dir := t.TempDir()
	s, ts, reg := newTestServer(t, Config{StoreDir: dir, Executor: gatedExecutor(&count, nil)})
	s.Start()
	defer s.Shutdown(context.Background())

	post := func(id, body string) (*http.Response, JobStatus) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/cpvs/"+id+"/assess",
			"application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st JobStatus
		if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
			if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
				t.Fatal(err)
			}
		}
		return resp, st
	}

	resp, st := post("ARES-CPV-001", `{"episodes":1,"max_steps":4}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("assess: %d, want 202", resp.StatusCode)
	}
	waitState(t, ts.URL, st.ID, StateDone)

	// The compiled spec IS a normal spec: its ID must equal the hash of
	// the equivalent hand-compiled submission, so catalog and raw clients
	// dedupe onto each other.
	spec, err := cpv.CompileIDs(cpv.Options{Name: "cpv:ARES-CPV-001", Episodes: 1, MaxSteps: 4}, "ARES-CPV-001")
	if err != nil {
		t.Fatal(err)
	}
	if want := SpecHash(spec); st.ID != want {
		t.Errorf("assess job id %s, want spec hash %s", st.ID, want)
	}

	// Result records echo the originating CPV ID.
	recs, err := campaign.ReadRecords(filepath.Join(dir, st.ID+".jsonl"))
	if err != nil || len(recs) == 0 {
		t.Fatalf("read store: %v (%d records)", err, len(recs))
	}
	for _, r := range recs {
		if r.CPV != "ARES-CPV-001" {
			t.Errorf("record %s: cpv %q", r.Key, r.CPV)
		}
		if !strings.HasPrefix(r.Key, "ARES-CPV-001/") {
			t.Errorf("record key %q lacks cpv prefix", r.Key)
		}
	}

	// Resubmission of a finished assessment is a cache hit.
	resp, _ = post("ARES-CPV-001", `{"episodes":1,"max_steps":4}`)
	if resp.StatusCode != http.StatusOK {
		t.Errorf("resubmit: %d, want 200", resp.StatusCode)
	}

	if resp, _ := post("ARES-CPV-999", ""); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown id: %d, want 404", resp.StatusCode)
	}
	if resp, _ := post("ARES-CPV-001", `{"bogus":1}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown body field: %d, want 400", resp.StatusCode)
	}

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	body := sb.String()
	for _, want := range []string{"ares_cpv_assess_total 2", "ares_cpv_catalog_records"} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestModesServeOneAPI: a pure fleet coordinator (Workers 0) and a daemon
// with in-process workers serve the same API — the catalog, catalog
// assessments, the /v1/dist/* fleet protocol and the queue bound.
func TestModesServeOneAPI(t *testing.T) {
	type answer struct {
		code int
		body string
	}
	do := func(t *testing.T, method, url, body string) answer {
		t.Helper()
		req, err := http.NewRequest(method, url, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return answer{resp.StatusCode, readAll(t, resp)}
	}

	var first map[string]answer
	for _, tc := range []struct {
		name              string
		workers, queueCap int
	}{
		{"coordinator", 0, 1},
		{"in-process-workers", 2, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := New(Config{
				StoreDir: t.TempDir(), Workers: tc.workers, QueueDepth: tc.queueCap,
				Metrics: metrics.NewRegistry(), Executor: gatedExecutor(nil, nil),
			})
			if err != nil {
				t.Fatal(err)
			}
			s.Start()
			ts := httptest.NewServer(s.Handler())
			t.Cleanup(func() {
				ts.Close()
				s.Shutdown(context.Background())
			})

			got := map[string]answer{
				"list": do(t, "GET", ts.URL+"/v1/cpvs", ""),
				"get":  do(t, "GET", ts.URL+"/v1/cpvs/ARES-CPV-001", ""),
			}
			assess := do(t, "POST", ts.URL+"/v1/cpvs/ARES-CPV-003/assess", `{"trials":1,"episodes":2,"max_steps":6}`)
			if assess.code != http.StatusAccepted {
				t.Fatalf("assess = %d, want 202: %s", assess.code, assess.body)
			}
			var st JobStatus
			if err := json.Unmarshal([]byte(assess.body), &st); err != nil {
				t.Fatal(err)
			}
			got["assess id"] = answer{assess.code, st.ID}
			if reg := do(t, "POST", ts.URL+"/v1/dist/register", `{"worker":"modes-w0"}`); reg.code != http.StatusOK {
				t.Errorf("register = %d, want 200: %s", reg.code, reg.body)
			}
			if tc.queueCap == 1 {
				if _, resp := submitSpec(t, ts.URL, tinySpec("second", 1)); resp.StatusCode != http.StatusTooManyRequests {
					t.Errorf("second distinct spec = %d, want 429", resp.StatusCode)
				}
			}
			if m := metricsBody(t, ts.URL); !strings.Contains(m, "ares_cpv_catalog_records") {
				t.Error("metrics missing ares_cpv_catalog_records")
			}

			if first == nil {
				first = got
				return
			}
			for k, want := range first {
				if got[k] != want {
					t.Errorf("%s differs across modes:\n%+v\nvs\n%+v", k, got[k], want)
				}
			}
		})
	}
}
