package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/ares-cps/ares/internal/campaign"
	"github.com/ares-cps/ares/internal/metrics"
)

// BenchmarkSubmitCacheHit measures the daemon's hot serving path: a POST
// /v1/jobs whose spec hash is already done, answered from the LRU result
// cache without touching the queue or the simulator. This is the
// steady-state cost of N clients re-requesting a shared sweep.
func BenchmarkSubmitCacheHit(b *testing.B) {
	s, err := New(Config{
		StoreDir: b.TempDir(),
		Workers:  1,
		Metrics:  metrics.NewRegistry(),
		Executor: func(context.Context, campaign.Job) (campaign.Metrics, error) {
			return campaign.Metrics{Deviation: 1, Success: true}, nil
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	s.Start()
	defer s.Shutdown(context.Background())

	spec := campaign.Spec{
		Seed:      1,
		Missions:  []campaign.MissionSpec{{Kind: "line", Size: 40, Alt: 10}},
		Variables: []string{"PIDR.INTEG"},
		Trials:    2,
	}
	body, err := json.Marshal(spec)
	if err != nil {
		b.Fatal(err)
	}
	handler := s.Handler()
	submit := func() int {
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/jobs", strings.NewReader(string(body))))
		return rec.Code
	}
	// Prime: run the job to completion so every timed iteration hits the
	// cache.
	if code := submit(); code != http.StatusAccepted {
		b.Fatalf("prime submit = %d", code)
	}
	for {
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/jobs/"+SpecHash(spec), nil))
		var st JobStatus
		if json.Unmarshal(rec.Body.Bytes(), &st) == nil && st.State == StateDone {
			break
		}
		time.Sleep(time.Millisecond)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if code := submit(); code != http.StatusOK {
			b.Fatalf("iteration %d: status %d, want 200 cache hit", i, code)
		}
	}
}

// BenchmarkSpecHash measures canonical spec hashing alone — the per-
// submission dedup cost even on a cache miss.
func BenchmarkSpecHash(b *testing.B) {
	spec := campaign.Spec{
		Seed:      42,
		Missions:  []campaign.MissionSpec{{Kind: "square", Size: 25, Alt: 10}, {Kind: "line", Size: 60, Alt: 10}},
		Variables: []string{"PIDR.INTEG", "CMD.Roll", "ATT.DesPitch"},
		Goals:     []string{campaign.GoalDeviation, campaign.GoalCrash},
		Defenses:  []string{campaign.DefenseNone, campaign.DefenseCI},
		Trials:    8,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if SpecHash(spec) == "" {
			b.Fatal("empty hash")
		}
	}
}
