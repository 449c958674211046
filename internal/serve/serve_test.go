package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/ares-cps/ares/internal/campaign"
	"github.com/ares-cps/ares/internal/dist"
	"github.com/ares-cps/ares/internal/metrics"
)

// tinySpec is a 1-mission × 1-variable × trials-cell campaign.
func tinySpec(name string, trials int) campaign.Spec {
	return campaign.Spec{
		Name:      name,
		Seed:      1,
		Missions:  []campaign.MissionSpec{{Kind: "line", Size: 40, Alt: 10}},
		Variables: []string{"PIDR.INTEG"},
		Goals:     []string{campaign.GoalDeviation},
		Defenses:  []string{campaign.DefenseNone},
		Trials:    trials,
		Episodes:  1,
		MaxSteps:  4,
	}
}

// gatedExecutor counts executions and, when gate is non-nil, blocks each
// cell until the gate closes (or the ctx dies).
func gatedExecutor(count *atomic.Int64, gate chan struct{}) campaign.Executor {
	return func(ctx context.Context, job campaign.Job) (campaign.Metrics, error) {
		if count != nil {
			count.Add(1)
		}
		if gate != nil {
			select {
			case <-gate:
			case <-ctx.Done():
				return campaign.Metrics{}, ctx.Err()
			}
		}
		return campaign.Metrics{Deviation: float64(job.Trial), Success: true}, nil
	}
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server, *metrics.Registry) {
	t.Helper()
	if cfg.StoreDir == "" {
		cfg.StoreDir = t.TempDir()
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts, cfg.Metrics
}

func submitSpec(t *testing.T, url string, spec campaign.Spec) (JobStatus, *http.Response) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/jobs", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("decode submit response: %v", err)
		}
	}
	return st, resp
}

func waitState(t *testing.T, url, id, want string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(url + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st JobStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.State == want {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %q (want %q, err %q)", id, st.State, want, st.Error)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func metricsBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	return readAll(t, resp)
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	var sb strings.Builder
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		sb.WriteString(sc.Text())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TestJobLifecycle walks submit → dedup → SSE progress → result through
// the HTTP surface.
func TestJobLifecycle(t *testing.T) {
	gate := make(chan struct{})
	var count atomic.Int64
	s, ts, _ := newTestServer(t, Config{
		Workers: 1, Executor: gatedExecutor(&count, gate),
	})
	s.Start()
	defer s.Shutdown(context.Background())

	spec := tinySpec("lifecycle", 2)
	st, resp := submitSpec(t, ts.URL, spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", resp.StatusCode)
	}
	if st.ID != SpecHash(spec) {
		t.Errorf("job id = %q, want spec hash %q", st.ID, SpecHash(spec))
	}

	// An identical submission (different Name, defaults spelled out) must
	// collapse onto the same job.
	twin := spec.Normalized()
	twin.Name = "other-label"
	st2, resp2 := submitSpec(t, ts.URL, twin)
	if resp2.StatusCode != http.StatusAccepted || st2.ID != st.ID {
		t.Fatalf("twin submit = (%d, %q), want (202, %q)", resp2.StatusCode, st2.ID, st.ID)
	}

	// Subscribe to SSE before releasing the executor.
	evResp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer evResp.Body.Close()
	if ct := evResp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events Content-Type = %q", ct)
	}

	close(gate)
	var progress []string
	var final string
	sc := bufio.NewScanner(evResp.Body)
	var event string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data := strings.TrimPrefix(line, "data: ")
			if event == "progress" {
				progress = append(progress, data)
			} else if event == "done" {
				final = data
			}
		}
		if final != "" {
			break
		}
	}
	if final != StateDone {
		t.Fatalf("SSE final state = %q, want done (progress: %v)", final, progress)
	}
	// 1 queued + 1 running + 2 campaign cell lines.
	cellLines := 0
	for _, p := range progress {
		if strings.Contains(p, "t00") {
			cellLines++
		}
	}
	if cellLines != 2 {
		t.Errorf("SSE cell progress lines = %d, want 2 (got %v)", cellLines, progress)
	}
	if got := count.Load(); got != 2 {
		t.Errorf("executor ran %d cells, want 2", got)
	}

	done := waitState(t, ts.URL, st.ID, StateDone)
	if done.ResultID != st.ID {
		t.Errorf("result id = %q, want %q", done.ResultID, st.ID)
	}
	resResp, err := http.Get(ts.URL + "/v1/results/" + done.ResultID)
	if err != nil {
		t.Fatal(err)
	}
	defer resResp.Body.Close()
	if resResp.StatusCode != http.StatusOK {
		t.Fatalf("result status = %d, want 200", resResp.StatusCode)
	}
	var res Result
	if err := json.NewDecoder(resResp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	if res.Summary == nil || res.Summary.Records != 2 || res.Summary.Failures != 0 {
		t.Fatalf("result summary = %+v, want 2 records, 0 failures", res.Summary)
	}
}

// TestSingleflight64 is the acceptance scenario: 64 concurrent identical
// submissions collapse onto one campaign execution, every caller gets the
// same result ID, and /metrics reports the 63 dedup hits.
func TestSingleflight64(t *testing.T) {
	gate := make(chan struct{})
	var count atomic.Int64
	s, ts, reg := newTestServer(t, Config{
		Workers: 2, Executor: gatedExecutor(&count, gate),
	})
	s.Start()
	defer s.Shutdown(context.Background())

	spec := tinySpec("flood", 1)
	const n = 64
	ids := make([]string, n)
	codes := make([]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, resp := submitSpec(t, ts.URL, spec)
			ids[i], codes[i] = st.ID, resp.StatusCode
		}(i)
	}
	wg.Wait()

	want := SpecHash(spec)
	for i := 0; i < n; i++ {
		if codes[i] != http.StatusAccepted {
			t.Fatalf("submission %d: status %d, want 202", i, codes[i])
		}
		if ids[i] != want {
			t.Fatalf("submission %d: id %q, want %q", i, ids[i], want)
		}
	}
	if got := reg.Counter("ares_serve_jobs_accepted_total", "").Value(); got != 1 {
		t.Errorf("accepted = %d, want 1", got)
	}
	if got := reg.Counter("ares_serve_jobs_deduped_total", "").Value(); got != n-1 {
		t.Errorf("deduped = %d, want %d", got, n-1)
	}

	close(gate)
	waitState(t, ts.URL, want, StateDone)
	if got := count.Load(); got != 1 {
		t.Fatalf("campaign executions = %d, want exactly 1", got)
	}
	mb := metricsBody(t, ts.URL)
	if !strings.Contains(mb, fmt.Sprintf("ares_serve_jobs_deduped_total %d", n-1)) {
		t.Errorf("/metrics missing %d dedup hits:\n%s", n-1, mb)
	}
	if !strings.Contains(mb, "ares_serve_jobs_completed_total 1") {
		t.Errorf("/metrics missing completion:\n%s", mb)
	}
}

// TestShutdownDrainsPersistsResumes covers the graceful-drain acceptance
// path over a real store dir: a daemon with one mid-campaign job and one
// queued job shuts down, persists both, and a fresh daemon over the same
// dir executes only the remaining cells.
func TestShutdownDrainsPersistsResumes(t *testing.T) {
	dir := t.TempDir()
	specA := tinySpec("partial", 4)
	specB := tinySpec("queued", 1)
	specB.Seed = 99 // distinct hash

	// Life 1: cells t0/t1 of A complete, t2 blocks until shutdown; B
	// never leaves the queue (1 worker).
	reached := make(chan struct{})
	var once sync.Once
	exec1 := func(ctx context.Context, job campaign.Job) (campaign.Metrics, error) {
		if job.Trial < 2 {
			return campaign.Metrics{Deviation: 1, Success: true}, nil
		}
		once.Do(func() { close(reached) })
		<-ctx.Done()
		return campaign.Metrics{}, ctx.Err()
	}
	s1, ts1, _ := newTestServer(t, Config{
		StoreDir: dir, Workers: 1, Parallelism: 1, Executor: exec1,
	})
	s1.Start()
	stA, _ := submitSpec(t, ts1.URL, specA)
	stB, _ := submitSpec(t, ts1.URL, specB)
	<-reached

	// Requesting the result of an unfinished job is a 409.
	resp, err := http.Get(ts1.URL + "/v1/results/" + stA.ID)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("unfinished result status = %d, want 409", resp.StatusCode)
	}

	drainCtx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s1.Shutdown(drainCtx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	// Submissions during/after drain are refused.
	_, resp2 := submitSpec(t, ts1.URL, tinySpec("late", 1))
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("post-drain submit status = %d, want 503", resp2.StatusCode)
	}

	man, err := dist.LoadManifest(dist.ManifestPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if len(man) != 2 {
		t.Fatalf("manifest jobs = %d, want 2 (A interrupted + B queued)", len(man))
	}
	recs, err := campaign.ReadRecords(filepath.Join(dir, stA.ID+".jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	okCells := 0
	for _, r := range recs {
		if r.Status == campaign.StatusOK {
			okCells++
		}
	}
	if okCells != 2 {
		t.Fatalf("life-1 ok cells = %d, want 2", okCells)
	}

	// Life 2: a normal executor completes only the remainder.
	var count2 atomic.Int64
	s2, ts2, _ := newTestServer(t, Config{
		StoreDir: dir, Workers: 1, Parallelism: 1, Executor: gatedExecutor(&count2, nil),
	})
	s2.Start()
	defer s2.Shutdown(context.Background())

	waitState(t, ts2.URL, stA.ID, StateDone)
	waitState(t, ts2.URL, stB.ID, StateDone)
	// A re-runs t2 (recorded as error on cancel) and t3 (never started);
	// t0/t1 resume from the store. B runs its single cell.
	if got := count2.Load(); got != 3 {
		t.Errorf("life-2 executions = %d, want 3 (only the remainder)", got)
	}
	var res Result
	if res, err = getResult(ts2.URL, stA.ID); err != nil {
		t.Fatal(err)
	}
	if res.Summary.Records != 4 || res.Summary.Failures != 0 {
		t.Fatalf("resumed summary = %d records / %d failures, want 4 / 0", res.Summary.Records, res.Summary.Failures)
	}
}

func getResult(url, id string) (Result, error) {
	var res Result
	resp, err := http.Get(url + "/v1/results/" + id)
	if err != nil {
		return res, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return res, fmt.Errorf("result status %d", resp.StatusCode)
	}
	return res, json.NewDecoder(resp.Body).Decode(&res)
}

// TestBackpressure: a full queue answers 429 with Retry-After; workers
// are deliberately not started so the queue cannot move.
func TestBackpressure(t *testing.T) {
	_, ts, reg := newTestServer(t, Config{
		QueueDepth: 1, Executor: gatedExecutor(nil, nil),
	})
	if _, resp := submitSpec(t, ts.URL, tinySpec("first", 1)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit = %d, want 202", resp.StatusCode)
	}
	spec2 := tinySpec("second", 1)
	spec2.Seed = 7
	_, resp := submitSpec(t, ts.URL, spec2)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second submit = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 missing Retry-After header")
	}
	if got := reg.Counter("ares_serve_jobs_rejected_total", "").Value(); got != 1 {
		t.Errorf("rejected = %d, want 1", got)
	}
}

// TestBadRequests: malformed bodies are 400, never a panic.
func TestBadRequests(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{Executor: gatedExecutor(nil, nil)})
	for _, body := range []string{
		"",
		"not json",
		`{"trials": "eight"}`,
		`{"bogus_field": 1}`,
		`{"missions":[{"kind":"triangle","size":10,"alt":10}]}`,
		`{"goals":["teleport"]}`,
		`{"seed":1} trailing`,
		`{"missions":[{"kind":"line","size":-4,"alt":10}]}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status %d, want 400", body, resp.StatusCode)
		}
	}
	// Unknown job and result IDs are 404.
	for _, path := range []string{"/v1/jobs/nope", "/v1/jobs/nope/events", "/v1/results/nope"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s: status %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestRetryFailedJob: a failed spec resubmits as a retry and its store
// keeps previously succeeded cells.
func TestRetryFailedJob(t *testing.T) {
	var calls atomic.Int64
	flaky := func(ctx context.Context, job campaign.Job) (campaign.Metrics, error) {
		if calls.Add(1) == 1 {
			return campaign.Metrics{}, fmt.Errorf("transient fault")
		}
		return campaign.Metrics{Deviation: 2, Success: true}, nil
	}
	s, ts, reg := newTestServer(t, Config{Workers: 1, Executor: flaky})
	s.Start()
	defer s.Shutdown(context.Background())

	spec := tinySpec("flaky", 1)
	st, _ := submitSpec(t, ts.URL, spec)
	failed := waitState(t, ts.URL, st.ID, StateFailed)
	if failed.Error == "" {
		t.Error("failed job carries no error")
	}
	if got := reg.Counter("ares_serve_jobs_failed_total", "").Value(); got != 1 {
		t.Errorf("failed = %d, want 1", got)
	}
	st2, resp := submitSpec(t, ts.URL, spec)
	if resp.StatusCode != http.StatusAccepted || st2.ID != st.ID {
		t.Fatalf("retry submit = (%d, %q), want (202, %q)", resp.StatusCode, st2.ID, st.ID)
	}
	waitState(t, ts.URL, st.ID, StateDone)
	// Done jobs answer resubmission from the cache with 200.
	_, resp3 := submitSpec(t, ts.URL, spec)
	if resp3.StatusCode != http.StatusOK {
		t.Errorf("cached resubmit = %d, want 200", resp3.StatusCode)
	}
	if got := reg.Counter("ares_serve_cache_hits_total", "").Value(); got == 0 {
		t.Error("cache hit not counted")
	}
}

// TestSpecHashCanonical pins the identity rules: defaults spelled out or
// omitted hash equal, Name is excluded, axes are significant.
func TestSpecHashCanonical(t *testing.T) {
	minimal := campaign.Spec{Seed: 1}
	spelled := campaign.Spec{
		Seed:             1,
		Missions:         []campaign.MissionSpec{{Kind: "line", Size: 60, Alt: 10}},
		Variables:        []string{"PIDR.INTEG"},
		Goals:            []string{campaign.GoalDeviation},
		Defenses:         []string{campaign.DefenseNone},
		Trials:           1,
		SuccessDeviation: 5,
	}
	if SpecHash(minimal) != SpecHash(spelled) {
		t.Error("defaults spelled out changed the hash")
	}
	named := spelled
	named.Name = "some label"
	if SpecHash(named) != SpecHash(spelled) {
		t.Error("Name participates in the hash")
	}
	other := spelled
	other.Seed = 2
	if SpecHash(other) == SpecHash(spelled) {
		t.Error("seed does not participate in the hash")
	}
	moreTrials := spelled
	moreTrials.Trials = 2
	if SpecHash(moreTrials) == SpecHash(spelled) {
		t.Error("trials do not participate in the hash")
	}
}

// TestManifestSurvivesMissingDir ensures New creates StoreDir and an
// empty manifest round-trips.
func TestManifestSurvivesMissingDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "nested", "store")
	s, err := New(Config{StoreDir: dir, Metrics: metrics.NewRegistry(), Executor: gatedExecutor(nil, nil)})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(dist.ManifestPath(dir)); err != nil {
		t.Fatalf("manifest not written: %v", err)
	}
	man, err := dist.LoadManifest(dist.ManifestPath(dir))
	if err != nil || len(man) != 0 {
		t.Fatalf("manifest = (%v, %v), want empty", man, err)
	}
}

// TestRestartAnswersFinishedFromDisk: a spec finished in an earlier daemon
// life is answered from its store — 200, a cache hit, no execution — even
// with the queue full.
func TestRestartAnswersFinishedFromDisk(t *testing.T) {
	dir := t.TempDir()
	spec := tinySpec("earlier-life", 2)
	s1, ts1, _ := newTestServer(t, Config{StoreDir: dir, Workers: 1, Executor: gatedExecutor(nil, nil)})
	s1.Start()
	st, _ := submitSpec(t, ts1.URL, spec)
	waitState(t, ts1.URL, st.ID, StateDone)
	if err := s1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Life 2 never starts its workers, so one queued job fills the queue.
	var count atomic.Int64
	_, ts2, reg := newTestServer(t, Config{StoreDir: dir, QueueDepth: 1, Executor: gatedExecutor(&count, nil)})
	other := tinySpec("other", 1)
	other.Seed = 5
	if _, resp := submitSpec(t, ts2.URL, other); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("filler submit = %d, want 202", resp.StatusCode)
	}
	st2, resp := submitSpec(t, ts2.URL, spec)
	if resp.StatusCode != http.StatusOK || st2.ID != st.ID || st2.State != StateDone {
		t.Fatalf("resubmit after restart = (%d, %+v), want 200 done %s", resp.StatusCode, st2, st.ID)
	}
	if got := reg.Counter("ares_serve_cache_hits_total", "").Value(); got != 1 {
		t.Errorf("cache hits = %d, want 1", got)
	}
	res, err := getResult(ts2.URL, st.ID)
	if err != nil || res.Summary.Records != 2 || res.Summary.Failures != 0 {
		t.Fatalf("result = (%+v, %v), want 2 clean records", res.Summary, err)
	}
	if got := count.Load(); got != 0 {
		t.Errorf("life-2 executions = %d, want 0", got)
	}
}
