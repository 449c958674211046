package dist_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/ares-cps/ares/internal/campaign"
	"github.com/ares-cps/ares/internal/dist"
	"github.com/ares-cps/ares/internal/metrics"
	"github.com/ares-cps/ares/internal/par"
	"github.com/ares-cps/ares/internal/serve"
)

// submitHTTP posts spec to /v1/jobs as-is: without HTML escaping, so a
// '<' in it travels as one byte.
func submitHTTP(t *testing.T, url string, spec campaign.Spec) (dist.JobStatus, int) {
	t.Helper()
	var body bytes.Buffer
	enc := json.NewEncoder(&body)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(spec); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/jobs", "application/json", &body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st dist.JobStatus
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	return st, resp.StatusCode
}

// waitTerminal polls a campaign until it reaches done or failed.
func waitTerminal(t *testing.T, url, id string) dist.JobStatus {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := http.Get(url + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st dist.JobStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.State == dist.StateDone || st.State == dist.StateFailed {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign %s stuck in %q (err %q)", id, st.State, st.Error)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// runFleet executes spec on an in-process fleet of n workers and returns
// the sorted artifact, the aggregate summary and the coordinator's
// metrics registry. With killOne, worker w0 is started first and dies
// mid-lease without streaming a record, so the campaign can only finish
// via lease expiry + work stealing.
func runFleet(t *testing.T, spec campaign.Spec, n int, killOne bool) ([]byte, *campaign.Summary, *metrics.Registry) {
	t.Helper()
	dir := t.TempDir()
	reg := metrics.NewRegistry()
	c, err := dist.NewCoordinator(dist.CoordConfig{
		StoreDir: dir,
		LeaseTTL: 250 * time.Millisecond,
		MaxLease: 2,
		Metrics:  reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	ts := httptest.NewServer(c.Handler())

	st, code := submitHTTP(t, ts.URL, spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", code)
	}

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	start := 0
	if killOne {
		killCtx, kill := context.WithCancel(ctx)
		w0, err := dist.NewWorker(dist.WorkerConfig{
			Coordinator: ts.URL, ID: "w0", Jobs: 1,
			Execute: func(jctx context.Context, _ campaign.Job) (campaign.Metrics, error) {
				kill() // die mid-lease, record unstreamed
				<-jctx.Done()
				return campaign.Metrics{}, jctx.Err()
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() { defer wg.Done(); _ = w0.Run(killCtx) }()
		<-killCtx.Done() // w0 holds a lease and is now dead
		start = 1
	}
	for i := start; i < n; i++ {
		w, err := dist.NewWorker(dist.WorkerConfig{
			Coordinator: ts.URL, ID: fmt.Sprintf("w%d", i), Jobs: 2,
			Execute: dist.FleetExec,
		})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() { defer wg.Done(); _ = w.Run(ctx) }()
	}

	final := waitTerminal(t, ts.URL, st.ID)
	cancel()
	wg.Wait()

	res := fetchResult(t, ts.URL, final)

	if err := c.Shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	ts.Close()
	sorted, err := os.ReadFile(dist.SortedArtifactPath(dir, st.ID))
	if err != nil {
		t.Fatal(err)
	}
	return sorted, res.Summary, reg
}

// fetchResult reads a terminal campaign's aggregated report.
func fetchResult(t *testing.T, url string, final dist.JobStatus) dist.Result {
	t.Helper()
	var res dist.Result
	resp, err := http.Get(url + "/v1/results/" + final.ID)
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&res)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("result = (%d, %v) for terminal state %q", resp.StatusCode, err, final.State)
	}
	return res
}

// runDaemon executes spec on a single-node daemon (serve.Server: a
// coordinator with that many in-process workers) and returns what
// runFleet returns.
func runDaemon(t *testing.T, spec campaign.Spec, workers int, _ bool) ([]byte, *campaign.Summary, *metrics.Registry) {
	t.Helper()
	dir := t.TempDir()
	reg := metrics.NewRegistry()
	s, err := serve.New(serve.Config{
		StoreDir: dir, Workers: workers, Parallelism: 2, Executor: dist.FleetExec, Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	st, code := submitHTTP(t, ts.URL, spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", code)
	}
	res := fetchResult(t, ts.URL, waitTerminal(t, ts.URL, st.ID))
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	sorted, err := os.ReadFile(dist.SortedArtifactPath(dir, st.ID))
	if err != nil {
		t.Fatal(err)
	}
	return sorted, res.Summary, reg
}

// waitDoneWithin fails t unless campaign id reaches a terminal state
// within d of start.
func waitDoneWithin(t *testing.T, c *dist.Coordinator, id string, start time.Time, d time.Duration) {
	t.Helper()
	for {
		got, _ := c.Status(id)
		if got.State == dist.StateDone || got.State == dist.StateFailed {
			return
		}
		if time.Since(start) > d {
			t.Fatalf("campaign still %q after %v: the idle worker did not wake on the submission", got.State, d)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestInProcessWorkerWakesOnSubmit: an idle in-process worker starts a
// campaign as soon as it is submitted rather than after the wait bound
// (LeaseTTL/4, 7.5 s here), and exits once the coordinator drains.
func TestInProcessWorkerWakesOnSubmit(t *testing.T) {
	c, err := dist.NewCoordinator(dist.CoordConfig{
		StoreDir: t.TempDir(), LeaseTTL: 30 * time.Second, Metrics: metrics.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Shutdown()
	w := c.InProcessWorker("local-0", dist.FleetExec, par.NewBudget(1))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	exited := make(chan error, 1)
	go func() { exited <- w.Run(ctx) }()
	time.Sleep(50 * time.Millisecond) // the worker finds nothing and idles

	start := time.Now()
	st, code := c.Submit(dist.FleetSpec("wake", 1))
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202", code)
	}
	waitDoneWithin(t, c, st.ID, start, time.Second)

	c.Drain()
	select {
	case err := <-exited:
		if err != nil {
			t.Fatalf("Run = %v after drain, want nil", err)
		}
	case <-time.After(time.Second):
		t.Fatal("in-process worker still running 1s after the coordinator drained")
	}
}

// TestFleetWorkerWakesOnSubmit is the HTTP twin of
// TestInProcessWorkerWakesOnSubmit: a fleet worker parked in a wait
// starts a campaign as soon as it is submitted.
func TestFleetWorkerWakesOnSubmit(t *testing.T) {
	c, err := dist.NewCoordinator(dist.CoordConfig{
		StoreDir: t.TempDir(), LeaseTTL: 30 * time.Second, Metrics: metrics.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()
	defer c.Shutdown()
	w, err := dist.NewWorker(dist.WorkerConfig{Coordinator: ts.URL, ID: "w0", Jobs: 1, Execute: dist.FleetExec})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	exited := make(chan struct{})
	go func() { defer close(exited); _ = w.Run(ctx) }()
	defer func() { cancel(); <-exited }()
	time.Sleep(50 * time.Millisecond) // the worker finds nothing and parks

	start := time.Now()
	st, code := submitHTTP(t, ts.URL, dist.FleetSpec("fleet-wake", 1))
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202", code)
	}
	waitDoneWithin(t, c, st.ID, start, time.Second)
}

// TestFleetWorkerDrain: Drain answers a parked fleet worker's wait at
// once, and the worker then backs off rather than spin on a coordinator
// that answers every lease and wait at once.
func TestFleetWorkerDrain(t *testing.T) {
	c, err := dist.NewCoordinator(dist.CoordConfig{
		StoreDir: t.TempDir(), LeaseTTL: 30 * time.Second, Metrics: metrics.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Shutdown()
	var requests atomic.Int64
	waited := make(chan time.Time, 1)
	h := c.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		h.ServeHTTP(w, r)
		if r.URL.Path == "/v1/dist/wait" {
			select {
			case waited <- time.Now():
			default:
			}
		}
	}))
	defer ts.Close()
	w, err := dist.NewWorker(dist.WorkerConfig{Coordinator: ts.URL, ID: "w0", Jobs: 1, Execute: dist.FleetExec})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	exited := make(chan struct{})
	go func() { defer close(exited); _ = w.Run(ctx) }()
	defer func() { cancel(); <-exited }()
	time.Sleep(50 * time.Millisecond) // the worker finds nothing and parks

	drained := time.Now()
	before := requests.Load()
	c.Drain()
	select {
	case end := <-waited:
		if d := end.Sub(drained); d > 200*time.Millisecond {
			t.Errorf("parked wait answered %v after the drain, want at once", d)
		}
	case <-time.After(time.Second):
		t.Fatal("no parked wait answered within 1s of the drain")
	}
	time.Sleep(time.Second)
	if n := requests.Load() - before; n > 6 {
		t.Errorf("worker sent %d requests in the second after the drain, want a back-off", n)
	}
}

// streamingFleet starts a coordinator that grants 2-cell leases behind an
// HTTP server and submits a 2-cell campaign to it. It returns the
// coordinator's server, its metrics registry and the campaign ID.
func streamingFleet(t *testing.T, name string, ttl time.Duration) (*httptest.Server, *metrics.Registry, string) {
	t.Helper()
	reg := metrics.NewRegistry()
	c, err := dist.NewCoordinator(dist.CoordConfig{
		StoreDir: t.TempDir(), LeaseTTL: ttl, MaxLease: 2, Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(func() { ts.Close(); _ = c.Shutdown() })
	st, code := submitHTTP(t, ts.URL, dist.FleetSpec(name, 1))
	if code != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", code)
	}
	return ts, reg, st.ID
}

// runWorker runs a one-job fleet worker until ctx ends and returns a
// channel closed once Run has returned.
func runWorker(t *testing.T, ctx context.Context, url, id string, exec campaign.Executor) <-chan struct{} {
	t.Helper()
	w, err := dist.NewWorker(dist.WorkerConfig{Coordinator: url, ID: id, Jobs: 1, Execute: exec})
	if err != nil {
		t.Fatal(err)
	}
	exited := make(chan struct{})
	go func() { defer close(exited); _ = w.Run(ctx) }()
	return exited
}

// TestFleetWorkerStreamsEachRecord: a fleet worker posts each record as
// its cell finishes, not when its lease ends. The second cell of a 2-cell
// lease waits for the coordinator to merge the first cell's record.
func TestFleetWorkerStreamsEachRecord(t *testing.T) {
	ts, reg, id := streamingFleet(t, "stream", 30*time.Second)
	merged := reg.Counter("ares_dist_records_merged_total", "")
	var calls atomic.Int64
	var waited atomic.Int64 // ms the second cell waited for the first record
	exec := func(ctx context.Context, job campaign.Job) (campaign.Metrics, error) {
		if calls.Add(1) == 2 {
			start := time.Now()
			for merged.Value() == 0 && time.Since(start) < 5*time.Second {
				time.Sleep(5 * time.Millisecond)
			}
			waited.Store(time.Since(start).Milliseconds())
		}
		return dist.FleetExec(ctx, job)
	}
	ctx, cancel := context.WithCancel(context.Background())
	exited := runWorker(t, ctx, ts.URL, "w0", exec)
	defer func() { cancel(); <-exited }()

	if st := waitTerminal(t, ts.URL, id); st.State != dist.StateDone {
		t.Fatalf("campaign %s, want done", st.State)
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("executed %d cells, want 2 (one lease)", n)
	}
	if ms := waited.Load(); ms >= 5000 {
		t.Errorf("first record still unmerged after the second cell waited %d ms: records wait for the lease to end", ms)
	}
	if got := merged.Value(); got != 2 {
		t.Errorf("records merged = %d, want 2", got)
	}
}

// TestKilledWorkerKeepsFinishedCells: a fleet worker killed inside its
// lease's second cell has already streamed the first, so the first is
// merged before the lease expires and only the cell it died in is
// re-leased and flown again.
func TestKilledWorkerKeepsFinishedCells(t *testing.T) {
	ts, reg, id := streamingFleet(t, "killed", time.Second)
	var mu sync.Mutex
	runs := map[string]int{} // executions per key, both workers
	var order []string       // keys in execution order
	count := func(key string) int {
		mu.Lock()
		defer mu.Unlock()
		runs[key]++
		order = append(order, key)
		return len(order)
	}

	killCtx, kill := context.WithCancel(context.Background())
	defer kill()
	<-runWorker(t, killCtx, ts.URL, "w0", func(jctx context.Context, job campaign.Job) (campaign.Metrics, error) {
		if count(job.Key) == 1 {
			return dist.FleetExec(jctx, job)
		}
		kill() // die inside the second cell
		<-jctx.Done()
		return campaign.Metrics{}, jctx.Err()
	})
	if got := reg.Counter("ares_dist_leases_expired_total", "").Value(); got != 0 {
		t.Fatalf("%d leases expired before the check", got)
	}
	if got := reg.Counter("ares_dist_records_merged_total", "").Value(); got != 1 {
		t.Errorf("records merged when the worker died = %d, want 1 (the finished cell)", got)
	}

	ctx, cancel := context.WithCancel(context.Background())
	exited := runWorker(t, ctx, ts.URL, "w1", func(jctx context.Context, job campaign.Job) (campaign.Metrics, error) {
		count(job.Key)
		return dist.FleetExec(jctx, job)
	})
	defer func() { cancel(); <-exited }()
	if st := waitTerminal(t, ts.URL, id); st.State != dist.StateDone {
		t.Fatalf("campaign %s, want done", st.State)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 3 || order[2] != order[1] || runs[order[0]] != 1 {
		t.Errorf("executions %v: want the finished cell once and only the cell the worker died in re-flown", order)
	}
	if got := reg.Counter("ares_dist_records_merged_total", "").Value(); got != 2 {
		t.Errorf("records merged = %d, want 2", got)
	}
}

// ackLossTransport forwards every request, but loses the answer to the
// first post of each distinct records body: the coordinator merged the
// record, and the worker sees a transport error and retries. retries
// counts the retries' answers by status.
type ackLossTransport struct {
	mu      sync.Mutex
	seen    map[string]bool
	lost    int
	retries map[int]int
}

func (a *ackLossTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Path != "/v1/dist/records" {
		return http.DefaultTransport.RoundTrip(req)
	}
	body, err := io.ReadAll(req.Body)
	req.Body.Close()
	if err != nil {
		return nil, err
	}
	fwd := req.Clone(req.Context())
	fwd.Body = io.NopCloser(bytes.NewReader(body))
	resp, err := http.DefaultTransport.RoundTrip(fwd)
	if err != nil {
		return nil, err
	}
	a.mu.Lock()
	first := !a.seen[string(body)]
	a.seen[string(body)] = true
	if first {
		a.lost++
	} else {
		a.retries[resp.StatusCode]++
	}
	a.mu.Unlock()
	if !first {
		return resp, nil
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return nil, errors.New("connection reset after the request was sent")
}

// syncBuffer is a bytes.Buffer safe for a worker's concurrent log writes.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestFleetWorkerRetriesLostAck: every record post of an HTTP fleet
// worker reaches the coordinator, but its first answer is lost, so the
// worker posts each record twice. A retry whose lease still has open
// slots is dropped, since the record's slot is filled; a retry of a
// lease's last record finds the lease ended (404) and counts as
// delivered. Each cell merges once, the artifact equals an in-process
// daemon's, and the worker logs no lease error.
func TestFleetWorkerRetriesLostAck(t *testing.T) {
	spec := dist.FleetSpec("lost-ack", 2)
	spec.Seed = 1 // no cell of it fails, so the campaign ends done
	want, _, _ := runDaemon(t, spec, 1, false)

	dir := t.TempDir()
	reg := metrics.NewRegistry()
	c, err := dist.NewCoordinator(dist.CoordConfig{StoreDir: dir, MaxLease: 2, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()
	defer c.Shutdown()
	st, code := submitHTTP(t, ts.URL, spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", code)
	}
	lossy := &ackLossTransport{seen: make(map[string]bool), retries: make(map[int]int)}
	var log syncBuffer
	w, err := dist.NewWorker(dist.WorkerConfig{
		Coordinator: ts.URL, ID: "w0", Jobs: 1, Execute: dist.FleetExec,
		Client: &http.Client{Transport: lossy, Timeout: 30 * time.Second}, Log: &log,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	exited := make(chan struct{})
	go func() { defer close(exited); _ = w.Run(ctx) }()
	final := waitTerminal(t, ts.URL, st.ID)
	cells := len(spec.Expand())
	// The last cell's retry follows the merge that finished the campaign.
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		lossy.mu.Lock()
		n := lossy.retries[http.StatusOK] + lossy.retries[http.StatusNotFound]
		lossy.mu.Unlock()
		if n == cells {
			break
		}
	}
	cancel()
	<-exited

	if final.State != dist.StateDone {
		t.Fatalf("campaign %s (%s), want done", final.State, final.Error)
	}
	if got := reg.Counter("ares_dist_records_merged_total", "").Value(); got != uint64(cells) {
		t.Errorf("records merged = %d, want %d", got, cells)
	}
	if lossy.lost != cells {
		t.Errorf("%d answer(s) lost, want one per cell (%d)", lossy.lost, cells)
	}
	// Leases of ⌈4/2⌉, 1 and 1 cells: one retry lands in a live lease.
	if lossy.retries[http.StatusOK] != 1 || lossy.retries[http.StatusNotFound] != cells-1 {
		t.Errorf("retries answered %v, want one 200 and %d 404", lossy.retries, cells-1)
	}
	got, err := os.ReadFile(dist.SortedArtifactPath(dir, st.ID))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("artifact diverges from the in-process daemon's:\n%s\nvs\n%s", got, want)
	}
	if out := log.String(); strings.Contains(out, "worker w0 lease ") || strings.Contains(out, "abandoning") {
		t.Errorf("worker logged a lease error:\n%s", out)
	}
}

// TestFleetFinishesEscapeHeavySpec: a spec POST /v1/jobs accepts
// finishes on an HTTP fleet worker. Its name of 200,000 '<' would be
// 1.2 MB HTML-escaped, past what the worker reads; the lease carries each
// '<' as one byte. The artifact matches an in-process daemon's.
func TestFleetFinishesEscapeHeavySpec(t *testing.T) {
	spec := dist.FleetSpec(strings.Repeat("<", 200_000), 2)
	want, _, _ := runDaemon(t, spec, 1, false)
	got, _, _ := runFleet(t, spec, 1, false)
	if !bytes.Equal(got, want) {
		t.Errorf("fleet artifact (%d bytes) diverges from the in-process daemon's (%d bytes)", len(got), len(want))
	}
}

// TestFleetWorkerStopsOnRefusedLease: a lease request the coordinator
// refuses as bad (400) ends Run with that error; it is not retried.
func TestFleetWorkerStopsOnRefusedLease(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "bad worker", http.StatusBadRequest)
	}))
	defer ts.Close()
	w, err := dist.NewWorker(dist.WorkerConfig{Coordinator: ts.URL, ID: "w0", Jobs: 1, Execute: dist.FleetExec})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := w.Run(ctx); err == nil || ctx.Err() != nil {
		t.Fatalf("Run = %v after %v, want the refusal at once", err, ctx.Err())
	}
}

// TestFleetEquivalence is the acceptance contract: the same spec run
// locally, on a 1-worker fleet, on a 3-worker fleet with one worker
// killed mid-run (forcing lease expiry and work stealing), and on a
// single-node daemon (in-process workers) produces byte-identical sorted
// artifacts and identical aggregate summaries.
func TestFleetEquivalence(t *testing.T) {
	spec := dist.FleetSpec("fleet-eq", 4)
	wantSorted, wantSum, _ := dist.LocalRun(t, spec)
	if len(wantSorted) == 0 {
		t.Fatal("local baseline produced no artifact")
	}
	wantSumJSON, err := json.Marshal(wantSum)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name    string
		workers int
		kill    bool
		daemon  bool
	}{
		{"one-worker", 1, false, false},
		{"three-workers-one-killed", 3, true, false},
		{"single-node-daemon", 2, false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := runFleet
			if tc.daemon {
				run = runDaemon
			}
			sorted, sum, reg := run(t, spec, tc.workers, tc.kill)
			if !bytes.Equal(sorted, wantSorted) {
				t.Errorf("sorted artifact diverges from local run:\nfleet:\n%slocal:\n%s", sorted, wantSorted)
			}
			sumJSON, err := json.Marshal(sum)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(sumJSON, wantSumJSON) {
				t.Errorf("summary diverges:\nfleet: %s\nlocal: %s", sumJSON, wantSumJSON)
			}
			merged := reg.Counter("ares_dist_records_merged_total", "").Value()
			if want := uint64(len(spec.Expand())); merged != want {
				t.Errorf("records merged = %d, want %d (no double-merge)", merged, want)
			}
			if tc.kill {
				if got := reg.Counter("ares_dist_leases_expired_total", "").Value(); got == 0 {
					t.Error("killed worker's lease never expired")
				}
				if got := reg.Counter("ares_dist_steal_events_total", "").Value(); got == 0 {
					t.Error("no steal events despite a killed worker")
				}
			}
		})
	}
}
