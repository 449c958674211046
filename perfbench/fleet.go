package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"github.com/ares-cps/ares/internal/campaign"
	"github.com/ares-cps/ares/internal/dist"
	"github.com/ares-cps/ares/internal/metrics"
	"github.com/ares-cps/ares/internal/serve"
)

// catalogFleet runs a dist.Coordinator and two dist.Workers over loopback
// HTTP in one process and submits the whole catalog as one campaign.
var catalogFleet = workload{setup: setupFleet, pass: len(fleetSeeds)}

const fleetWorkers = 2

type fleetRound struct {
	e      *env
	seed   int64
	spec   campaign.Spec
	jobs   []campaign.Job
	id     string
	dir    string
	reg    *metrics.Registry
	coord  *dist.Coordinator
	hs     *http.Server
	served chan error
	base   string
	client *http.Client
	cancel context.CancelFunc
	wg     sync.WaitGroup
	closed bool

	mu       sync.Mutex
	parked   map[string]bool
	allPark  chan struct{} // closed once every worker got an empty lease reply
	submit   time.Time
	leased   bool
	arrivals []float64
	done     chan struct{} // closed when the campaign reaches a terminal state
	doneOnce sync.Once
}

func setupFleet(ctx context.Context, e *env, r int, dir string) (round, error) {
	seed := pick(fleetSeeds, e.seed, r)
	spec, err := fleetSpec(seed)
	if err != nil {
		return nil, err
	}
	f := &fleetRound{e: e, seed: seed, spec: spec, jobs: spec.Expand(), id: serve.SpecHash(spec),
		dir: dir, reg: metrics.NewRegistry(), served: make(chan error, 1),
		parked: make(map[string]bool), allPark: make(chan struct{}), done: make(chan struct{})}
	f.coord, err = dist.NewCoordinator(dist.CoordConfig{StoreDir: dir,
		LeaseTTL: 30 * time.Second, MaxLease: 8, Metrics: f.reg})
	if err != nil {
		return nil, err
	}
	f.coord.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = f.coord.Shutdown() // the listen error is the one to report
		return nil, err
	}
	f.base = "http://" + ln.Addr().String()
	f.hs = &http.Server{Handler: f.coordHandler(f.coord.Handler())}
	go func() { f.served <- f.hs.Serve(ln) }()
	f.client = &http.Client{}

	wctx, cancel := context.WithCancel(ctx)
	f.cancel = cancel
	for i := 1; i <= fleetWorkers; i++ {
		id := fmt.Sprintf("w%d", i)
		cfg := dist.WorkerConfig{Coordinator: f.base, ID: id, Jobs: 1,
			Client: &http.Client{Timeout: 30 * time.Second,
				Transport: &workerTransport{f: f, worker: id, next: http.DefaultTransport.(*http.Transport).Clone()}}}
		cfg.Execute, cfg.ExecuteGroup = e.tr.tracedExecutors(campaign.NewBatchExecutor())
		w, err := dist.NewWorker(cfg)
		if err != nil {
			f.close()
			return nil, err
		}
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			if err := w.Run(wctx); err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: worker %s: %v\n", w.ID(), err)
			}
		}()
	}
	// Submit only once both workers asked for work, got none and went to
	// sleep: every round then starts from the same idle phase.
	select {
	case <-f.allPark:
		return f, nil
	case <-ctx.Done():
		f.close()
		return nil, ctx.Err()
	}
}

func (f *fleetRound) run(ctx context.Context) (outcome, error) {
	body, err := json.Marshal(f.spec)
	if err != nil {
		return outcome{}, err
	}
	f.mu.Lock()
	f.submit = time.Now()
	f.mu.Unlock()
	code, data, err := httpDo(ctx, f.client, http.MethodPost, f.base+"/v1/jobs", body)
	if err != nil {
		return outcome{}, err
	}
	if code != http.StatusAccepted {
		return outcome{}, fmt.Errorf("submit: HTTP %d: %s", code, strings.TrimSpace(string(data)))
	}
	var st serve.JobStatus
	if err := json.Unmarshal(data, &st); err != nil {
		return outcome{}, fmt.Errorf("submit reply: %w", err)
	}
	if st.ID != f.id {
		return outcome{}, fmt.Errorf("coordinator named campaign %s, want %s", st.ID, f.id)
	}
	select {
	case <-f.done:
	case <-ctx.Done():
		return outcome{}, ctx.Err()
	}
	code, data, err = httpDo(ctx, f.client, http.MethodGet, f.base+"/v1/results/"+f.id, nil)
	if err != nil {
		return outcome{}, err
	}
	var res serve.Result
	failed := 0
	if code != http.StatusOK || json.Unmarshal(data, &res) != nil ||
		res.Summary == nil || res.Summary.Records != len(f.jobs) {
		failed = len(f.jobs)
	} else {
		failed = res.Summary.Failures
	}
	f.mu.Lock()
	arrivals := append([]float64(nil), f.arrivals...)
	f.mu.Unlock()
	f.e.tr.record("dist.steals", f.id, time.Now(), time.Now(),
		int64(f.reg.Counter("ares_dist_steal_events_total", "").Value()))
	return outcome{episodes: episodesOf(f.jobs), requests: 1, latencies: arrivals,
		attempted: len(f.jobs), failed: failed, slots: fleetWorkers}, nil
}

// coordHandler wraps the coordinator's API. Every record batch it merges
// stamps the arrival of its records (the fleet's latency samples); after
// each batch it asks the coordinator, in-process, whether the campaign
// reached a terminal state, so completion is an event, not a poll.
func (f *fleetRound) coordHandler(h http.Handler) http.Handler {
	traced := f.e.tr.handlerSpans("dist.", h)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost || r.URL.Path != "/v1/dist/records" {
			traced.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		data, err := readBody(&r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		var batch dist.RecordsRequest
		n := 0
		if json.Unmarshal(data, &batch) == nil {
			n = len(batch.Records)
		}
		h.ServeHTTP(w, r)
		end := time.Now()
		f.e.tr.record("dist.merge", batch.Lease, start, end, int64(len(data)))
		f.mu.Lock()
		for i := 0; i < n; i++ {
			f.arrivals = append(f.arrivals, end.Sub(f.submit).Seconds())
		}
		f.mu.Unlock()
		if st, ok := f.coord.Status(f.id); ok && (st.State == serve.StateDone || st.State == serve.StateFailed) {
			f.doneOnce.Do(func() {
				f.e.tr.record("dist.finalize", f.id, start, end, 1)
				close(f.done)
			})
		}
	})
}

// workerTransport is a worker's HTTP client transport. It notices the
// empty lease reply that parks a worker and, traced, times every call.
type workerTransport struct {
	f      *fleetRound
	worker string
	next   http.RoundTripper
}

func (t *workerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	f := t.f
	start := time.Now()
	resp, err := t.next.RoundTrip(req)
	if err != nil {
		return resp, err
	}
	end := time.Now()
	switch req.URL.Path {
	case "/v1/dist/lease":
		data, err := readBody(&resp.Body)
		if err != nil {
			return resp, err
		}
		var grant dist.LeaseResponse
		if json.Unmarshal(data, &grant) != nil {
			return resp, nil
		}
		if grant.Lease == "" {
			f.notePark(t.worker)
			return resp, nil
		}
		f.e.tr.record("dist.lease", grant.Lease, start, end, int64(len(grant.Keys)))
		f.mu.Lock()
		first := !f.leased
		f.leased = true
		submit := f.submit
		f.mu.Unlock()
		if first {
			f.e.tr.record("dist.lease_wait", grant.Campaign, submit, end, 1)
		}
	case "/v1/dist/heartbeat":
		f.e.tr.record("dist.heartbeat", t.worker, start, end, 1)
	case "/v1/dist/records":
		f.e.tr.record("dist.records", t.worker, start, end, req.ContentLength)
	}
	return resp, nil
}

func (f *fleetRound) notePark(worker string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.parked) == fleetWorkers {
		return
	}
	f.parked[worker] = true
	if len(f.parked) == fleetWorkers {
		close(f.allPark)
	}
}

func (f *fleetRound) verify() (int, error) {
	data, err := os.ReadFile(dist.SortedArtifactPath(f.dir, f.id))
	if err != nil || !f.e.digests.check(fleetDigestName(f.seed), data) {
		return len(f.jobs), nil
	}
	return 0, nil
}

func (f *fleetRound) close() error {
	if f.closed {
		return nil
	}
	f.closed = true
	if f.cancel != nil {
		f.cancel()
	}
	f.wg.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := f.hs.Shutdown(ctx)
	if serr := <-f.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	f.client.CloseIdleConnections()
	if cerr := f.coord.Shutdown(); err == nil {
		err = cerr
	}
	return err
}
