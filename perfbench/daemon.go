package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ares-cps/ares/internal/campaign"
	"github.com/ares-cps/ares/internal/metrics"
	"github.com/ares-cps/ares/internal/serve"
)

// catalogDaemon runs a serve.Server with aresd's defaults on a loopback
// listener and two closed-loop clients assessing catalog records.
var catalogDaemon = workload{setup: setupDaemon, pass: len(daemonSeeds)}

// daemonClients is the number of closed-loop clients: each sends the
// round's next unsent submission only after its previous one's result body
// arrived. Pulling from one shared sequence, rather than splitting it
// between the clients up front, keeps one client from idling while the
// other works through a heavier share.
const daemonClients = 2

type daemonRound struct {
	e       *env
	plan    []assessBody
	dir     string
	srv     *serve.Server
	hs      *http.Server
	served  chan error
	base    string
	client  *http.Client
	workers int
	closed  bool

	mu       sync.Mutex
	accepted map[string]bool // job IDs some submission got accepted
	ids      map[string]assessBody
}

func setupDaemon(ctx context.Context, e *env, r int, dir string) (round, error) {
	exec, _ := e.tr.tracedExecutors(campaign.NewExecutor(), nil)
	cfg := serve.Config{StoreDir: dir, Workers: 2, Parallelism: 0, CacheSize: 128,
		Executor: exec, Metrics: metrics.NewRegistry()}
	srv, err := serve.New(cfg)
	if err != nil {
		return nil, err
	}
	srv.Start()
	d := &daemonRound{e: e, plan: daemonPlan(e.seed, r), dir: dir, srv: srv,
		workers: cfg.Workers, served: make(chan error, 1),
		accepted: make(map[string]bool), ids: make(map[string]assessBody)}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Shutdown(ctx) // the listen error is the one to report
		return nil, err
	}
	d.base = "http://" + ln.Addr().String()
	d.hs = &http.Server{Handler: e.tr.handlerSpans("serve.", srv.Handler())}
	go func() { d.served <- d.hs.Serve(ln) }()
	d.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * daemonClients}}
	return d, nil
}

// answer is one submission's client-side outcome.
type answer struct {
	latency float64
	ok      bool
}

func (d *daemonRound) run(ctx context.Context) (outcome, error) {
	answers := make([]answer, len(d.plan))
	errs := make([]error, daemonClients)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < daemonClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(d.plan); i = int(next.Add(1) - 1) {
				a, err := d.submit(ctx, d.plan[i])
				if err != nil {
					errs[c] = err
					return
				}
				answers[i] = a
			}
		}(c)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return outcome{}, err
	}
	out := outcome{attempted: len(d.plan), slots: d.workers}
	for _, a := range answers {
		if !a.ok {
			out.failed++
			continue
		}
		out.requests++
		out.latencies = append(out.latencies, a.latency)
	}
	// Only the first acceptance of each distinct body executes; cache
	// hits and dedups fly nothing.
	for _, b := range d.ids {
		spec, err := b.spec()
		if err != nil {
			return outcome{}, err
		}
		out.episodes += episodesOf(spec.Expand())
	}
	return out, nil
}

// submit POSTs one assessment, follows its SSE stream to the terminal
// event when it was queued, and reads the result. Transport errors end
// the run; refusals and failed jobs count as failed submissions.
func (d *daemonRound) submit(ctx context.Context, b assessBody) (answer, error) {
	tr := d.e.tr
	start := time.Now()
	body, err := json.Marshal(b)
	if err != nil {
		return answer{}, err
	}
	code, data, err := httpDo(ctx, d.client, http.MethodPost, d.base+"/v1/cpvs/"+b.Record+"/assess", body)
	if err != nil {
		return answer{}, err
	}
	accepted := time.Now()
	tr.record("client.submit", b.Record, start, accepted, 1)
	if code == http.StatusTooManyRequests {
		tr.record("serve.rejected", b.Record, start, accepted, 1)
	}
	if code != http.StatusOK && code != http.StatusAccepted {
		return answer{}, nil
	}
	var st serve.JobStatus
	if err := json.Unmarshal(data, &st); err != nil {
		return answer{}, fmt.Errorf("submit reply: %w", err)
	}
	d.mu.Lock()
	first := !d.accepted[st.ID]
	d.accepted[st.ID] = true
	if _, ok := d.ids[st.ID]; !ok {
		d.ids[st.ID] = b
	}
	d.mu.Unlock()

	hit := code == http.StatusOK
	switch {
	case hit:
		tr.record("serve.cache_hit", st.ID, start, accepted, 1)
	case !first:
		tr.record("serve.dedup", st.ID, start, accepted, 1)
	}
	if !hit {
		final, running, err := d.awaitDone(ctx, st.ID)
		if err != nil {
			return answer{}, err
		}
		done := time.Now()
		if first && !running.IsZero() {
			tr.record("serve.queue_wait", st.ID, accepted, running, 1)
			tr.record("serve.run", st.ID, running, done, 1)
		}
		if final != serve.StateDone {
			return answer{}, nil
		}
	}
	resStart := time.Now()
	code, data, err = httpDo(ctx, d.client, http.MethodGet, d.base+"/v1/results/"+st.ID, nil)
	if err != nil {
		return answer{}, err
	}
	end := time.Now()
	tr.record("client.result", st.ID, resStart, end, 1)
	if hit {
		tr.record("serve.hit_latency", st.ID, start, end, 1)
	}
	var res serve.Result
	if code != http.StatusOK || json.Unmarshal(data, &res) != nil ||
		res.ID != st.ID || res.Summary == nil || res.Summary.Failures > 0 {
		return answer{}, nil
	}
	return answer{latency: end.Sub(start).Seconds(), ok: true}, nil
}

// awaitDone reads the job's SSE stream until the terminal event and
// returns the final state and when the "state: running" event arrived.
func (d *daemonRound) awaitDone(ctx context.Context, id string) (final string, running time.Time, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return "", time.Time{}, err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return "", time.Time{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", time.Time{}, fmt.Errorf("events %s: HTTP %d", id, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data := strings.TrimPrefix(line, "data: ")
			if event == "done" {
				return data, running, nil
			}
			if running.IsZero() && strings.HasPrefix(data, "state: running") {
				running = time.Now()
			}
		}
	}
	if err := sc.Err(); err != nil {
		return "", time.Time{}, err
	}
	return "", time.Time{}, fmt.Errorf("events %s: stream ended without a terminal event", id)
}

// httpDo sends one request and returns the status and the whole body.
func httpDo(ctx context.Context, client *http.Client, method, url string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// verify checks each executed job's sorted artifact against the digest
// pinned for its body; a mismatch fails every submission of that body.
func (d *daemonRound) verify() (int, error) {
	bad := 0
	for id, b := range d.ids {
		// A missing or unreadable store is a wrong output, not a crash.
		recs, err := campaign.ReadRecords(filepath.Join(d.dir, id+".jsonl"))
		var data []byte
		if err == nil {
			data, err = campaign.SortedBytes(recs)
		}
		if err != nil || !d.e.digests.check(assessDigestName(b), data) {
			for _, p := range d.plan {
				if p == b {
					bad++
				}
			}
		}
	}
	return bad, nil
}

func (d *daemonRound) close() error {
	if d.closed {
		return nil
	}
	d.closed = true
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	if serr := <-d.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	d.client.CloseIdleConnections()
	if serr := d.srv.Shutdown(ctx); err == nil {
		err = serr
	}
	return err
}
