package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"github.com/ares-cps/ares/internal/campaign"
	"github.com/ares-cps/ares/internal/serve"
)

// WorkerConfig parameterizes a fleet Worker.
type WorkerConfig struct {
	// Coordinator is the coordinator's base URL (e.g. http://host:8080).
	// Required.
	Coordinator string
	// ID is the worker's stable identity; empty derives host-pid. The ID
	// shards the job space, so restarting under the same ID re-leases the
	// same shard.
	ID string
	// Jobs is the local runner pool size; <=0 uses the process budget.
	Jobs int
	// FlushEvery is how many finished records buffer before a stream
	// flush. Default 8.
	FlushEvery int
	// Execute runs one job; nil uses one built-in ARES executor shared by
	// every lease, so each mission's monitor is calibrated once per
	// campaign seed rather than once per lease.
	Execute campaign.Executor
	// ExecuteGroup is ignored.
	//
	// Deprecated: the batched lockstep execution path was removed; every
	// job runs through Execute, which returns the records a group
	// executor was required to return.
	ExecuteGroup campaign.GroupExecutor
	// Client issues the HTTP calls; nil uses a 30s-timeout client.
	Client *http.Client
	// Log receives worker log lines; nil discards.
	Log io.Writer
}

func (c *WorkerConfig) applyDefaults() error {
	if c.Coordinator == "" {
		return errors.New("dist: WorkerConfig.Coordinator is required")
	}
	c.Coordinator = strings.TrimRight(c.Coordinator, "/")
	if c.ID == "" {
		host, err := os.Hostname()
		if err != nil || host == "" {
			host = "worker"
		}
		c.ID = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	if err := validWorkerID(c.ID); err != nil {
		return err
	}
	if c.FlushEvery <= 0 {
		c.FlushEvery = 8
	}
	if c.Execute == nil {
		c.Execute = campaign.NewExecutor()
	}
	if c.Client == nil {
		c.Client = &http.Client{Timeout: 30 * time.Second}
	}
	if c.Log == nil {
		c.Log = io.Discard
	}
	return nil
}

// Worker is one fleet member: it registers with a coordinator, leases job
// batches, executes them through the ordinary campaign runner, and
// streams the records back. A worker holds no campaign state beyond a
// per-campaign spec cache — kill one mid-lease and the coordinator
// re-leases its jobs after the lease TTL.
type Worker struct {
	cfg WorkerConfig
	// hb is the heartbeat interval assigned at registration.
	hb time.Duration
	// specs caches each campaign's locally-expanded job list, keyed by
	// campaign ID. Only the Run goroutine touches it.
	specs map[string]map[string]campaign.Job
}

// NewWorker builds a Worker.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if err := cfg.applyDefaults(); err != nil {
		return nil, err
	}
	return &Worker{cfg: cfg, specs: make(map[string]map[string]campaign.Job)}, nil
}

// ID returns the worker's effective identity.
func (w *Worker) ID() string { return w.cfg.ID }

// Run registers and then loops lease → execute → stream → complete until
// ctx is cancelled. Transient coordinator failures (not up yet, restart
// mid-fleet) are retried; a cancelled ctx returns nil.
func (w *Worker) Run(ctx context.Context) error {
	if err := w.register(ctx); err != nil {
		return err
	}
	for {
		if ctx.Err() != nil {
			return nil
		}
		var grant LeaseResponse
		err := w.post(ctx, "/v1/dist/lease", LeaseRequest{Worker: w.cfg.ID}, &grant, maxLeaseBytes)
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			fmt.Fprintf(w.cfg.Log, "dist: worker %s lease request: %v\n", w.cfg.ID, err)
			if !sleepCtx(ctx, time.Second) {
				return nil
			}
			continue
		}
		if grant.Lease == "" {
			d := time.Duration(grant.RetryMillis) * time.Millisecond
			if d <= 0 {
				d = time.Second
			}
			if !sleepCtx(ctx, d) {
				return nil
			}
			continue
		}
		if err := w.runLease(ctx, grant); err != nil && ctx.Err() == nil {
			fmt.Fprintf(w.cfg.Log, "dist: worker %s lease %s: %v\n", w.cfg.ID, grant.Lease, err)
		}
	}
}

// register announces the worker, retrying until the coordinator answers
// or ctx ends, and adopts the assigned heartbeat interval.
func (w *Worker) register(ctx context.Context) error {
	for {
		var resp RegisterResponse
		err := w.post(ctx, "/v1/dist/register", RegisterRequest{Worker: w.cfg.ID}, &resp, maxControlBytes)
		if err == nil {
			w.hb = time.Duration(resp.HeartbeatMillis) * time.Millisecond
			if w.hb < 10*time.Millisecond {
				w.hb = 10 * time.Millisecond
			}
			fmt.Fprintf(w.cfg.Log, "dist: worker %s registered with %s (heartbeat %v)\n",
				w.cfg.ID, w.cfg.Coordinator, w.hb)
			return nil
		}
		var ae *apiError
		if errors.As(err, &ae) {
			return err // the coordinator rejected us: not transient
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		fmt.Fprintf(w.cfg.Log, "dist: worker %s register: %v (retrying)\n", w.cfg.ID, err)
		if !sleepCtx(ctx, time.Second) {
			return ctx.Err()
		}
	}
}

// runLease executes one granted batch: resolve keys against the locally
// expanded spec, run them on the campaign runner while a heartbeat
// goroutine keeps the lease alive, stream the records, then complete the
// lease. An Abandon heartbeat reply cancels the lease context, so
// in-flight jobs wind down instead of streaming to a lease the
// coordinator already re-granted.
func (w *Worker) runLease(ctx context.Context, grant LeaseResponse) error {
	jobsByKey, err := w.campaignJobs(ctx, grant.Campaign)
	if err != nil {
		return err
	}
	jobs := make([]campaign.Job, 0, len(grant.Keys))
	for _, k := range grant.Keys {
		j, ok := jobsByKey[k]
		if !ok {
			return fmt.Errorf("dist: lease %s names key %q absent from campaign %s", grant.Lease, k, grant.Campaign)
		}
		jobs = append(jobs, j)
	}

	leaseCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var hbWG sync.WaitGroup
	hbWG.Add(1)
	go func() {
		defer hbWG.Done()
		t := time.NewTicker(w.hb)
		defer t.Stop()
		for {
			select {
			case <-leaseCtx.Done():
				return
			case <-t.C:
				var hr HeartbeatResponse
				err := w.post(leaseCtx, "/v1/dist/heartbeat",
					HeartbeatRequest{Worker: w.cfg.ID, Lease: grant.Lease}, &hr, maxControlBytes)
				if err == nil && hr.Abandon {
					fmt.Fprintf(w.cfg.Log, "dist: worker %s abandoning lease %s\n", w.cfg.ID, grant.Lease)
					cancel()
					return
				}
			}
		}
	}()

	sink := &streamSink{w: w, ctx: leaseCtx, lease: grant.Lease}
	runner := &campaign.Runner{
		Workers: w.cfg.Jobs,
		Execute: w.cfg.Execute,
		Log:     w.cfg.Log,
	}
	_, runErr := runner.RunJobs(leaseCtx, jobs, sink)
	flushErr := sink.flush()
	cancel()
	hbWG.Wait()
	if runErr == nil {
		runErr = flushErr
	}
	if runErr != nil {
		return runErr
	}
	var cr CompleteResponse
	return w.post(ctx, "/v1/dist/complete",
		CompleteRequest{Worker: w.cfg.ID, Lease: grant.Lease}, &cr, maxControlBytes)
}

// campaignJobs returns campaign id's jobs keyed by job key, fetching and
// expanding the spec on first sight. The fetched spec re-passes the
// strict submission decoder and must hash back to the campaign ID it was
// fetched under — a worker never executes jobs whose provenance it
// cannot recompute.
func (w *Worker) campaignJobs(ctx context.Context, id string) (map[string]campaign.Job, error) {
	if jobs, ok := w.specs[id]; ok {
		return jobs, nil
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		w.cfg.Coordinator+"/v1/dist/campaigns/"+id+"/spec", nil)
	if err != nil {
		return nil, err
	}
	resp, err := w.cfg.Client.Do(req)
	if err != nil {
		return nil, err
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("dist: spec fetch for %s: HTTP %d", id, resp.StatusCode)
	}
	spec, err := serve.DecodeSpec(io.LimitReader(resp.Body, serve.MaxSpecBytes))
	if err != nil {
		return nil, fmt.Errorf("dist: spec fetch for %s: %w", id, err)
	}
	if got := serve.SpecHash(spec); got != id {
		return nil, fmt.Errorf("dist: spec fetched for campaign %s hashes to %s", id, got)
	}
	jobs := make(map[string]campaign.Job)
	for _, j := range spec.Expand() {
		jobs[j.Key] = j
	}
	w.specs[id] = jobs
	return jobs, nil
}

// streamSink is the worker-side campaign.RecordSink: it buffers finished
// records and streams them to the coordinator in offset-stamped batches.
// A transport failure retries the same offset — the coordinator drops the
// overlap — so a record is merged exactly once however flaky the link.
type streamSink struct {
	w     *Worker
	ctx   context.Context
	lease string

	mu   sync.Mutex
	buf  []campaign.Record
	sent int
}

// Completed always reports false: the coordinator already filtered
// completed jobs out of the lease.
func (s *streamSink) Completed(string) bool { return false }

// Append buffers one record, flushing a full batch.
func (s *streamSink) Append(rec campaign.Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.buf = append(s.buf, rec)
	if len(s.buf) < s.w.cfg.FlushEvery {
		return nil
	}
	return s.flushLocked()
}

func (s *streamSink) flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.flushLocked()
}

func (s *streamSink) flushLocked() error {
	if len(s.buf) == 0 {
		return nil
	}
	req := RecordsRequest{Worker: s.w.cfg.ID, Lease: s.lease, Offset: s.sent, Records: s.buf}
	var resp RecordsResponse
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		err = s.w.post(s.ctx, "/v1/dist/records", req, &resp, maxControlBytes)
		if err == nil {
			break
		}
		var ae *apiError
		if errors.As(err, &ae) {
			return err // coordinator refused the batch: lease lost or protocol error
		}
		if !sleepCtx(s.ctx, 100*time.Millisecond) {
			return err
		}
	}
	if err != nil {
		return err
	}
	if resp.Next < s.sent || resp.Next > s.sent+len(s.buf) {
		return fmt.Errorf("dist: coordinator acked offset %d outside [%d, %d]",
			resp.Next, s.sent, s.sent+len(s.buf))
	}
	s.sent = resp.Next
	s.buf = s.buf[:0]
	return nil
}

// apiError is a non-2xx coordinator reply: a deliberate refusal, not a
// transport fault, so callers treat it as permanent rather than retrying.
type apiError struct {
	Status int
	Msg    string
}

func (e *apiError) Error() string {
	return fmt.Sprintf("dist: coordinator replied %d: %s", e.Status, e.Msg)
}

// post sends one JSON envelope and strictly decodes the JSON reply.
func (w *Worker) post(ctx context.Context, path string, in, out any, limit int64) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.cfg.Coordinator+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.cfg.Client.Do(req)
	if err != nil {
		return err
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return &apiError{Status: resp.StatusCode, Msg: strings.TrimSpace(string(msg))}
	}
	return decodeWireInto(resp.Body, limit, out)
}

// sleepCtx sleeps d or until ctx ends; it reports whether the full sleep
// elapsed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
