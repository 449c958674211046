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
	"github.com/ares-cps/ares/internal/par"
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

// Worker executes leases: it asks its coordinator for job batches, runs
// them through the ordinary campaign runner, and streams the records
// back. A fleet Worker talks to a remote coordinator over HTTP and holds
// no campaign state beyond the job list of the campaign it last leased
// from — kill one mid-lease and the coordinator re-leases its jobs after
// the lease TTL. An in-process Worker (Coordinator.InProcessWorker) calls
// its coordinator's methods directly.
type Worker struct {
	cfg  WorkerConfig
	link link
	// budget, when set, sizes each lease's runner pool with a fair share
	// drawn per lease; otherwise cfg.Jobs does.
	budget *par.Budget
	// hb is the heartbeat interval assigned at registration.
	hb time.Duration
	// specID names the campaign whose locally-expanded jobs, keyed by job
	// key, are cached in jobs. Only the Run goroutine touches them.
	specID string
	jobs   map[string]campaign.Job
}

// NewWorker builds a fleet Worker.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if err := cfg.applyDefaults(); err != nil {
		return nil, err
	}
	return &Worker{cfg: cfg, link: &httpLink{base: cfg.Coordinator, client: cfg.Client}}, nil
}

// InProcessWorker returns a Worker that calls c's methods directly, with
// no HTTP or JSON. Each lease takes every pending job of the oldest
// waiting campaign and runs it on a fair share of budget; every record is
// merged as it finishes, so the campaign's event log gains one line per
// cell; and an idle worker wakes as soon as a submission makes jobs
// pending, not on a retry timer. Run returns once c drains. A nil exec
// uses the built-in ARES executor.
func (c *Coordinator) InProcessWorker(id string, exec campaign.Executor, budget *par.Budget) *Worker {
	if exec == nil {
		exec = campaign.NewExecutor()
	}
	return &Worker{
		cfg:    WorkerConfig{ID: id, FlushEvery: 1, Execute: exec, Log: c.cfg.Log},
		link:   &localLink{c: c},
		budget: budget,
	}
}

// ID returns the worker's effective identity.
func (w *Worker) ID() string { return w.cfg.ID }

// Run registers and then loops lease → execute → stream → complete until
// ctx is cancelled (or, in process, the coordinator drains). Transient
// coordinator failures (not up yet, restart mid-fleet) are retried; a
// cancelled ctx returns nil.
func (w *Worker) Run(ctx context.Context) error {
	if err := w.register(ctx); err != nil {
		return err
	}
	for ctx.Err() == nil {
		grant, err := w.link.lease(ctx, w.cfg.ID)
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
			if !w.link.idle(ctx, time.Duration(grant.RetryMillis)*time.Millisecond) {
				return nil
			}
			continue
		}
		if err := w.runLease(ctx, grant); err != nil && ctx.Err() == nil {
			fmt.Fprintf(w.cfg.Log, "dist: worker %s lease %s: %v\n", w.cfg.ID, grant.Lease, err)
		}
	}
	return nil
}

// register announces the worker, retrying until the coordinator answers
// or ctx ends, and adopts the assigned heartbeat interval.
func (w *Worker) register(ctx context.Context) error {
	for {
		resp, err := w.link.register(ctx, w.cfg.ID)
		if err == nil {
			w.hb = time.Duration(resp.HeartbeatMillis) * time.Millisecond
			if w.hb < 10*time.Millisecond {
				w.hb = 10 * time.Millisecond
			}
			fmt.Fprintf(w.cfg.Log, "dist: worker %s registered (heartbeat %v)\n", w.cfg.ID, w.hb)
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
				hr, err := w.link.heartbeat(leaseCtx, HeartbeatRequest{Worker: w.cfg.ID, Lease: grant.Lease})
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
	if w.budget != nil {
		// Progress reaches the campaign's event log as records merge.
		share, release := w.budget.Acquire()
		defer release()
		runner.Workers, runner.Log = share, nil
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
	return w.link.complete(ctx, CompleteRequest{Worker: w.cfg.ID, Lease: grant.Lease})
}

// campaignJobs returns campaign id's jobs keyed by job key, fetching and
// expanding the spec when the campaign differs from the last one leased.
// The fetched spec must hash back to the campaign ID it was fetched
// under — a worker never executes jobs whose provenance it cannot
// recompute.
func (w *Worker) campaignJobs(ctx context.Context, id string) (map[string]campaign.Job, error) {
	if w.specID == id {
		return w.jobs, nil
	}
	spec, err := w.link.spec(ctx, id)
	if err != nil {
		return nil, fmt.Errorf("dist: spec fetch for %s: %w", id, err)
	}
	if got := campaign.SpecHash(spec); got != id {
		return nil, fmt.Errorf("dist: spec fetched for campaign %s hashes to %s", id, got)
	}
	jobs := make(map[string]campaign.Job)
	for _, j := range spec.Expand() {
		jobs[j.Key] = j
	}
	w.specID, w.jobs = id, jobs
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
	if err := s.ctx.Err(); err != nil {
		// A cancelled lease streams nothing more: records finished after a
		// drain deadline or an abandon re-run under the next lease instead
		// of merging as failures.
		return err
	}
	req := RecordsRequest{Worker: s.w.cfg.ID, Lease: s.lease, Offset: s.sent, Records: s.buf}
	var resp RecordsResponse
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		resp, err = s.w.link.records(s.ctx, req)
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

// apiError is a coordinator refusal (a non-2xx reply, or an error from a
// direct call), not a transport fault, so callers treat it as permanent
// rather than retrying.
type apiError struct {
	Status int
	Msg    string
}

func (e *apiError) Error() string {
	return fmt.Sprintf("dist: coordinator replied %d: %s", e.Status, e.Msg)
}

// link is a worker's connection to its coordinator.
type link interface {
	register(ctx context.Context, worker string) (RegisterResponse, error)
	lease(ctx context.Context, worker string) (LeaseResponse, error)
	heartbeat(ctx context.Context, req HeartbeatRequest) (HeartbeatResponse, error)
	records(ctx context.Context, req RecordsRequest) (RecordsResponse, error)
	complete(ctx context.Context, req CompleteRequest) error
	spec(ctx context.Context, campaignID string) (campaign.Spec, error)
	// idle waits after an empty lease until work may be pending (retry
	// is the coordinator's hint); false ends the worker.
	idle(ctx context.Context, retry time.Duration) bool
}

// httpLink is a fleet worker's link: strict JSON envelopes over HTTP.
type httpLink struct {
	base   string
	client *http.Client
}

func (h *httpLink) register(ctx context.Context, worker string) (resp RegisterResponse, err error) {
	err = h.post(ctx, "/v1/dist/register", RegisterRequest{Worker: worker}, &resp, maxControlBytes)
	return resp, err
}

func (h *httpLink) lease(ctx context.Context, worker string) (resp LeaseResponse, err error) {
	err = h.post(ctx, "/v1/dist/lease", LeaseRequest{Worker: worker}, &resp, maxLeaseBytes)
	return resp, err
}

func (h *httpLink) heartbeat(ctx context.Context, req HeartbeatRequest) (resp HeartbeatResponse, err error) {
	err = h.post(ctx, "/v1/dist/heartbeat", req, &resp, maxControlBytes)
	return resp, err
}

func (h *httpLink) records(ctx context.Context, req RecordsRequest) (resp RecordsResponse, err error) {
	err = h.post(ctx, "/v1/dist/records", req, &resp, maxControlBytes)
	return resp, err
}

func (h *httpLink) complete(ctx context.Context, req CompleteRequest) error {
	var resp CompleteResponse
	return h.post(ctx, "/v1/dist/complete", req, &resp, maxControlBytes)
}

// spec fetches a campaign's spec through the strict submission decoder.
func (h *httpLink) spec(ctx context.Context, campaignID string) (campaign.Spec, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		h.base+"/v1/dist/campaigns/"+campaignID+"/spec", nil)
	if err != nil {
		return campaign.Spec{}, err
	}
	resp, err := h.client.Do(req)
	if err != nil {
		return campaign.Spec{}, err
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		return campaign.Spec{}, fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	return campaign.DecodeSpec(io.LimitReader(resp.Body, campaign.MaxSpecBytes))
}

func (h *httpLink) idle(ctx context.Context, retry time.Duration) bool {
	if retry <= 0 {
		retry = time.Second
	}
	return sleepCtx(ctx, retry)
}

// post sends one JSON envelope and strictly decodes the JSON reply.
func (h *httpLink) post(ctx context.Context, path string, in, out any, limit int64) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, h.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := h.client.Do(req)
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

// localLink is an in-process worker's link: direct coordinator calls.
type localLink struct {
	c *Coordinator
	// wake came with the last empty lease; nil once the coordinator drains.
	wake <-chan struct{}
}

func (l *localLink) register(_ context.Context, worker string) (RegisterResponse, error) {
	return l.c.timing(worker), nil
}

func (l *localLink) lease(_ context.Context, worker string) (LeaseResponse, error) {
	resp, wake := l.c.leaseCampaign(worker)
	l.wake = wake
	return resp, nil
}

func (l *localLink) heartbeat(_ context.Context, req HeartbeatRequest) (HeartbeatResponse, error) {
	return l.c.Heartbeat(req), nil
}

func (l *localLink) records(_ context.Context, req RecordsRequest) (RecordsResponse, error) {
	resp, code, err := l.c.MergeRecords(req)
	if err != nil {
		return resp, &apiError{Status: code, Msg: err.Error()}
	}
	return resp, nil
}

func (l *localLink) complete(_ context.Context, req CompleteRequest) error {
	l.c.Complete(req)
	return nil
}

func (l *localLink) spec(_ context.Context, campaignID string) (campaign.Spec, error) {
	spec, ok := l.c.SpecOf(campaignID)
	if !ok {
		return spec, &apiError{Status: http.StatusNotFound, Msg: "unknown campaign"}
	}
	return spec, nil
}

func (l *localLink) idle(ctx context.Context, _ time.Duration) bool {
	if l.wake == nil {
		return false
	}
	select {
	case <-ctx.Done():
		return false
	case <-l.wake:
		return true
	}
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
