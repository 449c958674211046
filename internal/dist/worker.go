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
	// ID is the worker's stable identity; empty derives host-pid. It names
	// the worker's leases; any worker may lease any job.
	ID string
	// Jobs is the local runner pool size; <=0 uses the process budget.
	Jobs int
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
// them through the ordinary campaign runner, and posts each record back
// as its job finishes. A fleet Worker talks to a remote coordinator over
// HTTP and holds no campaign state beyond the job list of the campaign it
// last leased from — kill one mid-lease and the coordinator re-leases its
// unfinished jobs after the lease TTL. An in-process Worker (Coordinator.InProcessWorker) calls
// its coordinator's methods directly.
type Worker struct {
	cfg  WorkerConfig
	link link
	// budget, when set, sizes each lease's runner pool with a fair share
	// drawn per lease; otherwise cfg.Jobs does.
	budget *par.Budget
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
// waiting campaign and runs it on a fair share of budget. Like a fleet
// worker, an idle one parks on the coordinator's wake and leases as soon
// as a submission makes jobs pending. Run returns once
// c drains. A nil exec uses the built-in ARES executor.
func (c *Coordinator) InProcessWorker(id string, exec campaign.Executor, budget *par.Budget) *Worker {
	if exec == nil {
		exec = campaign.NewExecutor()
	}
	return &Worker{
		cfg:    WorkerConfig{ID: id, Execute: exec, Log: c.cfg.Log},
		link:   &localLink{c: c},
		budget: budget,
	}
}

// ID returns the worker's effective identity.
func (w *Worker) ID() string { return w.cfg.ID }

// Run loops lease → execute → stream until ctx is cancelled
// (or, in process, the coordinator drains); the first lease registers the
// worker. Transient coordinator failures (not up yet, restart mid-fleet)
// are retried; a lease request the coordinator refuses as bad (400) ends
// Run with that error, and a cancelled ctx returns nil.
func (w *Worker) Run(ctx context.Context) error {
	req := LeaseRequest{Worker: w.cfg.ID, Slots: par.Workers(w.cfg.Jobs)}
	for ctx.Err() == nil {
		grant, err := w.link.lease(ctx, req)
		if err != nil {
			var ae *apiError
			if errors.As(err, &ae) && ae.Status == http.StatusBadRequest {
				return err // the coordinator refused us: not transient
			}
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
			if !w.link.wait(ctx, WaitRequest{Worker: w.cfg.ID, Wake: grant.Wake}) {
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

// runLease executes one granted batch: resolve keys against the locally
// expanded spec, run them on the campaign runner while a heartbeat
// goroutine keeps the lease alive and each record streams as its job
// finishes; the coordinator ends the lease with its last record. An
// Abandon heartbeat reply cancels the lease context, so in-flight jobs
// wind down instead of streaming to a lease the coordinator already
// re-granted.
func (w *Worker) runLease(ctx context.Context, grant LeaseResponse) error {
	jobsByKey, err := w.campaignJobs(grant)
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

	hb := max(time.Duration(grant.HeartbeatMillis)*time.Millisecond, 10*time.Millisecond)
	leaseCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var hbWG sync.WaitGroup
	hbWG.Add(1)
	go func() {
		defer hbWG.Done()
		t := time.NewTicker(hb)
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
	_, err = runner.RunJobs(leaseCtx, jobs, sink)
	cancel()
	hbWG.Wait()
	return err
}

// campaignJobs returns the grant's campaign's jobs keyed by job key,
// expanding the spec the lease carries when the campaign differs from the
// last one leased. The spec must hash back to the campaign ID — a worker
// never executes jobs whose provenance it cannot recompute.
func (w *Worker) campaignJobs(grant LeaseResponse) (map[string]campaign.Job, error) {
	id := grant.Campaign
	if w.specID == id {
		return w.jobs, nil
	}
	if grant.Spec == nil {
		return nil, fmt.Errorf("dist: lease %s carries no spec for campaign %s", grant.Lease, id)
	}
	if got := campaign.SpecHash(*grant.Spec); got != id {
		return nil, fmt.Errorf("dist: spec leased for campaign %s hashes to %s", id, got)
	}
	jobs := make(map[string]campaign.Job)
	for _, j := range grant.Spec.Expand() {
		jobs[j.Key] = j
	}
	w.specID, w.jobs = id, jobs
	return jobs, nil
}

// streamSink is the worker-side campaign.RecordSink: it posts each
// finished record to the coordinator at once, so a killed worker loses
// only the jobs it was running. A transport failure retries the post —
// the coordinator drops a record whose slot is already filled — so a
// record is merged exactly once however flaky the link.
type streamSink struct {
	w     *Worker
	ctx   context.Context
	lease string
}

// Completed always reports false: the coordinator already filtered
// completed jobs out of the lease.
func (s *streamSink) Completed(string) bool { return false }

// Append posts one record.
func (s *streamSink) Append(rec campaign.Record) error {
	if err := s.ctx.Err(); err != nil {
		// A cancelled lease streams nothing more: records finished after a
		// drain deadline or an abandon re-run under the next lease instead
		// of merging as failures.
		return err
	}
	req := RecordsRequest{Worker: s.w.cfg.ID, Lease: s.lease, Records: []campaign.Record{rec}}
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		if attempt > 0 && !sleepCtx(s.ctx, 100*time.Millisecond) {
			return err
		}
		err = s.w.link.records(s.ctx, req)
		var ae *apiError
		switch {
		case err == nil:
			return nil
		case errors.As(err, &ae) && ae.Status == http.StatusNotFound && attempt > 0:
			// The failed attempt may have merged the lease's last record,
			// which ended the lease; if it did not, the lease is gone and
			// another worker flies the cell.
			return nil
		case errors.As(err, &ae):
			return err // coordinator refused the record: lease lost or protocol error
		}
	}
	return err
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
	lease(ctx context.Context, req LeaseRequest) (LeaseResponse, error)
	heartbeat(ctx context.Context, req HeartbeatRequest) (HeartbeatResponse, error)
	records(ctx context.Context, req RecordsRequest) error
	// wait parks after an empty lease until work may be pending (see
	// Coordinator.wait); false ends the worker.
	wait(ctx context.Context, req WaitRequest) bool
}

// httpLink is a fleet worker's link: strict JSON envelopes over HTTP.
type httpLink struct {
	base   string
	client *http.Client
}

func (h *httpLink) lease(ctx context.Context, req LeaseRequest) (resp LeaseResponse, err error) {
	err = h.post(ctx, "/v1/dist/lease", req, &resp, maxLeaseBytes)
	return resp, err
}

func (h *httpLink) heartbeat(ctx context.Context, req HeartbeatRequest) (resp HeartbeatResponse, err error) {
	err = h.post(ctx, "/v1/dist/heartbeat", req, &resp, maxControlBytes)
	return resp, err
}

func (h *httpLink) records(ctx context.Context, req RecordsRequest) error {
	return h.post(ctx, "/v1/dist/records", req, &struct{}{}, maxControlBytes)
}

// wait parks in the coordinator. A draining or unreachable coordinator
// answers at once, so the worker backs off a second rather than spin, and
// leases again once the coordinator is back.
func (h *httpLink) wait(ctx context.Context, req WaitRequest) bool {
	var resp WaitResponse
	if err := h.post(ctx, "/v1/dist/wait", req, &resp, maxControlBytes); err != nil || resp.Draining {
		return sleepCtx(ctx, time.Second)
	}
	return true
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
}

func (l *localLink) lease(_ context.Context, req LeaseRequest) (LeaseResponse, error) {
	return l.c.leaseCampaign(req.Worker), nil
}

func (l *localLink) heartbeat(_ context.Context, req HeartbeatRequest) (HeartbeatResponse, error) {
	return l.c.Heartbeat(req), nil
}

func (l *localLink) records(_ context.Context, req RecordsRequest) error {
	if code, err := l.c.MergeRecords(req); err != nil {
		return &apiError{Status: code, Msg: err.Error()}
	}
	return nil
}

// wait ends the worker once the coordinator drains.
func (l *localLink) wait(ctx context.Context, req WaitRequest) bool {
	return !l.c.wait(ctx, req.Wake)
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
