// Package dist shards campaign execution across a fleet of worker
// daemons while preserving the byte-identical artifacts a single node
// produces.
//
// One aresd runs as the coordinator: it accepts campaign specs on the
// same content-addressed submission surface as internal/serve, expands
// each spec into its job list, and hands jobs out to registered workers
// in leased batches. Workers execute their leases through the ordinary
// campaign.Runner and stream finished records back with resumable
// offsets; the coordinator merges them into per-campaign slots — one
// slot per expanded job — and, when every slot is filled, finalizes the
// same key-sorted JSONL store and aggregate summary a local run would
// have written.
//
// The fleet protocol is lease + heartbeat + work stealing: a lease that
// misses its heartbeats expires, its unfinished jobs return to the
// pending set, and the next worker to ask re-leases them (a steal). A
// coordinator drain expires every outstanding lease first, so jobs held
// by workers at SIGTERM are persisted to the queue manifest as pending
// rather than dropped. Cross-node bit-identity is a testable contract,
// not an aspiration, because nothing about a record depends on where it
// ran: job seeds derive from the spec (mathx.DeriveSeed streams), slot
// placement derives from the job key, and the final artifact is the
// canonical campaign.SortedBytes encoding.
package dist

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"github.com/ares-cps/ares/internal/campaign"
	"github.com/ares-cps/ares/internal/metrics"
	"github.com/ares-cps/ares/internal/serve"
)

// CoordConfig parameterizes a Coordinator.
type CoordConfig struct {
	// StoreDir holds one campaign artifact file per submitted spec, the
	// finalized sorted artifacts, and the queue manifest. Required.
	StoreDir string
	// LeaseTTL is how long a lease lives without a heartbeat before its
	// jobs are re-leased. Default 30s.
	LeaseTTL time.Duration
	// MaxLease bounds the jobs granted per lease. Default 8.
	MaxLease int
	// Metrics receives the ares_dist_* instruments; nil uses
	// metrics.Default().
	Metrics *metrics.Registry
	// Log receives coordinator log lines; nil discards.
	Log io.Writer
}

func (c *CoordConfig) applyDefaults() {
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 30 * time.Second
	}
	if c.MaxLease <= 0 {
		c.MaxLease = 8
	}
	if c.Metrics == nil {
		c.Metrics = metrics.Default()
	}
	if c.Log == nil {
		c.Log = io.Discard
	}
}

// campaignState is one submitted spec's merge progress.
type campaignState struct {
	id   string
	spec campaign.Spec
	// jobs is the deterministic expansion; index maps key → slot; slots
	// fill with merged records in whatever order workers deliver them.
	jobs  []campaign.Job
	index map[string]int
	slots []*campaign.Record
	// pending holds keys not yet leased or merged; leasedBy tracks which
	// lease currently owns a key; reclaimed marks keys returned by an
	// expired lease, so re-granting them counts as a steal.
	pending   map[string]bool
	leasedBy  map[string]string
	reclaimed map[string]bool
	merged    int
	state     string
	errMsg    string
	summary   *campaign.Summary
	store     *campaign.Store
}

// lease is one granted job batch.
type lease struct {
	id, worker, campaign string
	keys                 []string
	// remaining holds leased keys whose record has not arrived yet.
	remaining map[string]bool
	// next is the next expected record-stream offset (resumable upload).
	next    int
	expires time.Time
}

// Coordinator is the fleet head node. Construct with NewCoordinator,
// mount Handler in an http.Server, call Start, and Shutdown on the way
// out.
type Coordinator struct {
	cfg CoordConfig
	mx  distMetrics

	mu        sync.Mutex
	campaigns map[string]*campaignState
	workers   map[string]bool
	leases    map[string]*lease
	leaseSeq  int
	draining  bool

	stopOnce sync.Once
	stop     chan struct{}
	wg       sync.WaitGroup
}

// NewCoordinator builds a Coordinator, creating StoreDir if needed and
// restoring every unfinished campaign found in its queue manifest — the
// same manifest format internal/serve writes, so a single-node store
// directory can be adopted by a fleet and vice versa.
func NewCoordinator(cfg CoordConfig) (*Coordinator, error) {
	if cfg.StoreDir == "" {
		return nil, errors.New("dist: CoordConfig.StoreDir is required")
	}
	cfg.applyDefaults()
	if err := os.MkdirAll(cfg.StoreDir, 0o755); err != nil {
		return nil, err
	}
	c := &Coordinator{
		cfg:       cfg,
		mx:        newDistMetrics(cfg.Metrics),
		campaigns: make(map[string]*campaignState),
		workers:   make(map[string]bool),
		leases:    make(map[string]*lease),
		stop:      make(chan struct{}),
	}
	pending, err := serve.LoadManifest(serve.ManifestPath(cfg.StoreDir))
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, mj := range pending {
		if _, err := c.restoreLocked(mj.ID, mj.Spec); err != nil {
			return nil, err
		}
	}
	if len(pending) > 0 {
		fmt.Fprintf(cfg.Log, "dist: resumed %d campaign(s) from manifest\n", len(pending))
	}
	return c, nil
}

// Start launches the lease reaper, which reclaims expired leases even
// when no worker traffic arrives to trigger a lazy reap.
func (c *Coordinator) Start() {
	tick := c.cfg.LeaseTTL / 4
	if tick < 10*time.Millisecond {
		tick = 10 * time.Millisecond
	}
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		t := time.NewTicker(tick)
		defer t.Stop()
		for {
			select {
			case <-c.stop:
				return
			case <-t.C:
				c.mu.Lock()
				c.reapLocked(time.Now())
				c.mu.Unlock()
			}
		}
	}()
}

// Shutdown drains the coordinator: submissions and lease grants are
// refused, every outstanding lease is expired so its unfinished jobs
// land back in the pending set, the set of unfinished campaigns is
// persisted to the queue manifest for the next coordinator life, and the
// campaign stores are closed. Records already merged are on disk, so a
// restarted coordinator resumes each campaign mid-merge.
func (c *Coordinator) Shutdown() error {
	c.stopOnce.Do(func() { close(c.stop) })
	c.wg.Wait()

	c.mu.Lock()
	defer c.mu.Unlock()
	c.draining = true
	// The drain-with-active-lease contract: a lease still held (or
	// expiring right now) at SIGTERM must not strand its jobs — they
	// return to pending before the manifest snapshot, so the next life
	// re-leases them instead of waiting for records that will never come.
	for id, l := range c.leases {
		c.releaseLeaseLocked(l, false)
		delete(c.leases, id)
	}
	c.mx.leasesActive.Set(0)
	err := c.persistManifestLocked()
	for _, cs := range c.campaigns {
		if cs.store != nil {
			if cerr := cs.store.Close(); cerr != nil && err == nil {
				err = cerr
			}
			cs.store = nil
		}
	}
	return err
}

// Register adds (or refreshes) a worker and returns the fleet's timing
// contract. Idempotent, and also invoked implicitly by Lease so a worker
// that outlives a coordinator restart re-registers on its next ask.
func (c *Coordinator) Register(workerID string) (RegisterResponse, error) {
	if err := validWorkerID(workerID); err != nil {
		return RegisterResponse{}, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.registerLocked(workerID)
	return RegisterResponse{
		Worker:          workerID,
		LeaseTTLMillis:  c.cfg.LeaseTTL.Milliseconds(),
		HeartbeatMillis: (c.cfg.LeaseTTL / 3).Milliseconds(),
	}, nil
}

func (c *Coordinator) registerLocked(workerID string) {
	if !c.workers[workerID] {
		c.workers[workerID] = true
		c.mx.workersRegistered.Set(int64(len(c.workers)))
		fmt.Fprintf(c.cfg.Log, "dist: worker %s registered (%d total)\n", workerID, len(c.workers))
	}
}

// Lease grants the worker a batch of pending jobs, preferring jobs whose
// shard the worker owns and falling back to any pending job (cross-shard
// pull) so stragglers cannot stall a campaign. An empty-Lease response
// tells the worker to retry later.
func (c *Coordinator) Lease(req LeaseRequest) (LeaseResponse, error) {
	if err := validWorkerID(req.Worker); err != nil {
		return LeaseResponse{}, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	idle := LeaseResponse{RetryMillis: (c.cfg.LeaseTTL / 4).Milliseconds()}
	if c.draining {
		return idle, nil
	}
	c.registerLocked(req.Worker)
	c.reapLocked(time.Now())

	max := req.Max
	if max <= 0 || max > c.cfg.MaxLease {
		max = c.cfg.MaxLease
	}
	cs, keys := c.pickJobsLocked(req.Worker, max)
	if cs == nil {
		return idle, nil
	}
	c.leaseSeq++
	l := &lease{
		id:        fmt.Sprintf("L%06d", c.leaseSeq),
		worker:    req.Worker,
		campaign:  cs.id,
		keys:      keys,
		remaining: make(map[string]bool, len(keys)),
		expires:   time.Now().Add(c.cfg.LeaseTTL),
	}
	for _, k := range keys {
		delete(cs.pending, k)
		cs.leasedBy[k] = l.id
		l.remaining[k] = true
		if cs.reclaimed[k] {
			delete(cs.reclaimed, k)
			c.mx.steals.Inc()
		}
	}
	cs.state = serve.StateRunning
	c.leases[l.id] = l
	c.mx.leasesGranted.Inc()
	c.mx.leasesActive.Set(int64(len(c.leases)))
	fmt.Fprintf(c.cfg.Log, "dist: lease %s → %s: %d job(s) of %s\n", l.id, req.Worker, len(keys), cs.id)
	return LeaseResponse{Lease: l.id, Campaign: cs.id, Keys: keys}, nil
}

// pickJobsLocked chooses up to max pending jobs for a worker: campaigns
// in sorted-ID order, the worker's own shard first (in expansion order),
// then anything pending.
func (c *Coordinator) pickJobsLocked(workerID string, max int) (*campaignState, []string) {
	widx, n := c.workerShardLocked(workerID)
	for _, id := range c.campaignIDsLocked() {
		cs := c.campaigns[id]
		if cs.state != serve.StateQueued && cs.state != serve.StateRunning {
			continue
		}
		if len(cs.pending) == 0 {
			continue
		}
		var own, any []string
		for _, j := range cs.jobs {
			if !cs.pending[j.Key] {
				continue
			}
			if shardOf(cs.id, j.Key, n) == widx {
				if len(own) < max {
					own = append(own, j.Key)
				}
			} else if len(any) < max {
				any = append(any, j.Key)
			}
		}
		if len(own) > 0 {
			return cs, own
		}
		return cs, any
	}
	return nil, nil
}

// workerShardLocked returns the worker's index in the sorted registry and
// the registry size.
func (c *Coordinator) workerShardLocked(workerID string) (idx, n int) {
	ids := make([]string, 0, len(c.workers))
	for id := range c.workers {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for i, id := range ids {
		if id == workerID {
			return i, len(ids)
		}
	}
	return 0, len(ids)
}

func (c *Coordinator) campaignIDsLocked() []string {
	ids := make([]string, 0, len(c.campaigns))
	for id := range c.campaigns {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Heartbeat extends a live lease; a worker whose lease has expired (or
// was never granted) is told to abandon it.
func (c *Coordinator) Heartbeat(req HeartbeatRequest) HeartbeatResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reapLocked(time.Now())
	l, ok := c.leases[req.Lease]
	if !ok || l.worker != req.Worker || c.draining {
		return HeartbeatResponse{Abandon: true}
	}
	l.expires = time.Now().Add(c.cfg.LeaseTTL)
	return HeartbeatResponse{OK: true}
}

// MergeRecords ingests one record batch from a lease's resumable stream.
// A batch whose offset lags the acknowledged position is a retry — the
// overlap is dropped; an offset beyond it is a protocol error.
func (c *Coordinator) MergeRecords(req RecordsRequest) (RecordsResponse, int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reapLocked(time.Now())
	l, ok := c.leases[req.Lease]
	if !ok || l.worker != req.Worker {
		return RecordsResponse{}, http.StatusNotFound, fmt.Errorf("dist: unknown lease %q", req.Lease)
	}
	if req.Offset < 0 || req.Offset > l.next {
		return RecordsResponse{}, http.StatusConflict,
			fmt.Errorf("dist: lease %s offset %d, expected ≤ %d", req.Lease, req.Offset, l.next)
	}
	cs := c.campaigns[l.campaign]
	skip := l.next - req.Offset
	for i, rec := range req.Records {
		if i < skip {
			continue
		}
		if err := c.mergeLocked(cs, l, rec); err != nil {
			return RecordsResponse{}, http.StatusBadRequest, err
		}
		l.next++
	}
	return RecordsResponse{Next: l.next}, http.StatusOK, nil
}

// mergeLocked slots one record. Duplicate deliveries (a slot already
// filled by an earlier lease of the same job) are dropped: job records
// are deterministic in the spec, so first-wins and last-wins are the
// same bytes.
func (c *Coordinator) mergeLocked(cs *campaignState, l *lease, rec campaign.Record) error {
	i, ok := cs.index[rec.Key]
	if !ok {
		return fmt.Errorf("dist: record for unknown job key %q", rec.Key)
	}
	if !l.remaining[rec.Key] {
		// Not part of this lease (or already delivered by it): a protocol
		// violation unless it is a benign duplicate of a filled slot.
		if cs.slots[i] != nil {
			return nil
		}
		return fmt.Errorf("dist: record for key %q outside lease %s", rec.Key, l.id)
	}
	delete(l.remaining, rec.Key)
	if cs.slots[i] != nil {
		return nil
	}
	if err := cs.store.Append(rec); err != nil {
		return err
	}
	r := rec
	cs.slots[i] = &r
	cs.merged++
	delete(cs.pending, rec.Key)
	delete(cs.leasedBy, rec.Key)
	c.mx.recordsMerged.Inc()
	if cs.merged == len(cs.jobs) {
		c.finalizeLocked(cs)
	}
	return nil
}

// Complete retires a fully-streamed lease. Leased-but-undelivered keys
// (a worker bug, or records rejected mid-batch) return to pending.
func (c *Coordinator) Complete(req CompleteRequest) CompleteResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	l, ok := c.leases[req.Lease]
	if !ok || l.worker != req.Worker {
		return CompleteResponse{OK: false}
	}
	c.releaseLeaseLocked(l, false)
	delete(c.leases, req.Lease)
	c.mx.leasesActive.Set(int64(len(c.leases)))
	return CompleteResponse{OK: true}
}

// reapLocked expires overdue leases: their unfinished jobs return to the
// pending set marked reclaimed, so the next grant counts them as stolen.
func (c *Coordinator) reapLocked(now time.Time) {
	for id, l := range c.leases {
		if now.Before(l.expires) {
			continue
		}
		c.mx.leasesExpired.Inc()
		fmt.Fprintf(c.cfg.Log, "dist: lease %s (%s) expired with %d job(s) unfinished\n",
			id, l.worker, len(l.remaining))
		c.releaseLeaseLocked(l, true)
		delete(c.leases, id)
	}
	c.mx.leasesActive.Set(int64(len(c.leases)))
}

// releaseLeaseLocked returns a lease's unfinished jobs to pending;
// reclaimed marks them as steal candidates (lease expiry) or not
// (coordinator drain, worker-reported completion).
func (c *Coordinator) releaseLeaseLocked(l *lease, reclaimed bool) {
	cs, ok := c.campaigns[l.campaign]
	if !ok {
		return
	}
	for k := range l.remaining {
		if cs.leasedBy[k] != l.id {
			continue
		}
		delete(cs.leasedBy, k)
		if i := cs.index[k]; cs.slots[i] == nil {
			cs.pending[k] = true
			if reclaimed {
				cs.reclaimed[k] = true
			}
		}
	}
}

// finalizeLocked closes out a fully-merged campaign: the canonical
// key-sorted artifact is written next to the arrival-order store, the
// aggregate summary is computed, and the campaign leaves the manifest.
func (c *Coordinator) finalizeLocked(cs *campaignState) {
	recs := make([]campaign.Record, 0, len(cs.slots))
	failures := 0
	for _, r := range cs.slots {
		recs = append(recs, *r)
		if r.Status != campaign.StatusOK {
			failures++
		}
	}
	sorted, err := campaign.SortedBytes(recs)
	if err == nil {
		err = campaign.WriteFileAtomic(SortedArtifactPath(c.cfg.StoreDir, cs.id), sorted, 0o644)
	}
	if err != nil {
		cs.state = serve.StateFailed
		cs.errMsg = err.Error()
		c.mx.campaignsFailed.Inc()
		fmt.Fprintf(c.cfg.Log, "dist: campaign %s finalize: %v\n", cs.id, err)
		return
	}
	cs.summary = campaign.Aggregate(summaryName(cs.spec), recs)
	if failures > 0 {
		cs.state = serve.StateFailed
		cs.errMsg = fmt.Sprintf("%d of %d campaign cells failed", failures, len(cs.jobs))
		c.mx.campaignsFailed.Inc()
	} else {
		cs.state = serve.StateDone
		c.mx.campaignsDone.Inc()
	}
	if err := c.persistManifestLocked(); err != nil {
		fmt.Fprintf(c.cfg.Log, "dist: persist manifest: %v\n", err)
	}
	fmt.Fprintf(c.cfg.Log, "dist: campaign %s %s (%d records)\n", cs.id, cs.state, len(recs))
}

// Submit routes one decoded spec: dedup onto an in-flight campaign,
// answer from a finished one, retry a failed one, or adopt/create a
// store. The int is the HTTP status the handler answers with.
func (c *Coordinator) Submit(spec campaign.Spec) (serve.JobStatus, int) {
	id := serve.SpecHash(spec)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.draining {
		return serve.JobStatus{}, http.StatusServiceUnavailable
	}
	cs, ok := c.campaigns[id]
	if !ok {
		var err error
		if cs, err = c.restoreLocked(id, spec); err != nil {
			fmt.Fprintf(c.cfg.Log, "dist: campaign %s: %v\n", id, err)
			return serve.JobStatus{}, http.StatusInternalServerError
		}
		if err := c.persistManifestLocked(); err != nil {
			fmt.Fprintf(c.cfg.Log, "dist: persist manifest: %v\n", err)
		}
	}
	switch cs.state {
	case serve.StateDone:
		return c.statusLocked(cs), http.StatusOK
	case serve.StateFailed:
		c.retryLocked(cs)
		return c.statusLocked(cs), http.StatusAccepted
	default:
		return c.statusLocked(cs), http.StatusAccepted
	}
}

// restoreLocked builds a campaign's merge state over its (possibly
// pre-existing) store: slots prefill from completed records — only ok
// records count, so failed cells re-run, exactly like a local resume —
// and a store that already holds every record finalizes immediately.
func (c *Coordinator) restoreLocked(id string, spec campaign.Spec) (*campaignState, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	store, err := campaign.OpenStore(c.storePath(id))
	if err != nil {
		return nil, err
	}
	jobs := spec.Expand()
	cs := &campaignState{
		id:        id,
		spec:      spec,
		jobs:      jobs,
		index:     make(map[string]int, len(jobs)),
		slots:     make([]*campaign.Record, len(jobs)),
		pending:   make(map[string]bool, len(jobs)),
		leasedBy:  make(map[string]string),
		reclaimed: make(map[string]bool),
		state:     serve.StateQueued,
		store:     store,
	}
	for i, j := range jobs {
		cs.index[j.Key] = i
	}
	// Last record per key wins (a failed cell retried on a previous
	// life); only ok records prefill.
	for _, rec := range store.Records() {
		i, ok := cs.index[rec.Key]
		if !ok || rec.Status != campaign.StatusOK {
			continue
		}
		if cs.slots[i] == nil {
			cs.merged++
		}
		r := rec
		cs.slots[i] = &r
	}
	for _, j := range jobs {
		if cs.slots[cs.index[j.Key]] == nil {
			cs.pending[j.Key] = true
		}
	}
	c.campaigns[id] = cs
	if cs.merged == len(cs.jobs) && len(cs.jobs) > 0 {
		c.finalizeLocked(cs)
	}
	return cs, nil
}

// retryLocked re-opens a failed campaign: cells whose record is not ok
// return to pending, mirroring what resubmitting a failed spec does on a
// single node.
func (c *Coordinator) retryLocked(cs *campaignState) {
	for i, r := range cs.slots {
		if r == nil || r.Status == campaign.StatusOK {
			continue
		}
		cs.slots[i] = nil
		cs.merged--
		cs.pending[cs.jobs[i].Key] = true
	}
	cs.state = serve.StateQueued
	cs.errMsg = ""
	cs.summary = nil
	if err := c.persistManifestLocked(); err != nil {
		fmt.Fprintf(c.cfg.Log, "dist: persist manifest: %v\n", err)
	}
}

// Status returns the wire status of one campaign.
func (c *Coordinator) Status(id string) (serve.JobStatus, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cs, ok := c.campaigns[id]
	if !ok {
		return serve.JobStatus{}, false
	}
	return c.statusLocked(cs), true
}

func (c *Coordinator) statusLocked(cs *campaignState) serve.JobStatus {
	st := serve.JobStatus{ID: cs.id, State: cs.state, Error: cs.errMsg, Events: cs.merged}
	if cs.state == serve.StateDone {
		st.ResultID = cs.id
	}
	return st
}

// Result returns the aggregated report of a finished campaign: from the
// finalized summary when this life merged it, otherwise recomputed from
// the on-disk store (the restart path). The int is an HTTP status.
func (c *Coordinator) Result(id string) (*serve.Result, int) {
	c.mu.Lock()
	cs, known := c.campaigns[id]
	var spec campaign.Spec
	if known {
		spec = cs.spec
		if cs.summary != nil {
			res := &serve.Result{ID: id, Summary: cs.summary}
			c.mu.Unlock()
			return res, http.StatusOK
		}
		if cs.state == serve.StateQueued || cs.state == serve.StateRunning {
			c.mu.Unlock()
			return nil, http.StatusConflict
		}
	}
	c.mu.Unlock()
	recs, err := campaign.ReadRecords(c.storePath(id))
	if err != nil || len(recs) == 0 {
		return nil, http.StatusNotFound
	}
	return &serve.Result{ID: id, Summary: campaign.Aggregate(summaryName(spec), recs)}, http.StatusOK
}

// SpecOf returns a campaign's spec so a worker can expand the same job
// list locally.
func (c *Coordinator) SpecOf(id string) (campaign.Spec, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cs, ok := c.campaigns[id]
	if !ok {
		return campaign.Spec{}, false
	}
	return cs.spec, true
}

func (c *Coordinator) storePath(id string) string {
	return filepath.Join(c.cfg.StoreDir, id+".jsonl")
}

// SortedArtifactPath is where a coordinator finalizes campaign id's
// canonical key-sorted JSONL artifact.
func SortedArtifactPath(dir, id string) string {
	return filepath.Join(dir, id+".sorted.jsonl")
}

// persistManifestLocked mirrors the set of unfinished campaigns to the
// queue manifest (the shared serve format, atomically written).
func (c *Coordinator) persistManifestLocked() error {
	pending := make([]serve.ManifestJob, 0, len(c.campaigns))
	for _, cs := range c.campaigns {
		if cs.state == serve.StateQueued || cs.state == serve.StateRunning {
			pending = append(pending, serve.ManifestJob{ID: cs.id, Spec: cs.spec})
		}
	}
	return serve.WriteManifest(serve.ManifestPath(c.cfg.StoreDir), pending)
}

func summaryName(spec campaign.Spec) string {
	if spec.Name != "" {
		return spec.Name
	}
	return "aresd"
}
