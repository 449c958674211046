// Package dist is ARES's one job lifecycle: a content-addressed campaign
// coordinator whose workers run in the same process (single-node aresd,
// via internal/serve) or on other machines (aresd -coordinator / -worker),
// with byte-identical artifacts either way.
//
// The coordinator accepts campaign specs keyed by their canonical hash
// (campaign.SpecHash): identical in-flight submissions collapse onto one
// campaign, finished ones answer from a result cache, failed ones retry.
// Each campaign expands into its job list and is handed out to workers in
// leased batches. Workers execute their leases through the ordinary
// campaign.Runner and stream finished records back with resumable
// offsets; the coordinator merges them into per-campaign slots — one
// slot per expanded job — appends each to the campaign's JSONL store,
// logs it to the campaign's SSE event log and, when every slot is filled,
// finalizes the same key-sorted JSONL artifact and aggregate summary a
// local run would have written. The set of unfinished campaigns is
// mirrored to an atomically-written queue manifest, so a restarted
// coordinator resumes each one mid-merge.
//
// The fleet protocol is lease + heartbeat + work stealing: a lease that
// misses its heartbeats expires, its unfinished jobs return to the
// pending set, and the next worker to ask re-leases them (a steal). A
// coordinator shutdown releases every outstanding lease first, so jobs
// held by workers at SIGTERM are persisted to the queue manifest as
// pending rather than dropped. Cross-node bit-identity is a testable
// contract, not an aspiration, because nothing about a record depends on
// where it ran: job seeds derive from the spec (mathx.DeriveSeed
// streams), slot placement derives from the job key, and the final
// artifact is the canonical campaign.SortedBytes encoding.
package dist

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"time"

	"github.com/ares-cps/ares/internal/campaign"
	"github.com/ares-cps/ares/internal/metrics"
)

// Campaign states reported by GET /v1/jobs/{id}.
const (
	StateQueued  = "queued"
	StateRunning = "running"
	StateDone    = "done"
	StateFailed  = "failed"
)

// JobStatus is the wire form of one campaign.
type JobStatus struct {
	ID    string `json:"id"`
	State string `json:"state"`
	// ResultID is set once the campaign is done; it equals ID (results
	// are content-addressed by the same spec hash).
	ResultID string `json:"result_id,omitempty"`
	Error    string `json:"error,omitempty"`
	// Events is the number of lines in the campaign's event log so far:
	// state changes plus one line per merged record.
	Events int `json:"events"`
}

// Result is the aggregated report of one finished campaign.
type Result struct {
	ID      string            `json:"id"`
	Summary *campaign.Summary `json:"summary"`
}

// CoordConfig parameterizes a Coordinator.
type CoordConfig struct {
	// StoreDir holds one campaign artifact file per submitted spec, the
	// finalized sorted artifacts, and the queue manifest. Required.
	StoreDir string
	// LeaseTTL is how long a lease lives without a heartbeat before its
	// jobs are re-leased. Default 30s.
	LeaseTTL time.Duration
	// MaxLease bounds the jobs granted per fleet lease. Default 8.
	// In-process workers always lease a whole campaign.
	MaxLease int
	// Metrics receives the ares_serve_* and ares_dist_* instruments; nil
	// uses metrics.Default().
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

// campaignState is one submitted spec's lifecycle. The merge state (jobs
// through store) exists only while the campaign is unfinished and has
// been leased: loadLocked builds it from the campaign's store and
// closeOutLocked drops it and closes the store, so a finished campaign
// costs its ID, spec and event log, and its summary lives in the result
// cache.
type campaignState struct {
	id      string
	spec    campaign.Spec
	state   string
	errMsg  string
	events  *eventLog
	started time.Time // first lease grant

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
	store     *campaign.Store
}

// unload drops cs's merge state and closes its store.
func (cs *campaignState) unload() error {
	if cs.store == nil {
		return nil
	}
	err := cs.store.Close()
	cs.jobs, cs.index, cs.slots, cs.merged, cs.store = nil, nil, nil, 0, nil
	cs.pending, cs.leasedBy, cs.reclaimed = nil, nil, nil
	return err
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

// Coordinator owns every campaign's lifecycle. Construct with
// NewCoordinator, mount Handler (fleet) or ClientMux (single node) in an
// http.Server, call Start, and Shutdown on the way out.
type Coordinator struct {
	cfg CoordConfig
	mx  coordMetrics

	mu        sync.Mutex
	campaigns map[string]*campaignState
	// open holds the unfinished campaigns in admission order: leases
	// serve them first come, first served, and the manifest mirrors them.
	open     []*campaignState
	cache    *lru
	workers  map[string]bool
	leases   map[string]*lease
	leaseSeq int
	draining bool
	// wake is closed, and replaced, whenever jobs become pending or the
	// coordinator drains, so idle in-process workers react at once.
	wake chan struct{}

	stopOnce sync.Once
	stop     chan struct{}
	wg       sync.WaitGroup
}

// NewCoordinator builds a Coordinator, creating StoreDir if needed and
// re-queueing every unfinished campaign found in its queue manifest (a
// previous life's drain or crash leftovers). Its result cache holds 128
// summaries until SetCacheSize says otherwise.
func NewCoordinator(cfg CoordConfig) (*Coordinator, error) {
	if cfg.StoreDir == "" {
		return nil, errors.New("dist: CoordConfig.StoreDir is required")
	}
	cfg.applyDefaults()
	if err := os.MkdirAll(cfg.StoreDir, 0o755); err != nil {
		return nil, err
	}
	pending, err := LoadManifest(ManifestPath(cfg.StoreDir))
	if err != nil {
		return nil, err
	}
	c := &Coordinator{
		cfg:       cfg,
		mx:        newCoordMetrics(cfg.Metrics),
		campaigns: make(map[string]*campaignState),
		cache:     newLRU(128),
		workers:   make(map[string]bool),
		leases:    make(map[string]*lease),
		wake:      make(chan struct{}),
		stop:      make(chan struct{}),
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, mj := range pending {
		if err := mj.Spec.Validate(); err != nil {
			return nil, fmt.Errorf("dist: manifest campaign %s: %w", mj.ID, err)
		}
		cs := &campaignState{id: mj.ID, spec: mj.Spec, events: newEventLog()}
		cs.events.Append("state: queued (resumed from manifest)")
		c.campaigns[cs.id] = cs
		c.enqueueLocked(cs)
	}
	if len(pending) > 0 {
		fmt.Fprintf(cfg.Log, "dist: resumed %d campaign(s) from manifest\n", len(pending))
	}
	return c, nil
}

// SetCacheSize bounds the result cache at n finished summaries (a
// single-node daemon sizes it from its Config). Call it before serving.
func (c *Coordinator) SetCacheSize(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cache = newLRU(n)
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

// Drain stops admitting submissions and granting leases, and wakes idle
// in-process workers so they exit. Leases already granted keep streaming
// records, so a graceful drain lets them finish; Shutdown drains too.
func (c *Coordinator) Drain() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.draining = true
	c.kickLocked()
}

// Shutdown drains the coordinator, releases every outstanding lease so
// its unfinished jobs land back in the pending set, persists the set of
// unfinished campaigns to the queue manifest for the next life, and
// closes the campaign stores. Records already merged are on disk, so a
// restarted coordinator resumes each campaign mid-merge.
func (c *Coordinator) Shutdown() error {
	c.Drain()
	c.stopOnce.Do(func() { close(c.stop) })
	c.wg.Wait()

	c.mu.Lock()
	defer c.mu.Unlock()
	// The drain-with-active-lease contract: a lease still held at SIGTERM
	// must not strand its jobs — they return to pending before the
	// manifest snapshot, so the next life re-leases them instead of
	// waiting for records that will never come. Heartbeats for a
	// released lease answer abandon.
	for id, l := range c.leases {
		c.releaseLeaseLocked(l, false)
		delete(c.leases, id)
	}
	c.mx.leasesActive.Set(0)
	err := c.persistManifestLocked()
	for _, cs := range c.open {
		if cerr := cs.unload(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}

// Register adds (or refreshes) a fleet worker and returns the timing
// contract. Idempotent, and also invoked implicitly by Lease so a worker
// that outlives a coordinator restart re-registers on its next ask.
func (c *Coordinator) Register(workerID string) (RegisterResponse, error) {
	if err := validWorkerID(workerID); err != nil {
		return RegisterResponse{}, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.registerLocked(workerID)
	return c.timing(workerID), nil
}

// timing is the lease contract every worker, fleet or in-process, gets.
func (c *Coordinator) timing(workerID string) RegisterResponse {
	return RegisterResponse{
		Worker:          workerID,
		LeaseTTLMillis:  c.cfg.LeaseTTL.Milliseconds(),
		HeartbeatMillis: (c.cfg.LeaseTTL / 3).Milliseconds(),
	}
}

func (c *Coordinator) registerLocked(workerID string) {
	if !c.workers[workerID] {
		c.workers[workerID] = true
		c.mx.workersRegistered.Set(int64(len(c.workers)))
		fmt.Fprintf(c.cfg.Log, "dist: worker %s registered (%d total)\n", workerID, len(c.workers))
	}
}

// Lease grants a fleet worker a batch of pending jobs, preferring jobs
// whose shard the worker owns. An empty-Lease response tells the worker
// to retry later.
func (c *Coordinator) Lease(req LeaseRequest) (LeaseResponse, error) {
	if err := validWorkerID(req.Worker); err != nil {
		return LeaseResponse{}, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.draining {
		return LeaseResponse{RetryMillis: (c.cfg.LeaseTTL / 4).Milliseconds()}, nil
	}
	c.registerLocked(req.Worker)
	max := req.Max
	if max <= 0 || max > c.cfg.MaxLease {
		max = c.cfg.MaxLease
	}
	return c.leaseLocked(req.Worker, max, true), nil
}

// leaseCampaign is Lease for an in-process worker: it grants every
// pending job of the oldest campaign with pending work, ignoring shards.
// With nothing to grant it also returns a channel that closes when jobs
// next become pending — or nil once the coordinator drains.
func (c *Coordinator) leaseCampaign(workerID string) (LeaseResponse, <-chan struct{}) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.draining {
		return LeaseResponse{}, nil
	}
	return c.leaseLocked(workerID, math.MaxInt, false), c.wake
}

// leaseLocked grants up to max pending jobs of one campaign.
func (c *Coordinator) leaseLocked(workerID string, max int, sharded bool) LeaseResponse {
	c.reapLocked(time.Now())
	cs, keys := c.pickJobsLocked(workerID, max, sharded)
	if cs == nil {
		return LeaseResponse{RetryMillis: (c.cfg.LeaseTTL / 4).Milliseconds()}
	}
	c.leaseSeq++
	l := &lease{
		id:        fmt.Sprintf("L%06d", c.leaseSeq),
		worker:    workerID,
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
	if cs.state == StateQueued {
		cs.state, cs.started = StateRunning, time.Now()
		cs.events.Append("state: running")
		c.mx.inflight.Inc()
		c.mx.queueDepth.Set(int64(c.queuedLocked()))
	}
	c.leases[l.id] = l
	c.mx.leasesGranted.Inc()
	c.mx.leasesActive.Set(int64(len(c.leases)))
	fmt.Fprintf(c.cfg.Log, "dist: lease %s → %s: %d job(s) of %s\n", l.id, workerID, len(keys), cs.id)
	return LeaseResponse{Lease: l.id, Campaign: cs.id, Keys: keys}
}

// pickJobsLocked chooses up to max pending jobs of the oldest campaign
// with pending work, in expansion order. A sharded pick takes the
// worker's own shard first and falls back to any pending job (cross-shard
// pull) so stragglers cannot stall a campaign.
func (c *Coordinator) pickJobsLocked(workerID string, max int, sharded bool) (*campaignState, []string) {
	widx, n := 0, 1
	if sharded {
		widx, n = c.workerShardLocked(workerID)
	}
	// Loading can finalize or fail a campaign, which removes it from open.
	for _, cs := range slices.Clone(c.open) {
		if err := c.loadLocked(cs); err != nil {
			c.closeOutLocked(cs, StateFailed, err.Error())
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

// Heartbeat extends a live lease; a worker whose lease has expired, was
// released by Shutdown, or was never granted is told to abandon it.
func (c *Coordinator) Heartbeat(req HeartbeatRequest) HeartbeatResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reapLocked(time.Now())
	l, ok := c.leases[req.Lease]
	if !ok || l.worker != req.Worker {
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
	cs.events.Append(campaign.ProgressLine(cs.merged, len(cs.jobs), rec))
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
	returned := false
	for k := range l.remaining {
		if cs.leasedBy[k] != l.id {
			continue
		}
		delete(cs.leasedBy, k)
		if i := cs.index[k]; cs.slots[i] == nil {
			cs.pending[k] = true
			returned = true
			if reclaimed {
				cs.reclaimed[k] = true
			}
		}
	}
	if returned {
		c.kickLocked()
	}
}

// Submit is Admit with no bound on queued campaigns.
func (c *Coordinator) Submit(spec campaign.Spec) (JobStatus, int) {
	return c.Admit(spec, 0)
}

// Admit routes one decoded spec and returns the HTTP status to answer
// with: 200 for a done campaign (a cache hit, including a store completed
// in an earlier life), 202 for a dedup onto a queued or running campaign,
// 202 for a new campaign or a retry of a failed one — unless queueDepth >
// 0 and that many campaigns already wait for their first lease (429) —
// and 503 while draining. Dedups and cache hits are never refused.
func (c *Coordinator) Admit(spec campaign.Spec, queueDepth int) (JobStatus, int) {
	id := campaign.SpecHash(spec)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.draining {
		return JobStatus{}, http.StatusServiceUnavailable
	}
	cs, known := c.campaigns[id]
	switch {
	case known && cs.state == StateDone:
		c.mx.cacheHits.Inc()
		return c.statusLocked(cs), http.StatusOK
	case known && cs.state != StateFailed:
		c.mx.deduped.Inc()
		return c.statusLocked(cs), http.StatusAccepted
	case !known:
		cs = &campaignState{id: id, spec: spec, events: newEventLog()}
		if _, err := os.Stat(c.storePath(id)); err == nil {
			if err := c.loadLocked(cs); err != nil {
				fmt.Fprintf(c.cfg.Log, "dist: campaign %s: %v\n", id, err)
				return JobStatus{}, http.StatusInternalServerError
			}
			if cs.state == StateDone {
				c.campaigns[id] = cs
				c.mx.cacheHits.Inc()
				return c.statusLocked(cs), http.StatusOK
			}
		}
		c.mx.cacheMisses.Inc()
	}
	if queueDepth > 0 && c.queuedLocked() >= queueDepth {
		_ = cs.unload() // best-effort: nothing was appended; the refusal is the answer
		c.mx.rejected.Inc()
		return JobStatus{}, http.StatusTooManyRequests
	}
	if known {
		// A retry re-runs the cells whose record is not ok: the store,
		// closed at finalize, reopens when the campaign is next leased.
		cs.events.Reopen()
		cs.events.Append("state: queued (retry)")
	} else {
		c.campaigns[id] = cs
		cs.events.Append("state: queued")
	}
	c.mx.accepted.Inc()
	c.enqueueLocked(cs)
	if err := c.persistManifestLocked(); err != nil {
		fmt.Fprintf(c.cfg.Log, "dist: persist manifest: %v\n", err)
	}
	return c.statusLocked(cs), http.StatusAccepted
}

// enqueueLocked queues cs for its first lease and wakes idle workers.
func (c *Coordinator) enqueueLocked(cs *campaignState) {
	cs.state, cs.errMsg = StateQueued, ""
	c.open = append(c.open, cs)
	c.mx.queueDepth.Set(int64(c.queuedLocked()))
	c.kickLocked()
}

// kickLocked wakes every in-process worker waiting for work.
func (c *Coordinator) kickLocked() {
	close(c.wake)
	c.wake = make(chan struct{})
}

// queuedLocked counts the campaigns waiting for their first lease.
func (c *Coordinator) queuedLocked() int {
	n := 0
	for _, cs := range c.open {
		if cs.state == StateQueued {
			n++
		}
	}
	return n
}

// loadLocked builds cs's merge state over its (possibly pre-existing)
// store unless it is already built: slots prefill from completed records
// — only ok records count, so failed cells re-run, exactly like a local
// resume — and a store that already holds every record finalizes at once.
func (c *Coordinator) loadLocked(cs *campaignState) error {
	if cs.store != nil {
		return nil
	}
	store, err := campaign.OpenStore(c.storePath(cs.id))
	if err != nil {
		return err
	}
	jobs := cs.spec.Expand()
	cs.jobs, cs.store, cs.merged = jobs, store, 0
	cs.index = make(map[string]int, len(jobs))
	cs.slots = make([]*campaign.Record, len(jobs))
	cs.pending = make(map[string]bool, len(jobs))
	cs.leasedBy = make(map[string]string)
	cs.reclaimed = make(map[string]bool)
	for i, j := range jobs {
		cs.index[j.Key] = i
	}
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
	for i, j := range jobs {
		if cs.slots[i] == nil {
			cs.pending[j.Key] = true
		}
	}
	if cs.merged == len(cs.jobs) && len(cs.jobs) > 0 {
		c.finalizeLocked(cs)
	}
	return nil
}

// finalizeLocked closes out a fully-merged campaign: the canonical
// key-sorted artifact is written next to the arrival-order store, and a
// clean campaign's aggregate summary enters the result cache.
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
	switch {
	case err != nil:
		c.closeOutLocked(cs, StateFailed, "finalize: "+err.Error())
	case failures > 0:
		c.closeOutLocked(cs, StateFailed, fmt.Sprintf("%d of %d campaign cells failed", failures, len(recs)))
	default:
		c.closeOutLocked(cs, StateDone, "")
		if cs.state == StateDone {
			c.cache.Add(cs.id, &Result{ID: cs.id, Summary: campaign.Aggregate(summaryName(cs.spec), recs)})
		}
	}
}

// closeOutLocked moves cs to a terminal state: its store closes and its
// merge state is dropped (a failure to close fails a done campaign), it
// leaves the lease queue and the manifest, and SSE subscribers get the
// final event.
func (c *Coordinator) closeOutLocked(cs *campaignState, state, errMsg string) {
	if err := cs.unload(); err != nil && state == StateDone {
		state, errMsg = StateFailed, "close store: "+err.Error()
	}
	if cs.state == StateRunning {
		c.mx.inflight.Dec()
		c.mx.jobSeconds.Observe(time.Since(cs.started).Seconds())
	}
	cs.state, cs.errMsg = state, errMsg
	if state == StateDone {
		c.mx.completed.Inc()
	} else {
		c.mx.failed.Inc()
	}
	c.open = slices.DeleteFunc(c.open, func(o *campaignState) bool { return o == cs })
	c.mx.queueDepth.Set(int64(c.queuedLocked()))
	cs.events.Close(state)
	if err := c.persistManifestLocked(); err != nil {
		fmt.Fprintf(c.cfg.Log, "dist: persist manifest: %v\n", err)
	}
	if errMsg != "" {
		state += ": " + errMsg
	}
	fmt.Fprintf(c.cfg.Log, "dist: campaign %s %s\n", cs.id, state)
}

// Status returns the wire status of one campaign.
func (c *Coordinator) Status(id string) (JobStatus, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cs, ok := c.campaigns[id]
	if !ok {
		return JobStatus{}, false
	}
	return c.statusLocked(cs), true
}

func (c *Coordinator) statusLocked(cs *campaignState) JobStatus {
	st := JobStatus{ID: cs.id, State: cs.state, Error: cs.errMsg, Events: cs.events.Len()}
	if cs.state == StateDone {
		st.ResultID = cs.id
	}
	return st
}

// Result returns the aggregated report of a finished campaign: from the
// result cache, otherwise recomputed from the on-disk store (the restart
// and eviction paths). The int is an HTTP status: 200, 404 (unknown), or
// 409 (the campaign exists but has not finished).
func (c *Coordinator) Result(id string) (*Result, int) {
	c.mu.Lock()
	cs, known := c.campaigns[id]
	if known && (cs.state == StateQueued || cs.state == StateRunning) {
		c.mu.Unlock()
		return nil, http.StatusConflict
	}
	res, hit := c.cache.Get(id)
	var spec campaign.Spec
	if known {
		spec = cs.spec
	}
	if hit {
		c.mx.cacheHits.Inc()
	} else {
		c.mx.cacheMisses.Inc()
	}
	c.mu.Unlock()
	if hit {
		return res, http.StatusOK
	}
	recs, err := campaign.ReadRecords(c.storePath(id))
	if err != nil || len(recs) == 0 {
		return nil, http.StatusNotFound
	}
	res = &Result{ID: id, Summary: campaign.Aggregate(summaryName(spec), recs)}
	// Only clean summaries are cached: a failed campaign may be retried.
	if res.Summary.Failures == 0 {
		c.mu.Lock()
		c.cache.Add(id, res)
		c.mu.Unlock()
	}
	return res, http.StatusOK
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

// eventsOf returns a campaign's event log for SSE streaming.
func (c *Coordinator) eventsOf(id string) (*eventLog, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cs, ok := c.campaigns[id]
	if !ok {
		return nil, false
	}
	return cs.events, true
}

func (c *Coordinator) storePath(id string) string {
	return filepath.Join(c.cfg.StoreDir, id+".jsonl")
}

// SortedArtifactPath is where a coordinator finalizes campaign id's
// canonical key-sorted JSONL artifact.
func SortedArtifactPath(dir, id string) string {
	return filepath.Join(dir, id+".sorted.jsonl")
}

func summaryName(spec campaign.Spec) string {
	if spec.Name != "" {
		return spec.Name
	}
	return "aresd"
}

// ManifestJob is one entry of the persisted queue manifest: an
// unfinished campaign and its spec.
type ManifestJob struct {
	ID   string        `json:"id"`
	Spec campaign.Spec `json:"spec"`
}

// ManifestPath returns the queue-manifest path inside a store directory.
func ManifestPath(dir string) string { return filepath.Join(dir, "queue.json") }

// persistManifestLocked mirrors the unfinished campaigns to disk with an
// atomic write, so any crash leaves either the previous manifest or the
// new one. Entries are sorted by ID so the bytes are independent of
// admission order.
func (c *Coordinator) persistManifestLocked() error {
	pending := make([]ManifestJob, 0, len(c.open))
	for _, cs := range c.open {
		pending = append(pending, ManifestJob{ID: cs.id, Spec: cs.spec})
	}
	sort.Slice(pending, func(i, k int) bool { return pending[i].ID < pending[k].ID })
	data, err := json.MarshalIndent(struct {
		Jobs []ManifestJob `json:"jobs"`
	}{pending}, "", "  ")
	if err != nil {
		return err
	}
	return campaign.WriteFileAtomic(ManifestPath(c.cfg.StoreDir), data, 0o644)
}

// LoadManifest reads a queue manifest; a missing file is an empty queue.
func LoadManifest(path string) ([]ManifestJob, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var man struct {
		Jobs []ManifestJob `json:"jobs"`
	}
	if err := json.Unmarshal(data, &man); err != nil {
		return nil, fmt.Errorf("dist: manifest %s: %w", path, err)
	}
	return man.Jobs, nil
}
