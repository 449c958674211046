// Package serve is the single-node assessment daemon: a dist.Coordinator
// whose workers run in process. It accepts campaign specs over HTTP,
// bounds the queue with backpressure, deduplicates identical in-flight
// submissions (singleflight), caches finished results in an LRU, streams
// per-campaign progress over SSE, exposes Prometheus-style metrics and
// serves the CPV catalog.
//
// The job lifecycle — submit, dedup, retry, status, result, queue
// manifest and resume — is internal/dist's, shared with the fleet
// coordinator; this package adds only its Config, the queue-depth bound
// on admission and the /v1/cpvs routes. Identity is content-addressed: a
// job's ID is the canonical hash of its normalized spec
// (campaign.SpecHash), so N clients submitting the same sweep get one
// underlying campaign run and one shared result. Every job appends to its
// own JSONL campaign.Store under StoreDir and finalizes the same sorted
// artifact a fleet writes; a daemon restarted after a drain (or a crash)
// re-queues its manifest and each resumed campaign skips the cells its
// store already holds.
package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"

	"github.com/ares-cps/ares/internal/campaign"
	"github.com/ares-cps/ares/internal/dist"
	"github.com/ares-cps/ares/internal/metrics"
	"github.com/ares-cps/ares/internal/par"
)

// Aliases of internal/dist and internal/campaign names, kept for callers
// written against serve (perfbench/).
const (
	StateQueued  = dist.StateQueued
	StateRunning = dist.StateRunning
	StateDone    = dist.StateDone
	StateFailed  = dist.StateFailed
)

// JobStatus is dist.JobStatus.
type JobStatus = dist.JobStatus

// Result is dist.Result.
type Result = dist.Result

// SpecHash is campaign.SpecHash.
func SpecHash(spec campaign.Spec) string { return campaign.SpecHash(spec) }

// Config parameterizes a Server.
type Config struct {
	// StoreDir holds one campaign artifact file per job plus the queue
	// manifest. Required.
	StoreDir string
	// QueueDepth bounds the jobs waiting to start; a new or retried job
	// beyond it is answered 429 with Retry-After. Default 64.
	QueueDepth int
	// Workers is the number of jobs executed concurrently. Default 2.
	Workers int
	// Parallelism is the machine-wide simulation/analysis budget shared by
	// all running jobs (par.Budget); 0 = GOMAXPROCS.
	Parallelism int
	// CacheSize bounds the LRU result cache (entries). Default 128.
	CacheSize int
	// Executor runs one campaign cell; nil uses the built-in ARES
	// executor, shared across jobs so per-mission monitor calibration is
	// done once per daemon, not once per job.
	Executor campaign.Executor
	// Metrics receives the daemon's instruments; nil uses
	// metrics.Default() (which also carries the campaign counters).
	Metrics *metrics.Registry
	// Log receives daemon log lines; nil discards.
	Log io.Writer
}

func (c *Config) applyDefaults() {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.CacheSize <= 0 {
		c.CacheSize = 128
	}
	if c.Executor == nil {
		c.Executor = campaign.NewExecutor()
	}
	if c.Metrics == nil {
		c.Metrics = metrics.Default()
	}
	if c.Log == nil {
		c.Log = io.Discard
	}
}

// Server is the assessment daemon. Construct with New, mount Handler in
// an http.Server, call Start, and Shutdown on the way out.
type Server struct {
	cfg     Config
	coord   *dist.Coordinator
	cpvMx   cpvMetrics
	workers []*dist.Worker

	runCtx    context.Context
	runCancel context.CancelFunc
	wg        sync.WaitGroup
}

// New builds a Server over a coordinator rooted at StoreDir (creating it
// if needed and re-queueing any unfinished jobs found in its manifest)
// with Config.Workers in-process workers sharing one Parallelism budget.
func New(cfg Config) (*Server, error) {
	if cfg.StoreDir == "" {
		return nil, errors.New("serve: Config.StoreDir is required")
	}
	cfg.applyDefaults()
	coord, err := dist.NewCoordinator(dist.CoordConfig{
		StoreDir: cfg.StoreDir, Metrics: cfg.Metrics, Log: cfg.Log,
	})
	if err != nil {
		return nil, err
	}
	coord.SetCacheSize(cfg.CacheSize)
	s := &Server{cfg: cfg, coord: coord, cpvMx: newCPVMetrics(cfg.Metrics)}
	s.runCtx, s.runCancel = context.WithCancel(context.Background())
	budget := par.NewBudget(cfg.Parallelism)
	for i := 0; i < cfg.Workers; i++ {
		s.workers = append(s.workers, coord.InProcessWorker(fmt.Sprintf("local-%d", i), cfg.Executor, budget))
	}
	return s, nil
}

// Start launches the workers.
func (s *Server) Start() {
	s.coord.Start()
	for _, w := range s.workers {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			_ = w.Run(s.runCtx) // an in-process worker's Run cannot fail
		}()
	}
}

// Shutdown drains the daemon: new submissions are refused, workers finish
// their in-flight job and exit, and the set of still-unfinished jobs is
// persisted to the queue manifest for the next daemon life. If ctx
// expires before the drain completes, in-flight campaigns are cancelled —
// their finished cells are already in their stores, so a restart resumes
// mid-campaign.
func (s *Server) Shutdown(ctx context.Context) error {
	s.coord.Drain()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		s.runCancel()
		<-done
	}
	s.runCancel()
	return s.coord.Shutdown()
}

// Handler returns the daemon's HTTP API: the coordinator's client routes
// (dist.Coordinator.ClientMux, with POST /v1/jobs bounded by QueueDepth)
// plus the CPV catalog. The /v1/dist/* fleet protocol is not mounted.
//
//	GET  /v1/cpvs             built-in CPV catalog (JSON)
//	GET  /v1/cpvs/{id}        one catalog record
//	POST /v1/cpvs/{id}/assess compile the record and submit it through the
//	                          content-addressed queue (same codes as
//	                          POST /v1/jobs); optional JSON body overrides
//	                          seed/trials/episodes/max_steps/learner
func (s *Server) Handler() http.Handler {
	mux := s.coord.ClientMux(s.cfg.QueueDepth)
	mux.HandleFunc("GET /v1/cpvs", handleCPVList)
	mux.HandleFunc("GET /v1/cpvs/{id}", handleCPVGet)
	mux.HandleFunc("POST /v1/cpvs/{id}/assess", s.handleCPVAssess)
	return mux
}
