package main

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	"github.com/ares-cps/ares/internal/campaign"
)

// sweepCamp runs the reference campaign through campaign.Runner with
// arescamp's batched executor pair, a JSONL store and Aggregate at the
// end, on a pool of sweepWorkers.
var sweepCamp = workload{setup: setupSweep, storeFile: sweepStore, pass: len(sweepSeeds)}

// sweepStore is the campaign artifact file, named as arescamp names it by default.
const sweepStore = "campaign.jsonl"

// sweepWorkers is the sweep's pool size. arescamp's default, one worker
// per GOMAXPROCS, gives two workers only four batched cells each: the
// campaign's wall time then swings with which worker draws the last cell
// and with how the host schedules the two vCPUs. On a shared 2-vCPU VM
// that spread throughput over ten runs by 0.11-0.26 (quartile distance
// over median); one worker held about 0.05 over five runs of the same
// period.
const sweepWorkers = 1

type sweepRound struct {
	e       *env
	seed    int64
	jobs    []campaign.Job
	store   *campaign.Store
	sink    *timedSink
	runner  *campaign.Runner
	summary *campaign.Summary
	closed  bool
}

func setupSweep(_ context.Context, e *env, r int, dir string) (round, error) {
	seed := pick(sweepSeeds, e.seed, r)
	spec := sweepSpec(seed)
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	jobs := spec.Expand()
	store, err := campaign.OpenStore(filepath.Join(dir, sweepStore))
	if err != nil {
		return nil, err
	}
	runner := &campaign.Runner{Workers: sweepWorkers}
	runner.Execute, runner.ExecuteGroup = e.tr.tracedExecutors(campaign.NewBatchExecutor())
	return &sweepRound{e: e, seed: seed, jobs: jobs, store: store, runner: runner,
		sink: &timedSink{RecordSink: store, tr: e.tr}}, nil
}

func (s *sweepRound) run(ctx context.Context) (outcome, error) {
	s.sink.start = time.Now()
	stats, err := s.runner.RunJobs(ctx, s.jobs, s.sink)
	if err != nil {
		return outcome{}, err
	}
	end := s.e.tr.begin("campaign.aggregate", "")
	s.summary = campaign.Aggregate("arescamp", s.store.Records())
	end(1)
	return outcome{
		episodes:  episodesOf(s.jobs),
		requests:  1,
		latencies: s.sink.arrived,
		attempted: stats.Total,
		failed:    stats.Errors + stats.Panics,
		slots:     sweepWorkers,
	}, nil
}

func (s *sweepRound) verify() (int, error) {
	data, err := campaign.SortedBytes(s.store.Records())
	if err != nil {
		return 0, err
	}
	if !s.e.digests.check(sweepDigestName(s.seed), data) || s.summary.Records != len(s.jobs) {
		return len(s.jobs), nil
	}
	return 0, nil
}

func (s *sweepRound) close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	if err := s.store.Close(); err != nil {
		return fmt.Errorf("close store: %w", err)
	}
	return nil
}
