package main

import (
	"context"
	"time"

	"github.com/ares-cps/ares"
)

// profileAnalyze runs ares.NewPipeline → Profile → Analyze → Report over
// consecutive seeds, one pipeline per round, like cmd/ares.
var profileAnalyze = workload{setup: setupPipeline, pass: len(pipelineSeeds)}

// benignFlights is the pipeline's default number of profiling missions.
const benignFlights = 5

type pipelineRound struct {
	e      *env
	seed   int64
	p      *ares.Pipeline
	report []byte
}

func setupPipeline(_ context.Context, e *env, r int, _ string) (round, error) {
	seed := pick(pipelineSeeds, e.seed, r)
	return &pipelineRound{e: e, seed: seed, p: ares.NewPipeline(ares.Config{Seed: seed})}, nil
}

func (p *pipelineRound) run(ctx context.Context) (outcome, error) {
	if err := ctx.Err(); err != nil {
		return outcome{}, err
	}
	start := time.Now()
	rep, err := renderReport(p.p, p.e.tr)
	if err != nil {
		return outcome{}, err
	}
	p.report = rep
	return outcome{episodes: benignFlights, requests: 1, attempted: 1,
		latencies: []float64{time.Since(start).Seconds()}, slots: 1}, nil
}

func (p *pipelineRound) verify() (int, error) {
	if !p.e.digests.check(pipelineDigestName(p.seed), p.report) {
		return 1, nil
	}
	return 0, nil
}

func (p *pipelineRound) close() error { return nil }
