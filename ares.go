// Package ares is the public API of the ARES reproduction: a variable-level
// vulnerability assessment framework for robotic aerial vehicles (Ding et
// al., DSN 2023).
//
// The pipeline has three stages, mirroring the paper's Figure 2:
//
//  1. Profile — fly benign missions on the built-in ArduPilot-style
//     firmware simulator while tracing the full state variable space
//     (dataflash-visible variables plus intermediate controller variables
//     inside MPU memory regions).
//  2. Analyze — run Algorithm 1 (correlation analysis, hierarchical
//     clustering, stepwise-AIC regression with significance checks) to
//     reduce the expanded state variable list to target state variables.
//  3. Exploit — train a reinforcement-learning agent that manipulates one
//     target variable inside a compromised memory region to produce
//     uncontrolled (path deviation) or controlled (obstacle crash)
//     failures, optionally with a deployed detector in the loop.
//
// Quick start:
//
//	p := ares.NewPipeline(ares.Config{Seed: 1})
//	if err := p.Profile(); err != nil { ... }
//	if err := p.Analyze(); err != nil { ... }
//	report := p.Report()
//	report.WriteText(os.Stdout)
package ares

import (
	"fmt"

	"github.com/ares-cps/ares/internal/core"
	"github.com/ares-cps/ares/internal/firmware"
	"github.com/ares-cps/ares/internal/mathx"
)

// Seed streams for the independent random consumers of a pipeline run.
// mathx.DeriveSeed mixes the stream id into the base seed, so consumers
// stay decorrelated for every base seed — including adjacent ones, which
// the previous `Seed + 1000` offset scheme made collide across runs.
const (
	seedStreamExploitEnv int64 = iota + 1
	seedStreamExploitPolicy
)

// Config configures a Pipeline.
type Config struct {
	// Mission is the benign profiling mission; nil uses a 25 m square at
	// 10 m altitude.
	Mission *Mission
	// Missions is the number of benign profiling flights (default 5, as
	// in the paper).
	Missions int
	// Seed makes the whole pipeline reproducible.
	Seed int64
	// Analysis tunes Algorithm 1. Analysis.Parallelism bounds the worker
	// pool for the whole Analyze stage (controller groups fan out and each
	// group's prune/correlation/selection stages share the remainder) and
	// how many of Profile's benign missions fly at once; the default, 0,
	// uses GOMAXPROCS. Results are bit-identical at any worker count, so
	// the knob trades only wall-clock time — embedders running pipelines
	// concurrently (e.g. campaign fleets) should set it to their per-job
	// share of the machine budget.
	Analysis AnalysisOptions
}

// AnalysisOptions re-exports the Algorithm 1 tuning knobs.
type AnalysisOptions = core.AnalysisOptions

// Mission re-exports the waypoint mission type.
type Mission = firmware.Mission

// SquareMission builds a closed square mission (side length and altitude
// in meters).
func SquareMission(side, altitude float64) *Mission {
	return firmware.SquareMission(side, altitude)
}

// LineMission builds a straight A→B mission.
func LineMission(length, altitude float64) *Mission {
	return firmware.LineMission(length, altitude)
}

// Pipeline runs the ARES assessment end to end.
type Pipeline struct {
	cfg Config

	profile *core.Profile
	groups  []*core.GroupAnalysis
	roll    *core.RollAnalysis
}

// NewPipeline creates a pipeline.
func NewPipeline(cfg Config) *Pipeline {
	if cfg.Mission == nil {
		cfg.Mission = firmware.SquareMission(25, 10)
	}
	if cfg.Missions <= 0 {
		cfg.Missions = 5
	}
	return &Pipeline{cfg: cfg}
}

// Profile flies the benign missions and collects the operation traces.
func (p *Pipeline) Profile() error {
	prof, err := core.CollectProfile(core.ProfileConfig{
		Mission:     p.cfg.Mission,
		Missions:    p.cfg.Missions,
		Seed:        p.cfg.Seed,
		Parallelism: p.cfg.Analysis.Parallelism,
	})
	if err != nil {
		return fmt.Errorf("ares: profile: %w", err)
	}
	p.profile = prof
	return nil
}

// Analyze runs Algorithm 1 over all controller groups and the roll-control
// ESVL. Profile must have run first.
func (p *Pipeline) Analyze() error {
	if p.profile == nil {
		return fmt.Errorf("ares: Analyze before Profile")
	}
	groups, err := core.AnalyzeAllGroups(p.profile, p.cfg.Analysis)
	if err != nil {
		return fmt.Errorf("ares: analyze: %w", err)
	}
	roll, err := core.AnalyzeRoll(p.profile, p.cfg.Analysis)
	if err != nil {
		return fmt.Errorf("ares: analyze roll: %w", err)
	}
	p.groups = groups
	p.roll = roll
	return nil
}

// TSVL returns the union of all selected target state variables. Analyze
// must have run first.
func (p *Pipeline) TSVL() []string {
	seen := make(map[string]bool)
	var out []string
	for _, g := range p.groups {
		for _, v := range g.TSVL {
			if !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
	}
	return out
}

// Groups returns the per-controller analyses (the Table II rows).
func (p *Pipeline) Groups() []*core.GroupAnalysis { return p.groups }

// Roll returns the roll-control analysis (the Figure 3/5 product).
func (p *Pipeline) Roll() *core.RollAnalysis { return p.roll }

// ProfileData returns the raw operation traces.
func (p *Pipeline) ProfileData() *core.Profile { return p.profile }

// TrainDeviationExploit trains a Case Study I exploit for one target
// variable with default budgets.
func (p *Pipeline) TrainDeviationExploit(variable string, episodes int) (*core.ExploitResult, error) {
	env, err := core.NewDeviationEnv(core.EnvConfig{
		Variable: variable,
		Seed:     mathx.DeriveSeed(p.cfg.Seed, seedStreamExploitEnv),
	})
	if err != nil {
		return nil, fmt.Errorf("ares: exploit: %w", err)
	}
	res, err := core.TrainExploit(env, core.ExploitConfig{
		Episodes: episodes,
		Seed:     mathx.DeriveSeed(p.cfg.Seed, seedStreamExploitPolicy),
	})
	if err != nil {
		return nil, fmt.Errorf("ares: exploit: %w", err)
	}
	return res, nil
}

// Report assembles the assessment report from whatever stages have run.
func (p *Pipeline) Report() *core.Report {
	rep := &core.Report{Groups: p.groups, Roll: p.roll}
	if p.profile != nil {
		rep.ProfileSamples = p.profile.Samples()
		rep.ProfileMissions = len(p.profile.MissionLens)
	}
	return rep
}
