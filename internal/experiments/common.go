// Package experiments regenerates every table and figure of the paper's
// evaluation section (Tables I–II, Figures 3 and 5–11) plus the ablation
// studies DESIGN.md calls out. Each experiment returns a structured result
// that renders as a text table and exports as CSV, so `cmd/experiments`
// and the repository benchmarks share one implementation.
package experiments

import (
	"fmt"
	"io"
	"strconv"
	"sync"

	"github.com/ares-cps/ares/internal/attack"
	"github.com/ares-cps/ares/internal/campaign"
	"github.com/ares-cps/ares/internal/core"
	"github.com/ares-cps/ares/internal/defense"
	"github.com/ares-cps/ares/internal/firmware"
)

// Suite shares the expensive setup artifacts (the benign profile and the
// calibrated monitors) across experiments. Getters build lazily and cache.
type Suite struct {
	// Seed drives every run in the suite.
	Seed int64
	// Quick reduces trial counts and training budgets for smoke tests;
	// full runs reproduce the paper-scale settings.
	Quick bool
	// Analysis tunes Algorithm 1 for every experiment that runs it, and
	// its Parallelism also bounds the profiling flights. The zero value
	// uses the defaults (full-machine parallelism); callers running
	// several suites at once should set Parallelism to their per-suite
	// share so the pools don't multiply. Results are identical at any
	// setting.
	Analysis core.AnalysisOptions

	mu      sync.Mutex
	profile *core.Profile
	ci      *defense.ControlInvariants
}

// NewSuite creates an experiment suite.
func NewSuite(seed int64, quick bool) *Suite {
	return &Suite{Seed: seed, Quick: quick}
}

// missions returns the benign profiling mission count.
func (s *Suite) missions() int {
	if s.Quick {
		return 2
	}
	return 5
}

// trials returns the per-condition trial count for Figure 9.
func (s *Suite) trials() int {
	if s.Quick {
		return 3
	}
	return 10
}

// episodes returns the RL training budget.
func (s *Suite) episodes() int {
	if s.Quick {
		return 12
	}
	return 120
}

// evalMission returns the benign profiling mission (dynamically rich).
func (s *Suite) evalMission() *firmware.Mission {
	return firmware.SquareMission(25, 10)
}

// attackMission returns the path-following mission used for the defense
// evasion experiments — "a couple of straight lines", per the paper.
func (s *Suite) attackMission() *firmware.Mission {
	return firmware.LineMission(120, 10)
}

// Profile returns the shared benign operation profile.
func (s *Suite) Profile() (*core.Profile, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.profile != nil {
		return s.profile, nil
	}
	prof, err := core.CollectProfile(core.ProfileConfig{
		Mission:     s.evalMission(),
		Missions:    s.missions(),
		Seed:        s.Seed,
		Parallelism: s.Analysis.Parallelism,
	})
	if err != nil {
		return nil, err
	}
	s.profile = prof
	return prof, nil
}

// CI returns the suite's calibrated control-invariant monitor. Calibration
// runs once; each caller gets its own clone, because flights mutate it and
// experiments may run concurrently (-parallel).
func (s *Suite) CI() (*defense.ControlInvariants, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ci == nil {
		ci, err := attack.CalibrateMonitors(s.attackMission(), s.Seed+50) //areslint:ignore seedarith golden-pinned
		if err != nil {
			return nil, err
		}
		s.ci = ci
	}
	return s.ci.Clone(), nil
}

// Result is the common interface of experiment outputs.
type Result interface {
	// Name returns the experiment identifier (e.g. "table1", "fig6").
	Name() string
	// WriteText renders the result for a terminal.
	WriteText(w io.Writer) error
	// WriteCSV exports the underlying data into dir (one or more files
	// named after the experiment).
	WriteCSV(dir string) error
}

// writeCSVFile writes one CSV file of float cells with a header row,
// formatting each value at its shortest exact precision, through
// campaign.WriteCSV's atomic writer.
func writeCSVFile(dir, name string, header []string, rows [][]float64) error {
	recs := make([][]string, len(rows))
	for r, row := range rows {
		if len(row) != len(header) {
			return fmt.Errorf("experiments: row width %d != header %d", len(row), len(header))
		}
		recs[r] = make([]string, len(row))
		for i, v := range row {
			recs[r][i] = strconv.FormatFloat(v, 'g', -1, 64)
		}
	}
	return campaign.WriteCSV(dir, name, header, recs)
}
