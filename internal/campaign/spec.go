// Package campaign turns one-off ARES pipeline runs into sharded,
// parallel, resumable vulnerability-assessment campaigns.
//
// A campaign is the paper's evaluation loop made explicit: the cross
// product of missions × target state variables × attack goals × deployed
// defenses × trial seeds, where every cell is an independent
// profile→exploit job. The subsystem has four parts:
//
//   - Spec declares the sweep axes and expands them into an explicit,
//     deterministically ordered and seeded job list.
//   - Store is a JSON-lines artifact log; one record is appended per
//     finished job, and a re-run against the same file resumes by
//     skipping already-completed job keys.
//   - Runner executes jobs on a bounded worker pool with per-job panic
//     recovery, so one diverging trial cannot kill the fleet.
//   - Aggregate folds the records into per-axis success-rate and
//     deviation summaries shaped like internal/experiments results.
//
// Parallel runs are reproducible because every job's seed is derived from
// the campaign seed and a hash of the job's key (mathx.DeriveSeed), never
// from worker identity or completion order: the same Spec produces
// byte-identical sorted records at any worker count.
package campaign

import (
	"fmt"
	"hash/fnv"
	"math"
	"strconv"
	"strings"

	"github.com/ares-cps/ares/internal/core"
	"github.com/ares-cps/ares/internal/firmware"
	"github.com/ares-cps/ares/internal/mathx"
)

// Goal names for Spec.Goals.
const (
	// GoalDeviation is Case Study I: uncontrolled failure via peak path
	// deviation.
	GoalDeviation = "deviation"
	// GoalCrash is Case Study II: controlled failure into a forbidden
	// zone placed beside the mission's final leg.
	GoalCrash = "crash"
)

// Defense names for Spec.Defenses.
const (
	// DefenseNone trains and evaluates without an in-loop detector.
	DefenseNone = "none"
	// DefenseCI runs the control-invariants monitor in the loop (trained
	// once per mission, cloned per job).
	DefenseCI = "ci"
	// DefenseRecovery runs the SpecGuard-style recovery guard: the CI
	// monitor detects, and on the first alarm a conservative recovery
	// controller clamps the attitude commands and bleeds the integrators
	// for the rest of the flight.
	DefenseRecovery = "recovery"
)

// Attack names for Spec.Attacks.
const (
	// AttackRL trains the paper's RL exploit against the cell (the
	// original, and default, campaign semantics).
	AttackRL = "rl"
	// AttackStealthy runs the fixed stealthy state-aware injection: a
	// shadow copy of the CI monitor schedules the offset magnitude so the
	// detection statistic stays under the alarm threshold.
	AttackStealthy = "stealthy"
)

// MissionSpec declares one mission axis value.
type MissionSpec struct {
	// Kind is "square" or "line".
	Kind string `json:"kind"`
	// Size is the side length (square) or leg length (line) in meters.
	Size float64 `json:"size"`
	// Alt is the altitude in meters.
	Alt float64 `json:"alt"`
}

// Name returns the stable identifier used in job keys, e.g. "line60x10".
func (m MissionSpec) Name() string {
	return fmt.Sprintf("%s%gx%g", m.Kind, m.Size, m.Alt)
}

// Build constructs the firmware mission.
func (m MissionSpec) Build() (*firmware.Mission, error) {
	switch m.Kind {
	case "square":
		return firmware.SquareMission(m.Size, m.Alt), nil
	case "line":
		return firmware.LineMission(m.Size, m.Alt), nil
	default:
		return nil, fmt.Errorf("campaign: unknown mission kind %q", m.Kind)
	}
}

// ParseMission parses "kind:size" or "kind:size:alt" (e.g. "line:60",
// "square:25:10"); altitude defaults to 10 m.
func ParseMission(s string) (MissionSpec, error) {
	parts := strings.Split(s, ":")
	if len(parts) < 2 || len(parts) > 3 {
		return MissionSpec{}, fmt.Errorf("campaign: mission %q, want kind:size[:alt]", s)
	}
	m := MissionSpec{Kind: parts[0], Alt: 10}
	var err error
	if m.Size, err = strconv.ParseFloat(parts[1], 64); err != nil {
		return MissionSpec{}, fmt.Errorf("campaign: mission %q size: %v", s, err)
	}
	if len(parts) == 3 {
		if m.Alt, err = strconv.ParseFloat(parts[2], 64); err != nil {
			return MissionSpec{}, fmt.Errorf("campaign: mission %q alt: %v", s, err)
		}
	}
	if m.Kind != "square" && m.Kind != "line" {
		return MissionSpec{}, fmt.Errorf("campaign: unknown mission kind %q", m.Kind)
	}
	// strconv.ParseFloat accepts "NaN" and "Inf", and `m.Size <= 0` is
	// false for NaN — so the geometry must be checked for finiteness
	// explicitly, not just for sign.
	if !finitePositive(m.Size) || !finitePositive(m.Alt) {
		return MissionSpec{}, fmt.Errorf("campaign: mission %q needs finite positive size and alt", s)
	}
	return m, nil
}

// finitePositive reports whether v is a finite value greater than zero
// (NaN and ±Inf fail).
func finitePositive(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0) && v > 0
}

// Spec declares a campaign: the sweep axes plus shared training budgets.
// Expand turns it into the explicit job list. The JSON form is the wire
// format of the assessment daemon's POST /v1/jobs endpoint.
type Spec struct {
	// Name labels the campaign in summaries. It is a display label only:
	// two specs differing only in Name run identical jobs, so the daemon
	// excludes it from spec identity (dedup and result caching).
	Name string `json:"name,omitempty"`
	// Seed is the campaign base seed every job seed derives from.
	Seed int64 `json:"seed"`
	// Missions, Variables, Goals, Attacks, Defenses and Trials are the
	// sweep axes; the job list is their cross product.
	Missions  []MissionSpec `json:"missions,omitempty"`
	Variables []string      `json:"variables,omitempty"`
	Goals     []string      `json:"goals,omitempty"`
	Attacks   []string      `json:"attacks,omitempty"`
	Defenses  []string      `json:"defenses,omitempty"`
	// Trials is the number of seeds per axis cell (default 1).
	Trials int `json:"trials,omitempty"`
	// Sweeps, when non-empty, replaces the single top-level cross product
	// with independent per-block cross products (the compiled form of a
	// CPV catalog subset, where each record carries its own incompatible
	// axis combination). The top-level axis fields must be left empty;
	// top-level Trials/MaxAction/SuccessDeviation act as defaults pushed
	// into sweeps that omit them. Episodes, MaxSteps and Learner stay
	// shared across all sweeps.
	Sweeps []Sweep `json:"sweeps,omitempty"`
	// Episodes and MaxSteps bound each job's RL training (defaults follow
	// core.ExploitConfig).
	Episodes int `json:"episodes,omitempty"`
	MaxSteps int `json:"max_steps,omitempty"`
	// Learner selects the RL algorithm: "reinforce" (default) or
	// "qlearning", which trains only deviation exploits.
	Learner string `json:"learner,omitempty"`
	// MaxAction bounds the per-action manipulation; 0 uses per-goal
	// defaults (0.1 deviation, 0.6 crash).
	MaxAction float64 `json:"max_action,omitempty"`
	// SuccessDeviation is the path deviation (meters) that counts a
	// deviation job as a successful attack (default 5): an RL job's
	// final deviation after its greedy replay, a stealthy job's peak.
	SuccessDeviation float64 `json:"success_deviation,omitempty"`
}

// Sweep is one independent axis block inside a Spec. Each sweep expands to
// its own cross product; the spec's job list is the concatenation (minus
// duplicate keys). A sweep compiled from a CPV catalog record carries the
// record's ID in CPV, which prefixes every job key in the block and is
// echoed on the resulting records for traceability.
type Sweep struct {
	// CPV is the originating catalog record ID ("" for hand-written
	// sweeps). It must not contain '/', which separates job-key segments.
	CPV string `json:"cpv,omitempty"`

	Missions  []MissionSpec `json:"missions,omitempty"`
	Variables []string      `json:"variables,omitempty"`
	Goals     []string      `json:"goals,omitempty"`
	Attacks   []string      `json:"attacks,omitempty"`
	Defenses  []string      `json:"defenses,omitempty"`

	// Trials, MaxAction and SuccessDeviation override the spec-level
	// values for this block (zero inherits).
	Trials           int     `json:"trials,omitempty"`
	MaxAction        float64 `json:"max_action,omitempty"`
	SuccessDeviation float64 `json:"success_deviation,omitempty"`
}

// applyDefaults fills the sweep's axis defaults (the same ones the
// top-level spec uses).
func (w *Sweep) applyDefaults() {
	if len(w.Missions) == 0 {
		w.Missions = []MissionSpec{{Kind: "line", Size: 60, Alt: 10}}
	}
	if len(w.Variables) == 0 {
		w.Variables = []string{"PIDR.INTEG"}
	}
	if len(w.Goals) == 0 {
		w.Goals = []string{GoalDeviation}
	}
	if len(w.Attacks) == 0 {
		w.Attacks = []string{AttackRL}
	}
	if len(w.Defenses) == 0 {
		w.Defenses = []string{DefenseNone}
	}
}

// Normalized returns the spec with the axis and threshold defaults
// applied, so a spec that spells out the defaults and one that omits them
// share one normalized form. The daemon hashes the normalized spec (minus
// Name) for dedup and caching.
func (s Spec) Normalized() Spec {
	s.applyDefaults()
	return s
}

func (s *Spec) applyDefaults() {
	if len(s.Sweeps) > 0 {
		// Sweep mode: spec-level Trials/MaxAction/SuccessDeviation act as
		// defaults pushed down into the blocks, then the top-level copies
		// are zeroed so a spec spelling a default at the top and one
		// spelling it inside every sweep share one normalized form (and
		// one SpecHash). Pushing is idempotent: after the first pass every
		// sweep carries its own values, so a second pass changes nothing.
		trials := s.Trials
		if trials <= 0 {
			trials = 1
		}
		succ := s.SuccessDeviation
		if succ <= 0 {
			succ = 5
		}
		sweeps := make([]Sweep, len(s.Sweeps))
		copy(sweeps, s.Sweeps)
		for i := range sweeps {
			sweeps[i].applyDefaults()
			if sweeps[i].Trials <= 0 {
				sweeps[i].Trials = trials
			}
			if sweeps[i].MaxAction == 0 {
				sweeps[i].MaxAction = s.MaxAction
			}
			if sweeps[i].SuccessDeviation <= 0 {
				sweeps[i].SuccessDeviation = succ
			}
		}
		s.Sweeps = sweeps
		s.Trials, s.MaxAction, s.SuccessDeviation = 0, 0, 0
		return
	}
	if len(s.Missions) == 0 {
		s.Missions = []MissionSpec{{Kind: "line", Size: 60, Alt: 10}}
	}
	if len(s.Variables) == 0 {
		s.Variables = []string{"PIDR.INTEG"}
	}
	if len(s.Goals) == 0 {
		s.Goals = []string{GoalDeviation}
	}
	if len(s.Attacks) == 0 {
		s.Attacks = []string{AttackRL}
	}
	if len(s.Defenses) == 0 {
		s.Defenses = []string{DefenseNone}
	}
	if s.Trials <= 0 {
		s.Trials = 1
	}
	if s.SuccessDeviation <= 0 {
		s.SuccessDeviation = 5
	}
}

// Validate checks the axis values without flying anything.
func (s Spec) Validate() error {
	if len(s.Sweeps) > 0 {
		if len(s.Missions)+len(s.Variables)+len(s.Goals)+len(s.Attacks)+len(s.Defenses) > 0 {
			return fmt.Errorf("campaign: spec with sweeps must leave the top-level axes empty")
		}
		s.applyDefaults()
		for i, sw := range s.Sweeps {
			if strings.Contains(sw.CPV, "/") {
				return fmt.Errorf("campaign: sweep %d: cpv id %q must not contain '/'", i, sw.CPV)
			}
			if err := validateAxes(s.Learner, sw.Missions, sw.Variables, sw.Goals, sw.Attacks, sw.Defenses); err != nil {
				return fmt.Errorf("campaign: sweep %d: %w", i, err)
			}
		}
		return nil
	}
	s.applyDefaults()
	return validateAxes(s.Learner, s.Missions, s.Variables, s.Goals, s.Attacks, s.Defenses)
}

// validateAxes checks one axis block (top-level or sweep) and that the
// spec's learner can train every goal in it.
func validateAxes(learner string, missions []MissionSpec, variables, goals, attacks, defenses []string) error {
	for _, m := range missions {
		if _, err := m.Build(); err != nil {
			return err
		}
		if !finitePositive(m.Size) || !finitePositive(m.Alt) {
			return fmt.Errorf("campaign: mission %q needs finite positive size and alt", m.Name())
		}
	}
	for _, g := range goals {
		if g != GoalDeviation && g != GoalCrash {
			return fmt.Errorf("campaign: unknown goal %q", g)
		}
		if err := core.CheckLearner(learner, g == GoalCrash); err != nil {
			return err
		}
	}
	for _, a := range attacks {
		if a != AttackRL && a != AttackStealthy {
			return fmt.Errorf("campaign: unknown attack %q", a)
		}
	}
	for _, d := range defenses {
		if d != DefenseNone && d != DefenseCI && d != DefenseRecovery {
			return fmt.Errorf("campaign: unknown defense %q", d)
		}
	}
	for _, v := range variables {
		if v == "" {
			return fmt.Errorf("campaign: empty variable name")
		}
	}
	// The stealthy injection is a fixed offset schedule, not a trained
	// policy: it cannot steer toward a forbidden zone, so crash cells
	// would silently measure nothing. Reject the combination up front.
	for _, a := range attacks {
		if a != AttackStealthy {
			continue
		}
		for _, g := range goals {
			if g == GoalCrash {
				return fmt.Errorf("campaign: stealthy attack supports only the deviation goal")
			}
		}
	}
	return nil
}

// Job is one expanded campaign cell: a single exploit-training run.
type Job struct {
	// Key uniquely identifies the cell; the resume store skips keys that
	// already completed.
	Key string
	// BaseSeed is the campaign seed (monitor calibration derives from it).
	BaseSeed int64
	// Seed is the job's own derived seed; all job-local randomness
	// (environment episodes, policy init) streams from it.
	Seed int64

	Mission  MissionSpec
	Variable string
	Goal     string
	Attack   string
	Defense  string
	Trial    int
	// CPV is the originating catalog record ID for catalog-compiled
	// sweeps ("" for hand-written specs).
	CPV string

	Episodes         int
	MaxSteps         int
	Learner          string
	MaxAction        float64
	SuccessDeviation float64
}

// TrialEpisodes is the number of flights the job flies, the unit of its
// cost: a stealthy cell flies one session, an RL cell trains Episodes
// episodes (0 means core.DefaultEpisodes) and replays its policy once.
func (j Job) TrialEpisodes() int {
	if j.Attack == AttackStealthy {
		return 1
	}
	if j.Episodes <= 0 {
		return core.DefaultEpisodes + 1
	}
	return j.Episodes + 1
}

// Expand produces the deterministic job list: axes iterate in declaration
// order (mission, variable, goal, attack, defense, trial), and every job
// seed is derived from the campaign seed and the FNV-1a hash of the job
// key — so adding or reordering axis values never changes the seed of an
// existing cell, and execution order cannot influence results. With
// Sweeps, each block expands the same way in declaration order and the
// lists concatenate, skipping duplicate keys.
func (s Spec) Expand() []Job {
	s.applyDefaults()
	if len(s.Sweeps) > 0 {
		var jobs []Job
		seen := make(map[string]bool)
		for _, sw := range s.Sweeps {
			for _, j := range s.expandBlock(sw) {
				if seen[j.Key] {
					continue
				}
				seen[j.Key] = true
				jobs = append(jobs, j)
			}
		}
		return jobs
	}
	return s.expandBlock(Sweep{
		Missions:         s.Missions,
		Variables:        s.Variables,
		Goals:            s.Goals,
		Attacks:          s.Attacks,
		Defenses:         s.Defenses,
		Trials:           s.Trials,
		MaxAction:        s.MaxAction,
		SuccessDeviation: s.SuccessDeviation,
	})
}

// expandBlock expands one axis block (the whole spec, or one sweep) into
// its cross product of jobs.
func (s Spec) expandBlock(sw Sweep) []Job {
	prefix := ""
	if sw.CPV != "" {
		prefix = sw.CPV + "/"
	}
	var jobs []Job
	for _, m := range sw.Missions {
		for _, v := range sw.Variables {
			for _, g := range sw.Goals {
				for _, a := range sw.Attacks {
					for _, d := range sw.Defenses {
						for t := 0; t < sw.Trials; t++ {
							key := prefix + jobKey(m, v, g, a, d, t)
							jobs = append(jobs, Job{
								Key:              key,
								BaseSeed:         s.Seed,
								Seed:             mathx.DeriveSeed(s.Seed, streamOf(key)),
								Mission:          m,
								Variable:         v,
								Goal:             g,
								Attack:           a,
								Defense:          d,
								Trial:            t,
								CPV:              sw.CPV,
								Episodes:         s.Episodes,
								MaxSteps:         s.MaxSteps,
								Learner:          s.Learner,
								MaxAction:        sw.MaxAction,
								SuccessDeviation: sw.SuccessDeviation,
							})
						}
					}
				}
			}
		}
	}
	return jobs
}

// jobKey builds the stable identifier of one campaign cell. Catalog-
// compiled sweeps additionally prefix the originating CPV record ID.
func jobKey(m MissionSpec, variable, goal, attack, defense string, trial int) string {
	return fmt.Sprintf("%s/%s/%s/%s/%s/t%03d", m.Name(), variable, goal, attack, defense, trial)
}

// streamOf hashes an arbitrary label into a mathx.DeriveSeed stream id.
func streamOf(label string) int64 {
	h := fnv.New64a()
	h.Write([]byte(label))
	return int64(h.Sum64())
}
