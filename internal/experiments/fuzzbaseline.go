package experiments

import (
	"fmt"
	"io"
	"math/rand"

	"github.com/ares-cps/ares/internal/attack"
	"github.com/ares-cps/ares/internal/campaign"
	"github.com/ares-cps/ares/internal/firmware"
)

// FuzzBaselineResult substantiates the paper's Related Work claim that ARES
// "identifies new types of longer-term vulnerabilities as compared to
// fuzzing works, which focus on single-point modifications": a
// RVFuzzer/PGFuzz-style baseline forces one random value into one random
// stabilizer-region variable per trial, while ARES uses a time-dependent
// manipulation sequence. The comparison counts findings that are both
// *effective* (multi-meter deviation or crash) and *stealthy* (no CI alarm).
type FuzzBaselineResult struct {
	// Trials is the single-point fuzzing budget.
	Trials int
	// FuzzEffective counts trials with ≥ the deviation bar or a crash.
	FuzzEffective int
	// FuzzStealthy counts trials that never alarmed.
	FuzzStealthy int
	// FuzzBoth counts trials that were effective AND stealthy.
	FuzzBoth int
	// ARESEffective/ARESStealthy report the time-dependent ramp attack.
	ARESEffective, ARESStealthy bool
	ARESDev                     float64
	// DeviationBar is the effectiveness threshold in meters.
	DeviationBar float64
}

// Name implements Result.
func (*FuzzBaselineResult) Name() string { return "fuzzbaseline" }

// fuzzTargets is the single-point fuzzer's search space: the writable
// stabilizer-region cells with per-variable plausible magnitudes.
var fuzzTargets = []struct {
	variable string
	scale    float64
}{
	{"PIDR.INTEG", 0.5},
	{"PIDR.SCALER", 2.0},
	{"PIDR.KP", 0.5},
	{"PIDR.KI", 0.5},
	{"CMD.Roll", 0.6},
	{"CMD.Pitch", 0.6},
	{"PIDP.INTEG", 0.5},
	{"ANGR.P", 8.0},
}

// RunFuzzBaseline executes the comparison.
func RunFuzzBaseline(s *Suite) (*FuzzBaselineResult, error) {
	ci, err := s.CI()
	if err != nil {
		return nil, err
	}
	mission := s.attackMission()
	res := &FuzzBaselineResult{DeviationBar: 5}
	res.Trials = 4 * s.trials() // 40 full / 12 quick

	rng := rand.New(rand.NewSource(s.Seed + 4000)) //areslint:ignore seedarith golden-pinned
	for i := 0; i < res.Trials; i++ {
		target := fuzzTargets[rng.Intn(len(fuzzTargets))]
		value := (rng.Float64()*2 - 1) * target.scale
		sess, err := attack.RunSession(attack.SessionConfig{
			Mission: mission, Duration: 45, Seed: s.Seed + 4100 + int64(i), //areslint:ignore seedarith golden-pinned
			Monitors: attack.Monitors{CI: ci},
			Strategy: &attack.NaiveAttack{
				Region:   firmware.RegionStabilizer,
				Variable: target.variable,
				Value:    value,
			},
			AttackStart: 10,
		})
		if err != nil {
			return nil, err
		}
		effective := sess.MaxPathDev >= res.DeviationBar || sess.Crashed
		stealthy := !sess.DetectedCI
		if effective {
			res.FuzzEffective++
		}
		if stealthy {
			res.FuzzStealthy++
		}
		if effective && stealthy {
			res.FuzzBoth++
		}
	}

	// The ARES time-dependent sequence on the same budget class.
	ares, err := attack.RunSession(attack.SessionConfig{
		Mission: mission, Duration: 45, Seed: s.Seed + 4999, Monitors: attack.Monitors{CI: ci}, //areslint:ignore seedarith golden-pinned
		Strategy: &attack.RampAttack{
			Region: firmware.RegionStabilizer, Variable: "CMD.Roll",
			Rate: 0.0436, Cap: 0.4,
		},
		AttackStart: 10,
	})
	if err != nil {
		return nil, err
	}
	res.ARESEffective = ares.MaxPathDev >= res.DeviationBar || ares.Crashed
	res.ARESStealthy = !ares.DetectedCI
	res.ARESDev = ares.MaxPathDev
	return res, nil
}

// WriteText implements Result.
func (r *FuzzBaselineResult) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintf(w,
		"Fuzzing baseline — single-point forcing vs ARES time-dependent sequence\n"); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w,
		"effectiveness bar: ≥%.0f m deviation or crash; stealth: no CI alarm\n\n",
		r.DeviationBar); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w,
		"single-point fuzzer (%d trials): effective %d, stealthy %d, BOTH %d\n",
		r.Trials, r.FuzzEffective, r.FuzzStealthy, r.FuzzBoth); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w,
		"ARES ramp sequence:               effective %v (%.1f m), stealthy %v, BOTH %v\n",
		r.ARESEffective, r.ARESDev, r.ARESStealthy,
		r.ARESEffective && r.ARESStealthy)
	return err
}

// WriteCSV implements Result.
func (r *FuzzBaselineResult) WriteCSV(dir string) error {
	rows := [][]string{
		{"fuzz_trials", fmt.Sprint(r.Trials)},
		{"fuzz_effective", fmt.Sprint(r.FuzzEffective)},
		{"fuzz_stealthy", fmt.Sprint(r.FuzzStealthy)},
		{"fuzz_both", fmt.Sprint(r.FuzzBoth)},
		{"ares_effective", fmt.Sprint(r.ARESEffective)},
		{"ares_stealthy", fmt.Sprint(r.ARESStealthy)},
		{"ares_dev_m", fmt.Sprintf("%.2f", r.ARESDev)},
	}
	return campaign.WriteCSV(dir, "fuzzbaseline.csv", []string{"metric", "value"}, rows)
}
