package experiments

import (
	"fmt"
	"io"

	"github.com/ares-cps/ares/internal/attack"
	"github.com/ares-cps/ares/internal/defense"
	"github.com/ares-cps/ares/internal/firmware"
)

// Fig9Result reproduces Figure 9: the control-invariants threshold sweep.
// Attack 1 doubles the headline manipulation rate, Attack 2 cuts it to a
// tenth; each condition flies multiple trials and the per-mission maximum
// cumulative error feeds the FP/TP computation at decreasing thresholds.
type Fig9Result struct {
	BenignMax  []float64
	Attack1Max []float64
	Attack2Max []float64
	// Sweep1 and Sweep2 hold the FP/TP points per attack.
	Sweep1, Sweep2 []defense.SweepPoint
	Thresholds     []float64
	Trials         int
}

// Name implements Result.
func (*Fig9Result) Name() string { return "fig9" }

// RunFig9 executes the trial matrix and the threshold sweep.
func RunFig9(s *Suite) (*Fig9Result, error) {
	ci, err := s.CI()
	if err != nil {
		return nil, err
	}
	mission := s.attackMission()
	res := &Fig9Result{
		// The deployed threshold is 400 000; the sweep walks it down
		// through the attack-1 separation band into the benign range.
		Thresholds: []float64{400000, 300000, 200000, 100000, 85000},
		Trials:     s.trials(),
	}

	runTrials := func(mk func(seed int64) attack.Strategy, base int64) ([]float64, error) {
		var maxes []float64
		for i := 0; i < res.Trials; i++ {
			seed := base + int64(i)
			var strat attack.Strategy
			if mk != nil {
				strat = mk(seed)
			}
			sess, err := attack.RunSession(attack.SessionConfig{
				Mission: mission, Duration: 60, Seed: seed,
				Monitors: attack.Monitors{CI: ci}, Strategy: strat, AttackStart: 10,
			})
			if err != nil {
				return nil, err
			}
			maxes = append(maxes, sess.MaxCI)
		}
		return maxes, nil
	}

	if res.BenignMax, err = runTrials(nil, s.Seed+100); err != nil { //areslint:ignore seedarith golden-pinned
		return nil, err
	}
	// Attack 1: twice the headline ramp rate with a deeper cap (the
	// paper's 0.0125°/step attack).
	if res.Attack1Max, err = runTrials(func(int64) attack.Strategy {
		return &attack.RampAttack{
			Region: firmware.RegionStabilizer, Variable: "CMD.Roll",
			Rate: 0.0872, Cap: 0.5,
		}
	}, s.Seed+200); err != nil { //areslint:ignore seedarith golden-pinned
		return nil, err
	}
	// Attack 2: a tenth of the headline rate with a shallow cap (the
	// 0.000625°/step attack).
	if res.Attack2Max, err = runTrials(func(int64) attack.Strategy {
		return &attack.RampAttack{
			Region: firmware.RegionStabilizer, Variable: "CMD.Roll",
			Rate: 0.00436, Cap: 0.2,
		}
	}, s.Seed+300); err != nil { //areslint:ignore seedarith golden-pinned
		return nil, err
	}

	res.Sweep1 = defense.ThresholdSweep(res.BenignMax, res.Attack1Max, res.Thresholds)
	res.Sweep2 = defense.ThresholdSweep(res.BenignMax, res.Attack2Max, res.Thresholds)
	return res, nil
}

// WriteText implements Result.
func (r *Fig9Result) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintf(w,
		"Figure 9 — CI threshold sweep (%d trials per condition)\n", r.Trials); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, "(a) max cumulative error per mission:"); err != nil {
		return err
	}
	stats := func(name string, xs []float64) error {
		lo, hi, sum := xs[0], xs[0], 0.0
		for _, v := range xs {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
			sum += v
		}
		_, err := fmt.Fprintf(w, "  %-8s min=%9.0f mean=%9.0f max=%9.0f\n",
			name, lo, sum/float64(len(xs)), hi)
		return err
	}
	if err := stats("benign", r.BenignMax); err != nil {
		return err
	}
	if err := stats("attack1", r.Attack1Max); err != nil {
		return err
	}
	if err := stats("attack2", r.Attack2Max); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, "(b) FP/TP at decreasing thresholds:"); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%10s | %8s %8s | %8s %8s\n",
		"threshold", "FP", "TP(a1)", "FP", "TP(a2)"); err != nil {
		return err
	}
	for i := range r.Thresholds {
		if _, err := fmt.Fprintf(w, "%10.0f | %7.0f%% %7.0f%% | %7.0f%% %7.0f%%\n",
			r.Thresholds[i],
			r.Sweep1[i].FPRate*100, r.Sweep1[i].TPRate*100,
			r.Sweep2[i].FPRate*100, r.Sweep2[i].TPRate*100); err != nil {
			return err
		}
	}
	return nil
}

// WriteCSV implements Result.
func (r *Fig9Result) WriteCSV(dir string) error {
	maxRows := make([][]float64, 0, len(r.BenignMax))
	for i := range r.BenignMax {
		maxRows = append(maxRows, []float64{
			float64(i), r.BenignMax[i], r.Attack1Max[i], r.Attack2Max[i],
		})
	}
	if err := writeCSVFile(dir, "fig9_max_errors.csv",
		[]string{"trial", "benign", "attack1", "attack2"}, maxRows); err != nil {
		return err
	}
	sweepRows := make([][]float64, 0, len(r.Thresholds))
	for i := range r.Thresholds {
		sweepRows = append(sweepRows, []float64{
			r.Thresholds[i],
			r.Sweep1[i].FPRate, r.Sweep1[i].TPRate,
			r.Sweep2[i].FPRate, r.Sweep2[i].TPRate,
		})
	}
	return writeCSVFile(dir, "fig9_sweep.csv",
		[]string{"threshold", "fp", "tp_attack1", "fp2", "tp_attack2"}, sweepRows)
}
