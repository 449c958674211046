package experiments

import (
	"fmt"
	"io"

	"github.com/ares-cps/ares/internal/attack"
	"github.com/ares-cps/ares/internal/firmware"
)

// Fig6Result reproduces Figure 6: the control-invariants detector observing
// a benign mission, the ARES gradual manipulation, and the naive 30°-roll
// attack. Sub-figure (a) is the roll-angle series; (b) the cumulative error
// against the 400 000 threshold.
type Fig6Result struct {
	Benign, ARES, Naive *attack.SessionResult
	Threshold           float64
	AttackStart         float64
}

// Name implements Result.
func (*Fig6Result) Name() string { return "fig6" }

// RunFig6 executes the three instrumented flights.
func RunFig6(s *Suite) (*Fig6Result, error) {
	ci, err := s.CI()
	if err != nil {
		return nil, err
	}
	mission := s.attackMission()
	res := &Fig6Result{Threshold: ci.Threshold, AttackStart: 10}

	if res.Benign, err = attack.RunSession(attack.SessionConfig{
		Mission: mission, Duration: 60, Seed: s.Seed + 1, Monitors: attack.Monitors{CI: ci}, //areslint:ignore seedarith golden-pinned
	}); err != nil {
		return nil, err
	}
	// ARES: ramp the roll command ~2.5°/s through the navigator→
	// stabilizer handoff. The vehicle keeps tracking its (attacked)
	// attitude targets, so the control invariant stays satisfied while
	// the vehicle drifts off the path.
	if res.ARES, err = attack.RunSession(attack.SessionConfig{
		Mission: mission, Duration: 60, Seed: s.Seed + 2, Monitors: attack.Monitors{CI: ci}, //areslint:ignore seedarith golden-pinned
		Strategy: &attack.RampAttack{
			Region:   firmware.RegionStabilizer,
			Variable: "CMD.Roll",
			Rate:     0.0436, // 2.5°/s
			Cap:      0.4,
		},
		AttackStart: res.AttackStart,
	}); err != nil {
		return nil, err
	}
	// Naive: force the roll-rate integrator to its clamp — the vehicle
	// rolls hard against its own targets.
	if res.Naive, err = attack.RunSession(attack.SessionConfig{
		Mission: mission, Duration: 60, Seed: s.Seed + 3, Monitors: attack.Monitors{CI: ci}, //areslint:ignore seedarith golden-pinned
		Strategy: &attack.NaiveAttack{
			Region:   firmware.RegionStabilizer,
			Variable: "PIDR.INTEG",
			Value:    0.25,
		},
		AttackStart: res.AttackStart,
	}); err != nil {
		return nil, err
	}
	return res, nil
}

// WriteText implements Result.
func (r *Fig6Result) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintf(w,
		"Figure 6 — control invariants vs ARES and naive attack (threshold %.0f, attack at t=%.0fs)\n",
		r.Threshold, r.AttackStart); err != nil {
		return err
	}
	rows := []struct {
		name string
		res  *attack.SessionResult
	}{
		{"normal", r.Benign}, {"ARES", r.ARES}, {"naive", r.Naive},
	}
	if _, err := fmt.Fprintf(w, "%-8s %12s %10s %10s %10s %8s\n",
		"run", "maxCumErr", "detected", "alarm@t", "maxDev(m)", "crashed"); err != nil {
		return err
	}
	for _, row := range rows {
		alarm := "-"
		if row.res.FirstAlarmT >= 0 {
			alarm = fmt.Sprintf("%.1fs", row.res.FirstAlarmT)
		}
		if _, err := fmt.Fprintf(w, "%-8s %12.0f %10v %10s %10.1f %8v\n",
			row.name, row.res.MaxCI, row.res.DetectedCI, alarm,
			row.res.MaxPathDev, row.res.Crashed); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(w, "\n(a) roll angle (deg) and (b) cumulative error, sampled every 4 s:"); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%6s | %8s %8s %8s | %10s %10s %10s\n",
		"t(s)", "normal", "ARES", "naive", "normal", "ARES", "naive"); err != nil {
		return err
	}
	for i := 0; i < minLen(r.Benign.Trace, r.ARES.Trace, r.Naive.Trace); i += 64 {
		b, a, n := r.Benign.Trace[i], r.ARES.Trace[i], r.Naive.Trace[i]
		if _, err := fmt.Fprintf(w, "%6.1f | %8.1f %8.1f %8.1f | %10.0f %10.0f %10.0f\n",
			b.T, b.RollDeg, a.RollDeg, n.RollDeg, b.CIStat, a.CIStat, n.CIStat); err != nil {
			return err
		}
	}
	return nil
}

// WriteCSV implements Result.
func (r *Fig6Result) WriteCSV(dir string) error {
	writeOne := func(name string, res *attack.SessionResult) error {
		rows := make([][]float64, 0, len(res.Trace))
		for _, p := range res.Trace {
			rows = append(rows, []float64{p.T, p.RollDeg, p.CIStat, p.PathDev})
		}
		return writeCSVFile(dir, name, []string{"t", "roll_deg", "ci_cum_err", "path_dev"}, rows)
	}
	if err := writeOne("fig6_normal.csv", r.Benign); err != nil {
		return err
	}
	if err := writeOne("fig6_ares.csv", r.ARES); err != nil {
		return err
	}
	return writeOne("fig6_naive.csv", r.Naive)
}

func minLen(traces ...[]attack.TracePoint) int {
	m := len(traces[0])
	for _, t := range traces[1:] {
		if len(t) < m {
			m = len(t)
		}
	}
	return m
}
