package experiments

import (
	"fmt"
	"io"

	"github.com/ares-cps/ares/internal/attack"
	"github.com/ares-cps/ares/internal/defense"
	"github.com/ares-cps/ares/internal/firmware"
	"github.com/ares-cps/ares/internal/mathx"
)

// Fig7Result reproduces Figure 7: the ML output monitor observing a
// hovering vehicle attacked at t=12 s by a gradual manipulation of the PID
// scaler ratio, against the naive attack. Sub-figure (a) is the roll angle,
// (b) the control output distance against the 0.01 threshold.
type Fig7Result struct {
	Benign, ARES, Naive *attack.SessionResult
	Threshold           float64
	AttackStart         float64
}

// Name implements Result.
func (*Fig7Result) Name() string { return "fig7" }

// hoverMission returns the single-point hover the Figure 7 scenario uses
// (the paper hovers at 5 ft ≈ 1.5 m; a slightly higher hover keeps the
// tip-over guard out of the way without changing the detection behavior).
func hoverMission() *firmware.Mission {
	return firmware.NewMission([]firmware.Waypoint{
		{Pos: mathx.V3(0, 0, -3)},
	})
}

// RunFig7 executes the three hover flights against a hover-trained ML
// monitor.
func RunFig7(s *Suite) (*Fig7Result, error) {
	mission := hoverMission()
	ml, err := attack.CalibrateML(mission, s.Seed+60) //areslint:ignore seedarith golden-pinned
	if err != nil {
		return nil, err
	}
	res := &Fig7Result{Threshold: ml.Threshold, AttackStart: 12}

	if res.Benign, err = attack.RunSession(attack.SessionConfig{
		Mission: mission, Duration: 35, Seed: s.Seed + 4, Monitors: attack.Monitors{ML: ml}, //areslint:ignore seedarith golden-pinned
	}); err != nil {
		return nil, err
	}
	// ARES: gradually drift the PID scaler ratio.
	if res.ARES, err = attack.RunSession(attack.SessionConfig{
		Mission: mission, Duration: 35, Seed: s.Seed + 5, Monitors: attack.Monitors{ML: ml}, //areslint:ignore seedarith golden-pinned
		Strategy: &attack.GradualAttack{
			Region:   firmware.RegionStabilizer,
			Variable: "PIDR.SCALER",
			Delta:    0.003,
			Interval: 0.3,
			Cap:      0.3,
		},
		AttackStart: res.AttackStart,
	}); err != nil {
		return nil, err
	}
	// Naive: force the integrator to its clamp, snapping the roll and
	// making the output inconsistent with the controller inputs.
	if res.Naive, err = attack.RunSession(attack.SessionConfig{
		Mission: mission, Duration: 35, Seed: s.Seed + 6, Monitors: attack.Monitors{ML: ml}, //areslint:ignore seedarith golden-pinned
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
func (r *Fig7Result) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintf(w,
		"Figure 7 — ML output monitor vs ARES scaler attack (threshold %.3f, attack at t=%.0fs)\n",
		r.Threshold, r.AttackStart); err != nil {
		return err
	}
	rows := []struct {
		name string
		res  *attack.SessionResult
	}{
		{"normal", r.Benign}, {"ARES", r.ARES}, {"naive", r.Naive},
	}
	if _, err := fmt.Fprintf(w, "%-8s %12s %10s %12s\n",
		"run", "maxDistance", "detected", "maxRoll(deg)"); err != nil {
		return err
	}
	for _, row := range rows {
		maxRoll := 0.0
		for _, p := range row.res.Trace {
			if a := absf(p.RollDeg); a > maxRoll {
				maxRoll = a
			}
		}
		if _, err := fmt.Fprintf(w, "%-8s %12.4f %10v %12.1f\n",
			row.name, row.res.MaxML, row.res.DetectedML, maxRoll); err != nil {
			return err
		}
	}
	return nil
}

// WriteCSV implements Result.
func (r *Fig7Result) WriteCSV(dir string) error {
	writeOne := func(name string, res *attack.SessionResult) error {
		rows := make([][]float64, 0, len(res.Trace))
		for _, p := range res.Trace {
			rows = append(rows, []float64{p.T, p.RollDeg, p.MLStat})
		}
		return writeCSVFile(dir, name, []string{"t", "roll_deg", "ml_distance"}, rows)
	}
	if err := writeOne("fig7_normal.csv", r.Benign); err != nil {
		return err
	}
	if err := writeOne("fig7_ares.csv", r.ARES); err != nil {
		return err
	}
	return writeOne("fig7_naive.csv", r.Naive)
}

// Fig8Result reproduces Figure 8: the SAVIOR-style EKF residual monitor
// observing the controller-output attack enabled by the oversized
// ATC_RAT_RLL_IMAX range. Sub-figure (a) is the PID P/I/D outputs, (b) the
// sensed vs EKF-estimated roll whose residual stays near zero.
type Fig8Result struct {
	Attack      *attack.SessionResult
	AttackStart float64
	// EKFAlarm reports whether the residual monitor ever fired.
	EKFAlarm bool
	// MaxResidualDeg is the peak |ATT.R − EKF1.Roll| in degrees.
	MaxResidualDeg float64
	// MaxIOutput is the peak integrator output, demonstrating the
	// oversized-range exploitation.
	MaxIOutput float64
}

// Name implements Result.
func (*Fig8Result) Name() string { return "fig8" }

// RunFig8 executes the two-stage exploit: a range-valid PARAM_SET raising
// the integrator clamp through its documented ±5000-scale range, then a
// gradual integrator pump whose output feeds the motors directly.
func RunFig8(s *Suite) (*Fig8Result, error) {
	mission := s.attackMission()
	strategy := &attack.Sequence{Steps: []attack.Strategy{
		&attack.SetParamOnce{Param: "ATC_RAT_RLL_IMAX", Value: 4000},
		&attack.GradualAttack{
			Region:   firmware.RegionStabilizer,
			Variable: "PIDR.INTEG",
			Delta:    0.2,
			Interval: 0.3,
		},
	}}
	res := &Fig8Result{AttackStart: 30}
	session, err := attack.RunSession(attack.SessionConfig{
		Mission:     mission,
		Duration:    60,
		Seed:        s.Seed + 7, //areslint:ignore seedarith golden-pinned
		Monitors:    attack.Monitors{EKF: defense.NewEKFResidual()},
		Strategy:    strategy,
		AttackStart: res.AttackStart,
	})
	if err != nil {
		return nil, err
	}
	res.Attack = session
	res.EKFAlarm = session.DetectedEKF
	for _, p := range session.Trace {
		if d := absf(p.RollDeg - p.EKFRollDeg); d > res.MaxResidualDeg {
			res.MaxResidualDeg = d
		}
		if a := absf(p.PIDOutI); a > res.MaxIOutput {
			res.MaxIOutput = a
		}
	}
	return res, nil
}

// WriteText implements Result.
func (r *Fig8Result) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintf(w,
		"Figure 8 — EKF sensor-estimation monitor vs controller-output attack (attack at t=%.0fs)\n",
		r.AttackStart); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w,
		"integrator clamp raised to 4000 via in-range PARAM_SET (oversized ±5000 range)\n"); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w,
		"peak |I output| = %.2f, peak sensed-vs-EKF roll residual = %.2f deg\n",
		r.MaxIOutput, r.MaxResidualDeg); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w,
		"EKF monitor alarmed: %v; vehicle crashed: %v (%s)\n\n",
		r.EKFAlarm, r.Attack.Crashed, r.Attack.CrashReason); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%6s %10s %10s %10s | %10s %10s\n",
		"t(s)", "P", "I", "D", "ATT.R(deg)", "EKF1.Roll"); err != nil {
		return err
	}
	for i := 0; i < len(r.Attack.Trace); i += 48 {
		p := r.Attack.Trace[i]
		if _, err := fmt.Fprintf(w, "%6.1f %10.3f %10.3f %10.3f | %10.1f %10.1f\n",
			p.T, p.PIDOutP, p.PIDOutI, p.PIDOutD, p.RollDeg, p.EKFRollDeg); err != nil {
			return err
		}
	}
	return nil
}

// WriteCSV implements Result.
func (r *Fig8Result) WriteCSV(dir string) error {
	rows := make([][]float64, 0, len(r.Attack.Trace))
	for _, p := range r.Attack.Trace {
		rows = append(rows, []float64{
			p.T, p.PIDOutP, p.PIDOutI, p.PIDOutD,
			p.RollDeg, p.EKFRollDeg, p.EKFStat,
		})
	}
	return writeCSVFile(dir, "fig8_ekf.csv",
		[]string{"t", "pid_p", "pid_i", "pid_d", "att_roll_deg", "ekf_roll_deg", "cusum"},
		rows)
}
