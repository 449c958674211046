package attack

import (
	"fmt"

	"github.com/ares-cps/ares/internal/defense"
	"github.com/ares-cps/ares/internal/firmware"
	"github.com/ares-cps/ares/internal/vars"
)

// Monitors is the defense set an attacked flight runs in the loop: the
// CI, ML and EKF monitors of Figures 6–8, the variable-level
// countermeasure and the SpecGuard-style recovery guard. Nil entries are
// skipped.
type Monitors struct {
	CI       *defense.ControlInvariants
	ML       *defense.MLMonitor
	EKF      *defense.EKFResidual
	VarMon   *defense.VariableMonitor
	Recovery *defense.RecoveryGuard
}

// Validate checks that every configured monitor can run. A monitor that
// learns from benign data must be fitted: an unfitted one would fly
// silently disarmed. The EKF residual monitor has no training step.
func (m Monitors) Validate() error {
	switch {
	case m.CI != nil && !m.CI.Fitted():
		return fmt.Errorf("attack: CI monitor is not identified")
	case m.ML != nil && !m.ML.Fitted():
		return fmt.Errorf("attack: ML monitor is not trained")
	case m.VarMon != nil && !m.VarMon.Fitted():
		return fmt.Errorf("attack: variable monitor is not trained")
	case m.Recovery != nil:
		return m.Recovery.Validate()
	}
	return nil
}

// Verdicts are one tick's monitor verdicts; an unset monitor's is zero.
type Verdicts struct {
	CI, ML, EKF, Var defense.Verdict
	// Guard is the recovery guard's detector verdict.
	Guard defense.Verdict
}

// Flight is one attacked flight: the one stepper under every attack
// session and every RL episode. It owns the injection hook and feeds the
// monitors; what an alarm means is the caller's decision.
type Flight struct {
	fw      *firmware.Firmware
	mons    Monitors
	start   float64
	varRefs []vars.Ref
	varVals []float64
	// ciRefs are ATT.DesRoll, ATT.DesPitch and ATT.DesYaw, resolved when
	// a CI monitor or the recovery guard runs; mlRefs are RATE.RDes and
	// PIDR.OUT, resolved when the ML monitor runs.
	ciRefs []vars.Ref
	mlRefs []vars.Ref
}

// Arm arms a flight launched by firmware.Launch: the monitors are
// validated and reset, and the cells the monitors observe, the variable
// monitor watches and the recovery guard actuates are resolved once (the
// defense package stays firmware-agnostic; this is the wiring layer).
// Flight time starts at the arming. inject runs every tick from the
// firmware's mid-pipeline hook, after the navigator writes the attitude
// command and before the stabilizer consumes it — the timing an attacker
// with code in the stabilizer region has. The recovery clamp runs after
// inject from the same hook, so the legitimate firmware gets the last
// word on what the stabilizer sees.
func Arm(fw *firmware.Firmware, mons Monitors, inject func(*firmware.Firmware)) (*Flight, error) {
	if err := mons.Validate(); err != nil {
		return nil, err
	}
	f := &Flight{fw: fw, mons: mons, start: fw.Time()}
	var err error
	if mons.VarMon != nil {
		if f.varRefs, err = lookupAll(fw, mons.VarMon.Names()); err != nil {
			return nil, err
		}
		f.varVals = make([]float64, len(f.varRefs))
		mons.VarMon.Reset()
	}
	var rec defense.RecoveryRefs
	if mons.Recovery != nil {
		if rec.Commands, err = lookupAll(fw, []string{"CMD.Roll", "CMD.Pitch"}); err != nil {
			return nil, err
		}
		if rec.Integrators, err = lookupAll(fw, []string{"PIDR.INTEG", "PIDP.INTEG"}); err != nil {
			return nil, err
		}
		mons.Recovery.Reset()
	}
	if mons.CI != nil || mons.Recovery != nil {
		if f.ciRefs, err = lookupAll(fw, ciCells); err != nil {
			return nil, err
		}
	}
	if mons.CI != nil {
		mons.CI.Reset()
	}
	if mons.ML != nil {
		if f.mlRefs, err = lookupAll(fw, mlCells); err != nil {
			return nil, err
		}
		mons.ML.Reset()
	}
	if mons.EKF != nil {
		mons.EKF.Reset()
	}
	fw.SetAttackHook(func() {
		inject(fw)
		if mons.Recovery != nil {
			mons.Recovery.Apply(rec)
		}
	})
	return f, nil
}

// Firmware exposes the running stack.
func (f *Flight) Firmware() *firmware.Firmware { return f.fw }

// Now is the flight time in seconds since launch.
func (f *Flight) Now() float64 { return f.fw.Time() - f.start }

// Tick steps the flight one control tick and feeds each configured
// monitor its observation. It overwrites v with the tick's verdicts and
// reports whether the vehicle is still flying (false once it has
// crashed). The recovery guard records its engagement at the tick's start
// time, Now before the step.
func (f *Flight) Tick(v *Verdicts) bool {
	now := f.Now()
	f.fw.Step()
	m := &f.mons
	*v = Verdicts{}
	if m.CI != nil || m.Recovery != nil {
		s := ciSampleOf(f.fw, f.ciRefs)
		if m.CI != nil {
			v.CI = m.CI.Observe(s)
		}
		if m.Recovery != nil {
			v.Guard = m.Recovery.Observe(s, now)
		}
	}
	if m.ML != nil {
		v.ML = m.ML.Observe(mlSampleOf(f.fw, f.mlRefs))
	}
	if m.EKF != nil {
		roll, _, _ := f.fw.Quad().Euler()
		estRoll, _, _ := f.fw.EKF().Attitude()
		v.EKF = m.EKF.Observe(roll, estRoll)
	}
	if m.VarMon != nil {
		for j, ref := range f.varRefs {
			f.varVals[j] = ref.Get()
		}
		v.Var = m.VarMon.Observe(f.varVals)
	}
	crashed, _ := f.fw.Quad().Crashed()
	return !crashed
}

// lookupAll resolves the named cells against a running firmware.
func lookupAll(fw *firmware.Firmware, names []string) ([]vars.Ref, error) {
	refs := make([]vars.Ref, len(names))
	for i, name := range names {
		ref, ok := fw.Vars().Lookup(name)
		if !ok {
			return nil, fmt.Errorf("attack: cell %q not registered", name)
		}
		refs[i] = ref
	}
	return refs, nil
}

// ciCells are the attitude targets the CI observation reads, and mlCells
// the roll-rate target and output the ML observation reads. Callers
// resolve them once per flight with lookupAll.
var (
	ciCells = []string{"ATT.DesRoll", "ATT.DesPitch", "ATT.DesYaw"}
	mlCells = []string{"RATE.RDes", "PIDR.OUT"}
)

// ciSampleOf extracts the control-invariants observation, reading the
// attitude targets through des, the resolved ciCells. Following Choi
// et al.'s implementation, the monitor reads the attitude *targets the
// firmware itself computed* (ATT.DesRoll/DesPitch/DesYaw) — it has no
// independent source of expected behavior. This is precisely the soundness
// gap ARES exploits: a manipulation that shifts the target and lets the
// vehicle track it stays self-consistent, while an attack that makes the
// vehicle diverge from its own targets (e.g. forcing the rate integrator)
// is caught.
func ciSampleOf(fw *firmware.Firmware, des []vars.Ref) defense.CISample {
	roll, pitch, yaw := fw.Quad().Euler()
	return defense.CISample{
		Roll: roll, Pitch: pitch, Yaw: yaw,
		DesRoll:  des[0].Get(),
		DesPitch: des[1].Get(),
		DesYaw:   des[2].Get(),
	}
}

// mlSampleOf extracts the ML-monitor observation: the roll-rate controller's
// target and output, through cells (the resolved mlCells), and its
// measurement.
func mlSampleOf(fw *firmware.Firmware, cells []vars.Ref) defense.MLSample {
	return defense.MLSample{
		Target: cells[0].Get(),
		Actual: fw.LastReading().IMU.Gyro.X,
		Output: cells[1].Get(),
	}
}

func varOf(fw *firmware.Firmware, name string) float64 {
	if ref, ok := fw.Vars().Lookup(name); ok {
		return ref.Get()
	}
	return 0
}
