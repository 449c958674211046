// Package control implements the ArduPilot-style cascaded controller stack:
// the AC_PID rate controller with its intermediate variables, the square
// root controller used for position and angle errors, the strapdown inertial
// navigation (SINS) corrector, the attitude and position cascades, and the
// quad-X motor mixer.
//
// Every controller keeps its internal state in plain float64 fields and
// exposes them through vars.Ref so the firmware layer can (a) place them in
// MPU memory regions, (b) trace them for the ESVL, and (c) let the attack
// layer manipulate them exactly as a memory-corrupting adversary would.
package control

import (
	"math"

	"github.com/ares-cps/ares/internal/mathx"
	"github.com/ares-cps/ares/internal/vars"
)

// PID is a single-axis PID controller modeled on ArduPilot's AC_PID: a
// filtered input, a clamped integrator, a filtered derivative, an optional
// feed-forward term and an output scaler.
//
// The exported-by-reference intermediate variables correspond to the
// v1..v7 intermediates of the paper's Figure 3: KP, KI, KD, DT, INTEG,
// INPUT, DERIV — plus the Scaler discussed for PX4's
// EKFNAVVELGAINSCALER and the per-term outputs logged as PIDR.P/I/D.
type PID struct {
	// Gains (v1 KP, v2 KI, v3 KD) and feed-forward.
	KP, KI, KD, KFF float64
	// IMax clamps the integrator contribution (absolute value).
	IMax float64
	// FilterHz is the input low-pass cutoff (0 disables).
	FilterHz float64
	// DT is the controller period in seconds (v4).
	DT float64
	// Scaler multiplies the final output; nominally 1. It reproduces the
	// PID scaler ratio attacked in the paper's Figure 7 experiment.
	Scaler float64
	// OutMin/OutMax clamp the final output. ArduPilot's oversized default
	// of ±5000 for rate controllers is the range-validation defect the
	// Figure 8 attack exploits; callers opt into tighter bounds.
	OutMin, OutMax float64

	// Live intermediate state (v5 INTEG, v6 INPUT, v7 DERIV).
	integrator float64
	input      float64
	derivative float64
	lastInput  float64
	hasInput   bool

	// Per-term outputs from the most recent Update, as logged by the
	// dataflash PIDR/PIDP/PIDY records.
	pOut, iOut, dOut, ffOut, output float64
	// target and actual mirror the dataflash "Tar"/"Act" log fields.
	target, actual float64
}

// PIDConfig holds construction parameters for a PID.
type PIDConfig struct {
	KP, KI, KD, KFF float64
	IMax            float64
	FilterHz        float64
	DT              float64
	OutMin, OutMax  float64
}

// NewPID builds a PID from the config, applying the ArduPilot-style
// oversized ±5000 output range when no explicit bounds are given.
func NewPID(cfg PIDConfig) *PID {
	outMin, outMax := cfg.OutMin, cfg.OutMax
	if outMin == 0 && outMax == 0 {
		outMin, outMax = -5000, 5000
	}
	dt := cfg.DT
	if dt <= 0 {
		dt = 1.0 / 400
	}
	return &PID{
		KP:       cfg.KP,
		KI:       cfg.KI,
		KD:       cfg.KD,
		KFF:      cfg.KFF,
		IMax:     cfg.IMax,
		FilterHz: cfg.FilterHz,
		DT:       dt,
		Scaler:   1,
		OutMin:   outMin,
		OutMax:   outMax,
	}
}

// Update runs one controller cycle for the given target and measured value
// and returns the control output. The error signal is filtered, integrated
// (with clamping) and differentiated exactly as AC_PID does.
func (p *PID) Update(target, actual float64) float64 {
	p.target, p.actual = target, actual
	err := target - actual

	// Input low-pass filter.
	if p.hasInput {
		alpha := mathx.LowPassAlpha(p.FilterHz, p.DT)
		p.input += (err - p.input) * alpha
	} else {
		p.input = err
		p.lastInput = err
		p.hasInput = true
	}

	// Derivative on the filtered input.
	if p.DT > 0 {
		p.derivative = (p.input - p.lastInput) / p.DT
	}
	p.lastInput = p.input

	// Integrator with clamping: the stored integrator is the I
	// contribution itself (gain pre-multiplied), as in AC_PID.
	if p.KI != 0 && p.DT > 0 {
		p.integrator += p.input * p.KI * p.DT
		if p.IMax > 0 {
			p.integrator = mathx.Clamp(p.integrator, -p.IMax, p.IMax)
		}
	}

	p.pOut = p.input * p.KP
	p.iOut = p.integrator
	p.dOut = p.derivative * p.KD
	p.ffOut = target * p.KFF
	sum := (p.pOut + p.iOut + p.dOut + p.ffOut) * p.Scaler
	p.output = mathx.Clamp(sum, p.OutMin, p.OutMax)
	return p.output
}

// P returns the proportional contribution of the last Update.
func (p *PID) P() float64 { return p.pOut }

// I returns the integral contribution of the last Update.
func (p *PID) I() float64 { return p.iOut }

// D returns the derivative contribution of the last Update.
func (p *PID) D() float64 { return p.dOut }

// FF returns the feed-forward contribution of the last Update.
func (p *PID) FF() float64 { return p.ffOut }

// RegisterVars exposes the controller's parameters and intermediates under
// the given prefix (e.g. "PIDR") in the variable set.
func (p *PID) RegisterVars(set *vars.Set, prefix string) error {
	reg := func(name string, kind vars.Kind, ptr *float64) error {
		return set.Register(prefix+"."+name, kind, ptr)
	}
	steps := []struct {
		name string
		kind vars.Kind
		ptr  *float64
	}{
		{"KP", vars.KindParam, &p.KP},
		{"KI", vars.KindParam, &p.KI},
		{"KD", vars.KindParam, &p.KD},
		{"KFF", vars.KindParam, &p.KFF},
		{"IMAX", vars.KindParam, &p.IMax},
		{"DT", vars.KindIntermediate, &p.DT},
		{"SCALER", vars.KindIntermediate, &p.Scaler},
		{"INTEG", vars.KindIntermediate, &p.integrator},
		{"INPUT", vars.KindIntermediate, &p.input},
		{"DERIV", vars.KindIntermediate, &p.derivative},
		{"P", vars.KindDynamic, &p.pOut},
		{"I", vars.KindDynamic, &p.iOut},
		{"D", vars.KindDynamic, &p.dOut},
		{"FF", vars.KindDynamic, &p.ffOut},
		{"OUT", vars.KindDynamic, &p.output},
		{"Tar", vars.KindDynamic, &p.target},
		{"Act", vars.KindDynamic, &p.actual},
	}
	for _, s := range steps {
		if err := reg(s.name, s.kind, s.ptr); err != nil {
			return err
		}
	}
	return nil
}

// SqrtController implements ArduPilot's sqrt_controller: a P controller
// whose response transitions from linear to square-root at large errors so
// the commanded correction respects a second-order (acceleration) limit.
type SqrtController struct {
	// P is the proportional gain.
	P float64
	// SecondOrdLim is the acceleration limit (units/s² of the output's
	// derivative); 0 disables limiting and the controller is purely linear.
	SecondOrdLim float64

	// Live intermediates for instrumentation.
	err    float64
	output float64
}

// newSqrtController builds a square-root controller.
func newSqrtController(p, secondOrdLim float64) *SqrtController {
	return &SqrtController{P: p, SecondOrdLim: secondOrdLim}
}

// Update returns the correction rate for the given error, mirroring
// AC_AttitudeControl::sqrt_controller.
func (s *SqrtController) Update(err float64) float64 {
	s.err = err
	switch {
	case s.SecondOrdLim <= 0 || s.P == 0:
		s.output = err * s.P
	default:
		linearDist := s.SecondOrdLim / (s.P * s.P)
		switch {
		case err > linearDist:
			s.output = math.Sqrt(2 * s.SecondOrdLim * (err - linearDist/2))
		case err < -linearDist:
			s.output = -math.Sqrt(2 * s.SecondOrdLim * (-err - linearDist/2))
		default:
			s.output = err * s.P
		}
	}
	return s.output
}

// RegisterVars exposes the controller's variables under the given prefix.
func (s *SqrtController) RegisterVars(set *vars.Set, prefix string) error {
	if err := set.Register(prefix+".P", vars.KindParam, &s.P); err != nil {
		return err
	}
	if err := set.Register(prefix+".LIM", vars.KindParam, &s.SecondOrdLim); err != nil {
		return err
	}
	if err := set.Register(prefix+".ERR", vars.KindIntermediate, &s.err); err != nil {
		return err
	}
	return set.Register(prefix+".OUT", vars.KindDynamic, &s.output)
}
