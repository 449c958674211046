package defense

import (
	"fmt"

	"github.com/ares-cps/ares/internal/vars"
)

// RecoveryRefs are the live control cells a RecoveryGuard actuates while
// engaged. The guard itself stays firmware-agnostic — whoever runs the
// vehicle (attack.Flight) resolves the cells and hands the references
// over, exactly as monitors receive samples instead of a firmware handle.
type RecoveryRefs struct {
	// Commands are the attitude-command handoff cells (e.g. CMD.Roll,
	// CMD.Pitch) clamped into the conservative flight envelope.
	Commands []vars.Ref
	// Integrators are the stateful controller cells (e.g. PIDR.INTEG,
	// PIDP.INTEG) bled toward zero so a pumped integrator cannot keep
	// feeding the actuators after detection.
	Integrators []vars.Ref
}

// RecoveryGuard is the SpecGuard-style specification-aware recovery defense
// (Dash et al., CCS'24): instead of only *flagging* an attack the way the
// plain monitors do, it responds to a detection by switching the vehicle
// into a conservative recovery controller that keeps the mission
// specification satisfied — attitude commands are clamped to a safe
// envelope and attacker-pumped integrators are bled off, so the physical
// effect of a manipulation is bounded even though the manipulation itself
// continues.
//
// Detection reuses the control-invariants monitor (the guard wraps a fitted
// ControlInvariants clone); what is new is the recovery actuation. The
// guard is engaged at the first alarm and stays engaged for the rest of the
// flight — SpecGuard's "recovery until mission completion" mode — because
// an attacker who is still resident would simply resume the moment the
// clamps lift.
//
// Like the monitors, a guard instance carries per-flight runtime state:
// concurrent flights must use Clone.
type RecoveryGuard struct {
	// Detector is the fitted in-loop detector whose first alarm engages
	// recovery.
	Detector *ControlInvariants
	// ClampAngle bounds the absolute attitude command (radians) while
	// engaged. The default 0.3 rad (~17°) keeps enough authority for the
	// navigator to counter-steer back to the path — a tighter envelope
	// makes recovery *worse* than no defense, because the vehicle cannot
	// fight the attacked controller — while still denying the 0.4–0.8 rad
	// offsets the exploits need.
	ClampAngle float64
	// IntegratorDecay is the per-tick multiplicative bleed applied to the
	// integrator cells while engaged. It must be aggressive (default 0.5)
	// because a resident attacker re-pumps the cell every cycle: the bleed
	// runs once per tick after the attacker's write, so the effective
	// forcing is Value×IntegratorDecay.
	IntegratorDecay float64

	engaged   bool
	engagedAt float64
}

// NewRecoveryGuard wraps a fitted control-invariants detector in a recovery
// guard with the default conservative envelope.
func NewRecoveryGuard(det *ControlInvariants) *RecoveryGuard {
	return &RecoveryGuard{
		Detector:        det,
		ClampAngle:      0.3,
		IntegratorDecay: 0.5,
	}
}

// Observe feeds one sample to the wrapped detector and engages recovery on
// the first alarm. now is the flight time in seconds (recorded as the
// engagement time). The returned verdict is the detector's.
func (g *RecoveryGuard) Observe(s CISample, now float64) Verdict {
	if g.Detector == nil {
		return Verdict{}
	}
	v := g.Detector.Observe(s)
	if v.Alarm && !g.engaged {
		g.engaged = true
		g.engagedAt = now
	}
	return v
}

// Engaged reports whether recovery is active.
func (g *RecoveryGuard) Engaged() bool { return g.engaged }

// EngagedAt returns the flight time of the first alarm (0 if never).
func (g *RecoveryGuard) EngagedAt() float64 { return g.engagedAt }

// Apply actuates one recovery tick: clamp the command cells into the
// conservative envelope and bleed the integrators. It is a no-op until the
// guard engages, so callers can run it unconditionally every tick.
func (g *RecoveryGuard) Apply(refs RecoveryRefs) {
	if !g.engaged {
		return
	}
	clamp := g.ClampAngle
	for _, r := range refs.Commands {
		if v := r.Get(); v > clamp {
			r.Set(clamp)
		} else if v < -clamp {
			r.Set(-clamp)
		}
	}
	for _, r := range refs.Integrators {
		r.Set(r.Get() * g.IntegratorDecay)
	}
}

// Fitted reports whether the wrapped detector is identified.
func (g *RecoveryGuard) Fitted() bool {
	return g.Detector != nil && g.Detector.Fitted()
}

// Clone returns an independent guard sharing the identified model but with
// cleared runtime state, for concurrent flights.
func (g *RecoveryGuard) Clone() *RecoveryGuard {
	c := &RecoveryGuard{
		ClampAngle:      g.ClampAngle,
		IntegratorDecay: g.IntegratorDecay,
	}
	if g.Detector != nil {
		c.Detector = g.Detector.Clone()
	}
	return c
}

// Reset clears the engagement and the detector's runtime state, keeping the
// identified model.
func (g *RecoveryGuard) Reset() {
	g.engaged = false
	g.engagedAt = 0
	if g.Detector != nil {
		g.Detector.Reset()
	}
}

// Validate checks the guard's configuration without flying anything.
func (g *RecoveryGuard) Validate() error {
	if !g.Fitted() {
		return fmt.Errorf("defense: recovery guard needs an identified detector")
	}
	if g.ClampAngle <= 0 {
		return fmt.Errorf("defense: recovery guard needs a positive clamp angle")
	}
	if g.IntegratorDecay < 0 || g.IntegratorDecay >= 1 {
		return fmt.Errorf("defense: recovery integrator decay must be in [0,1)")
	}
	return nil
}
