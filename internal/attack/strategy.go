// Package attack implements the adversarial manipulation machinery: the
// injection channels of the paper's threat model (direct writes inside a
// compromised MPU memory region, and PARAM_SET commands over the GCS
// link), the naive baseline attack, the ARES-style gradual manipulation,
// and the instrumented attack session that drives every defense-evasion
// experiment (Figures 6–9).
package attack

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"github.com/ares-cps/ares/internal/firmware"
	"github.com/ares-cps/ares/internal/mathx"
	"github.com/ares-cps/ares/internal/mavlink"
	"github.com/ares-cps/ares/internal/vars"
)

// Strategy is one attack behavior applied to the running firmware.
type Strategy interface {
	// Name identifies the strategy in reports.
	Name() string
	// Begin resolves the strategy's targets against the firmware. It is
	// called once when the attack activates.
	Begin(fw *firmware.Firmware) error
	// Apply performs the manipulation for the current tick; now is the
	// simulation time in seconds since the attack began.
	Apply(fw *firmware.Firmware, now float64)
}

// NaiveAttack overwrites a state variable with a fixed extreme value every
// tick — the paper's baseline "simple attack strategy which naively sets
// the roll angle to 30 degrees".
type NaiveAttack struct {
	// Region is the compromised MPU region the write comes from.
	Region string
	// Variable is the target state variable.
	Variable string
	// Value is the forced value.
	Value float64

	ref vars.Ref
}

// Name implements Strategy.
func (a *NaiveAttack) Name() string { return "naive" }

// Begin implements Strategy: it obtains the write capability through the
// compromised region's memory view, so a target outside the region fails
// exactly as the MPU would make it fail.
func (a *NaiveAttack) Begin(fw *firmware.Firmware) error {
	ref, err := fw.Memory().Access(a.Region, a.Variable, true)
	if err != nil {
		return fmt.Errorf("attack: naive begin: %w", err)
	}
	a.ref = ref
	return nil
}

// Apply implements Strategy.
func (a *NaiveAttack) Apply(_ *firmware.Firmware, _ float64) {
	a.ref.Set(a.Value)
}

// GradualAttack is the ARES manipulation: at every action interval it
// shifts the target variable by a small delta, optionally saturating at a
// cap. The paper's headline exploit increases the roll response ~2.5°/s by
// adding ~0.00625° of input error per 400 Hz step until 45°.
type GradualAttack struct {
	// Region is the compromised MPU region.
	Region string
	// Variable is the manipulated state variable.
	Variable string
	// Delta is the per-application increment.
	Delta float64
	// Interval is the time between applications in seconds (0 = every
	// tick; the paper's RL agent acts every 0.3 s).
	Interval float64
	// Cap, when non-zero, bounds the absolute accumulated manipulation.
	Cap float64

	ref       vars.Ref
	lastApply float64
	applied   float64
	begun     bool
}

// Name implements Strategy.
func (a *GradualAttack) Name() string { return "ares-gradual" }

// Begin implements Strategy.
func (a *GradualAttack) Begin(fw *firmware.Firmware) error {
	ref, err := fw.Memory().Access(a.Region, a.Variable, true)
	if err != nil {
		return fmt.Errorf("attack: gradual begin: %w", err)
	}
	a.ref = ref
	a.lastApply = -1e9
	a.applied = 0
	a.begun = true
	return nil
}

// Apply implements Strategy.
func (a *GradualAttack) Apply(_ *firmware.Firmware, now float64) {
	if !a.begun {
		return
	}
	if a.Interval > 0 && now-a.lastApply < a.Interval {
		return
	}
	if a.Cap > 0 && math.Abs(a.applied+a.Delta) > a.Cap {
		return
	}
	a.ref.Add(a.Delta)
	a.applied += a.Delta
	a.lastApply = now
}

// RampAttack writes a slowly growing offset into a per-cycle-rewritten cell
// (such as the CMD.* navigator→stabilizer handoff) at every tick: the
// paper's headline manipulation that "increases the roll angles for 2.5
// degrees every second ... until it reaches 45 degrees". Because the target
// cell is recomputed each cycle, the injected value acts as a standing
// offset equal to Rate·t, saturating at Cap.
type RampAttack struct {
	// Region and Variable locate the handoff cell.
	Region, Variable string
	// Rate is the offset growth in units/s (the paper: 2.5°/s ≈ 0.0436
	// rad/s on the roll command).
	Rate float64
	// Cap bounds the offset magnitude (the paper: 45° ≈ 0.785 rad).
	Cap float64

	ref   vars.Ref
	begun bool
}

// Name implements Strategy.
func (a *RampAttack) Name() string { return "ares-ramp" }

// Begin implements Strategy.
func (a *RampAttack) Begin(fw *firmware.Firmware) error {
	ref, err := fw.Memory().Access(a.Region, a.Variable, true)
	if err != nil {
		return fmt.Errorf("attack: ramp begin: %w", err)
	}
	a.ref = ref
	a.begun = true
	return nil
}

// Offset returns the standing offset at attack time now.
func (a *RampAttack) Offset(now float64) float64 {
	off := a.Rate * now
	if a.Cap > 0 {
		off = mathx.Clamp(off, -a.Cap, a.Cap)
	}
	return off
}

// Apply implements Strategy.
func (a *RampAttack) Apply(_ *firmware.Firmware, now float64) {
	if !a.begun || now < 0 {
		return
	}
	a.ref.Add(a.Offset(now))
}

// JitterAttack writes a randomly resampled standing offset into a
// per-cycle-rewritten cell: the "random" manipulation alternative the
// paper's data-manipulation discussion considers (and rejects in favor of
// bounded gradual changes — zero-mean random offsets are largely averaged
// out by the vehicle's tracking dynamics, so they buy far less physical
// effect per unit of manipulation).
type JitterAttack struct {
	// Region and Variable locate the handoff cell.
	Region, Variable string
	// Amplitude bounds the uniform random offset.
	Amplitude float64
	// Interval is how often the offset is resampled (seconds).
	Interval float64
	// Seed makes the jitter reproducible.
	Seed int64

	ref      vars.Ref
	rng      *rand.Rand
	offset   float64
	lastDraw float64
	begun    bool
}

// Name implements Strategy.
func (a *JitterAttack) Name() string { return "random-jitter" }

// Begin implements Strategy.
func (a *JitterAttack) Begin(fw *firmware.Firmware) error {
	ref, err := fw.Memory().Access(a.Region, a.Variable, true)
	if err != nil {
		return fmt.Errorf("attack: jitter begin: %w", err)
	}
	a.ref = ref
	a.rng = rand.New(rand.NewSource(a.Seed))
	a.lastDraw = -1e9
	a.begun = true
	return nil
}

// Apply implements Strategy.
func (a *JitterAttack) Apply(_ *firmware.Firmware, now float64) {
	if !a.begun || now < 0 {
		return
	}
	if now-a.lastDraw >= a.Interval {
		a.offset = (a.rng.Float64()*2 - 1) * a.Amplitude
		a.lastDraw = now
	}
	a.ref.Add(a.offset)
}

// SetParamOnce issues a single PARAM_SET over the GCS channel when the
// attack begins — the first stage of a two-stage exploit (e.g. raising
// ATC_RAT_RLL_IMAX through its oversized documented range before pumping
// the integrator).
type SetParamOnce struct {
	Param string
	Value float64

	sent bool
}

// Name implements Strategy.
func (a *SetParamOnce) Name() string { return "param-once" }

// Begin implements Strategy.
func (a *SetParamOnce) Begin(fw *firmware.Firmware) error {
	if _, err := fw.Params().Get(a.Param); err != nil {
		return fmt.Errorf("attack: set-param begin: %w", err)
	}
	a.sent = false
	return nil
}

// Apply implements Strategy.
func (a *SetParamOnce) Apply(fw *firmware.Firmware, _ float64) {
	if a.sent {
		return
	}
	fw.Enqueue(&mavlink.ParamSet{Name: a.Param, Value: a.Value})
	a.sent = true
}

// Sequence composes strategies that run concurrently once the attack
// starts (e.g. a parameter change plus a memory manipulation).
type Sequence struct {
	Steps []Strategy
}

// Name implements Strategy.
func (s *Sequence) Name() string {
	names := make([]string, len(s.Steps))
	for i, st := range s.Steps {
		names[i] = st.Name()
	}
	return "seq(" + strings.Join(names, "+") + ")"
}

// Begin implements Strategy.
func (s *Sequence) Begin(fw *firmware.Firmware) error {
	for _, st := range s.Steps {
		if err := st.Begin(fw); err != nil {
			return err
		}
	}
	return nil
}

// Apply implements Strategy.
func (s *Sequence) Apply(fw *firmware.Firmware, now float64) {
	for _, st := range s.Steps {
		st.Apply(fw, now)
	}
}
