package attack

import (
	"fmt"

	"github.com/ares-cps/ares/internal/defense"
	"github.com/ares-cps/ares/internal/firmware"
	"github.com/ares-cps/ares/internal/mathx"
	"github.com/ares-cps/ares/internal/vars"
)

// StealthyAttack is the state-aware magnitude-scheduled injection of the
// "Requiem for a Drone" attack class: the attacker runs a *shadow copy* of
// the deployed control-invariants monitor on the state it can observe from
// its compromised region, and schedules the injected offset so the
// detection statistic never crosses a fraction (Budget) of the alarm
// threshold. While the shadow statistic is comfortably below budget the
// standing offset grows at Rate; when the statistic approaches the budget
// the offset backs off multiplicatively, letting the vehicle re-converge
// toward model-consistent behavior before pushing again.
//
// The result is the stealth/impact trade-off the paper class demonstrates:
// strictly less physical effect per unit time than the unthrottled ramp,
// but a detection statistic that stays under the monitor's threshold for
// the whole flight.
type StealthyAttack struct {
	// Region is the compromised MPU region; empty resolves to the target
	// variable's home region at Begin (the attacker runs inside the
	// process that owns the cell).
	Region string
	// Variable is the manipulated cell (a per-cycle-rewritten handoff
	// cell such as CMD.Roll — the offset is re-applied every tick).
	Variable string
	// Shadow is the attacker's replica of the deployed monitor (a fitted
	// clone; the attacker is assumed to know the defense, the standard
	// white-box assumption of the stealthy-attack literature). Required.
	Shadow *defense.ControlInvariants
	// Budget is the fraction of the shadow threshold the statistic must
	// stay under (default 0.6).
	Budget float64
	// Rate is the offset growth in rad/s while under budget (default
	// 0.05).
	Rate float64
	// Cap bounds the absolute standing offset (default 0.6 rad).
	Cap float64
	// Backoff is the multiplicative offset decay per tick while the
	// shadow statistic is over budget (default 0.98).
	Backoff float64

	ref      vars.Ref
	offset   float64
	lastNow  float64
	haveLast bool
	begun    bool
}

// Name implements Strategy.
func (a *StealthyAttack) Name() string { return "stealthy-injection" }

// Begin implements Strategy.
func (a *StealthyAttack) Begin(fw *firmware.Firmware) error {
	if a.Shadow == nil || !a.Shadow.Fitted() {
		return fmt.Errorf("attack: stealthy begin: needs a fitted shadow monitor")
	}
	region := a.Region
	if region == "" {
		home, ok := fw.Memory().RegionOf(a.Variable)
		if !ok {
			return fmt.Errorf("attack: stealthy begin: unknown variable %q", a.Variable)
		}
		region = home
	}
	ref, err := fw.Memory().Access(region, a.Variable, true)
	if err != nil {
		return fmt.Errorf("attack: stealthy begin: %w", err)
	}
	if a.Budget <= 0 || a.Budget >= 1 {
		a.Budget = 0.6
	}
	if a.Rate <= 0 {
		a.Rate = 0.05
	}
	if a.Cap <= 0 {
		a.Cap = 0.6
	}
	if a.Backoff <= 0 || a.Backoff >= 1 {
		a.Backoff = 0.98
	}
	a.ref = ref
	a.offset = 0
	a.haveLast = false
	a.Shadow.Reset()
	a.begun = true
	return nil
}

// Apply implements Strategy: one scheduling step per tick. The shadow
// monitor consumes the same observation the deployed monitor sees; the
// offset grows while the shadow statistic is under Budget×Threshold and
// decays while over.
func (a *StealthyAttack) Apply(fw *firmware.Firmware, now float64) {
	if !a.begun || now < 0 {
		return
	}
	dt := 0.0
	if a.haveLast && now > a.lastNow {
		dt = now - a.lastNow
	}
	a.lastNow = now
	a.haveLast = true

	v := a.Shadow.Observe(ciSampleOf(fw))
	if v.Stat >= a.Budget*a.Shadow.Threshold {
		a.offset *= a.Backoff
	} else {
		a.offset = mathx.Clamp(a.offset+a.Rate*dt, -a.Cap, a.Cap)
	}
	a.ref.Add(a.offset)
}
