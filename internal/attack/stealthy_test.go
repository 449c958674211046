package attack

import (
	"testing"

	"github.com/ares-cps/ares/internal/defense"
	"github.com/ares-cps/ares/internal/firmware"
	"github.com/ares-cps/ares/internal/sensors"
)

func TestStealthyBeginValidation(t *testing.T) {
	fw, err := firmware.New(firmware.Config{Sensors: sensors.Seeded(0)})
	if err != nil {
		t.Fatal(err)
	}
	if err := (&StealthyAttack{Variable: "CMD.Roll"}).Begin(fw); err == nil {
		t.Error("shadow-less stealthy attack began")
	}
	if err := (&StealthyAttack{Variable: "CMD.Roll", Shadow: defense.NewControlInvariants()}).Begin(fw); err == nil {
		t.Error("unfitted shadow accepted")
	}

	mission := firmware.LineMission(40, 10)
	ci, err := CalibrateMonitors(mission, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := (&StealthyAttack{Variable: "NOPE.X", Shadow: ci.Clone()}).Begin(fw); err == nil {
		t.Error("unknown variable accepted")
	}
	a := &StealthyAttack{Variable: "CMD.Roll", Shadow: ci.Clone()}
	if err := a.Begin(fw); err != nil {
		t.Fatalf("valid stealthy attack rejected: %v", err)
	}
	if a.Budget != 0.6 || a.Rate != 0.05 || a.Cap != 0.6 || a.Backoff != 0.98 {
		t.Errorf("defaults not applied: %+v", a)
	}
}

// TestStealthySessionEvadesCI is the stealth/impact contract of the
// magnitude-scheduled injection class: the attack deviates the vehicle
// beyond its benign envelope, yet the deployed CI monitor — whose shadow
// the attacker schedules against — never alarms.
func TestStealthySessionEvadesCI(t *testing.T) {
	mission := firmware.LineMission(120, 10)
	ci, err := CalibrateMonitors(mission, 10)
	if err != nil {
		t.Fatal(err)
	}

	benign, err := RunSession(SessionConfig{
		Mission: mission, Duration: 60, Seed: 30, Monitors: Monitors{CI: ci.Clone()},
	})
	if err != nil {
		t.Fatal(err)
	}

	strat := &StealthyAttack{Variable: "CMD.Roll", Shadow: ci.Clone()}
	res, err := RunSession(SessionConfig{
		Mission:     mission,
		Duration:    60,
		Seed:        30,
		Monitors:    Monitors{CI: ci.Clone()},
		Strategy:    strat,
		AttackStart: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.DetectedCI {
		t.Errorf("stealthy attack detected (max %v, threshold %v)", res.MaxCI, ci.Threshold)
	}
	if res.MaxPathDev < benign.MaxPathDev+1 {
		t.Errorf("stealthy deviation %v not clearly above benign %v",
			res.MaxPathDev, benign.MaxPathDev)
	}
	if strat.offset <= 0 {
		t.Errorf("standing offset never grew: %v", strat.offset)
	}
}

// TestSessionRecoveryBoundsAttack: against the naive integrator-forcing
// attack the recovery guard must engage at the detection and measurably
// reduce the physical effect relative to an undefended flight.
func TestSessionRecoveryBoundsAttack(t *testing.T) {
	mission := firmware.LineMission(120, 10)
	ci, err := CalibrateMonitors(mission, 10)
	if err != nil {
		t.Fatal(err)
	}
	naive := func() *NaiveAttack {
		return &NaiveAttack{Region: firmware.RegionStabilizer, Variable: "PIDR.INTEG", Value: 0.25}
	}

	bare, err := RunSession(SessionConfig{
		Mission: mission, Duration: 60, Seed: 40,
		Strategy: naive(), AttackStart: 10,
	})
	if err != nil {
		t.Fatal(err)
	}

	guarded, err := RunSession(SessionConfig{
		Mission: mission, Duration: 60, Seed: 40,
		Strategy: naive(), AttackStart: 10,
		Monitors: Monitors{Recovery: defense.NewRecoveryGuard(ci.Clone())},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !guarded.Recovered || guarded.RecoveredAt <= 0 {
		t.Fatalf("guard never engaged: recovered=%v at=%v (max CI %v)",
			guarded.Recovered, guarded.RecoveredAt, guarded.MaxCI)
	}
	if !guarded.Detected() {
		t.Error("guard engagement not reported as a detection")
	}
	if guarded.MaxPathDev >= bare.MaxPathDev {
		t.Errorf("recovery did not bound deviation: %v (guarded) vs %v (bare)",
			guarded.MaxPathDev, bare.MaxPathDev)
	}
}
