package attack

import (
	"math"
	"runtime"
	"testing"

	"github.com/ares-cps/ares/internal/defense"
	"github.com/ares-cps/ares/internal/firmware"
	"github.com/ares-cps/ares/internal/sensors"
	"github.com/ares-cps/ares/internal/sim"
	"github.com/ares-cps/ares/internal/vars"
)

func TestNaiveAttackRequiresRegionAccess(t *testing.T) {
	fw, err := firmware.New(firmware.Config{Sensors: sensors.Seeded(1)})
	if err != nil {
		t.Fatal(err)
	}
	// Correct region: succeeds.
	a := &NaiveAttack{Region: firmware.RegionStabilizer, Variable: "PIDR.INTEG", Value: 1}
	if err := a.Begin(fw); err != nil {
		t.Fatal(err)
	}
	// Wrong region: the MPU denies the write capability.
	b := &NaiveAttack{Region: firmware.RegionDrivers, Variable: "PIDR.INTEG", Value: 1}
	if err := b.Begin(fw); err == nil {
		t.Error("cross-region attack target accepted")
	}
	// Unknown variable.
	c := &NaiveAttack{Region: firmware.RegionStabilizer, Variable: "NOPE", Value: 1}
	if err := c.Begin(fw); err == nil {
		t.Error("unknown variable accepted")
	}
}

func TestGradualAttackIntervalAndCap(t *testing.T) {
	fw, err := firmware.New(firmware.Config{Sensors: sensors.Seeded(2)})
	if err != nil {
		t.Fatal(err)
	}
	a := &GradualAttack{
		Region:   firmware.RegionStabilizer,
		Variable: "PIDR.INTEG",
		Delta:    0.1,
		Interval: 0.3,
		Cap:      0.25,
	}
	if err := a.Begin(fw); err != nil {
		t.Fatal(err)
	}
	ref, _ := fw.Vars().Lookup("PIDR.INTEG")
	a.Apply(fw, 0) // first shot
	if got := ref.Get(); got != 0.1 {
		t.Errorf("after first apply: %v", got)
	}
	a.Apply(fw, 0.1) // too soon
	if got := ref.Get(); got != 0.1 {
		t.Errorf("interval not respected: %v", got)
	}
	a.Apply(fw, 0.35) // second shot
	if got := ref.Get(); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("after second apply: %v", got)
	}
	a.Apply(fw, 0.7) // would exceed the cap
	if got := ref.Get(); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("cap not respected: %v", got)
	}
	if math.Abs(a.applied-0.2) > 1e-12 {
		t.Errorf("applied = %v", a.applied)
	}
	// Unbegun attack is inert.
	var idle GradualAttack
	idle.Apply(fw, 1)
}

func TestCalibrateMonitors(t *testing.T) {
	mission := firmware.SquareMission(25, 10)
	ci, err := CalibrateMonitors(mission, 10)
	if err != nil {
		t.Fatal(err)
	}
	ml, err := CalibrateML(mission, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !ci.Fitted() || !ml.Fitted() {
		t.Error("monitors not fitted")
	}
}

// TestCalibrateMonitorsAllocBound: a line:60 calibration holds a trace of
// about 1.7 MB and its three flights allocate about 0.3 MB. Collected into
// one slice regrown by append, the trace alone allocated 10.2 MB.
func TestCalibrateMonitorsAllocBound(t *testing.T) {
	mission := firmware.LineMission(60, 10)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, err := CalibrateMonitors(mission, 40); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 3<<20 {
		t.Errorf("one line:60 calibration allocated %.1f MB, want ≤ 3 MB", float64(got)/(1<<20))
	}
}

// TestCalibrationTraceChunks: the chunked calibration trace identifies the
// same monitor, bit for bit, as the flat slice of the same samples.
func TestCalibrationTraceChunks(t *testing.T) {
	var chunked ciTrace
	var flat []defense.CISample
	if _, err := calibrationFlights(firmware.LineMission(60, 10), sim.VehicleParams{}, 40, ciCells,
		func(fw *firmware.Firmware, des []vars.Ref) {
			s := ciSampleOf(fw, des)
			chunked.add(s)
			flat = append(flat, s)
		}); err != nil {
		t.Fatal(err)
	}
	if len(chunked) < 2 {
		t.Fatalf("trace of %d samples fills %d chunk(s); want a chunk boundary", len(flat), len(chunked))
	}
	a, b := defense.NewControlInvariants(), defense.NewControlInvariants()
	if err := a.Identify(chunked...); err != nil {
		t.Fatal(err)
	}
	if err := b.Identify(flat); err != nil {
		t.Fatal(err)
	}
	for i := range a.Alpha {
		if math.Float64bits(a.Alpha[i]) != math.Float64bits(b.Alpha[i]) {
			t.Errorf("alpha[%d] = %v over chunks, %v over the flat trace", i, a.Alpha[i], b.Alpha[i])
		}
	}
	if math.Float64bits(a.Scale) != math.Float64bits(b.Scale) {
		t.Errorf("scale = %v over chunks, %v over the flat trace", a.Scale, b.Scale)
	}
}

// TestSessionBenignVsNaiveVsRamp is the package's core integration test: it
// reproduces the Figure 6 shape — a benign mission stays far below the CI
// threshold, the naive integrator-forcing attack trips it, and the ARES
// ramp manipulation deviates the vehicle while staying undetected.
func TestSessionBenignVsNaiveVsRamp(t *testing.T) {
	mission := firmware.LineMission(120, 10)
	ci, err := CalibrateMonitors(mission, 10)
	if err != nil {
		t.Fatal(err)
	}

	benign, err := RunSession(SessionConfig{
		Mission: mission, Duration: 60, Seed: 20, Monitors: Monitors{CI: ci},
	})
	if err != nil {
		t.Fatal(err)
	}
	if benign.DetectedCI {
		t.Fatalf("benign mission raised a CI alarm (max %v)", benign.MaxCI)
	}
	if !benign.MissionComplete {
		t.Error("benign mission incomplete")
	}

	// The naive baseline forces the roll-rate integrator to its clamp:
	// the vehicle rolls hard against its own attitude targets, which is
	// exactly the divergence the control invariant expresses.
	naive, err := RunSession(SessionConfig{
		Mission:     mission,
		Duration:    60,
		Seed:        21,
		Monitors:    Monitors{CI: ci},
		Strategy:    &NaiveAttack{Region: firmware.RegionStabilizer, Variable: "PIDR.INTEG", Value: 0.25},
		AttackStart: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !naive.DetectedCI {
		t.Errorf("naive attack evaded CI (max %v, threshold %v)", naive.MaxCI, ci.Threshold)
	}

	// The ARES manipulation ramps the roll command ~2.5°/s through the
	// navigator→stabilizer handoff; the vehicle tracks its (attacked)
	// targets, so the invariant stays satisfied while the vehicle drifts.
	ramp, err := RunSession(SessionConfig{
		Mission:  mission,
		Duration: 60,
		Seed:     22,
		Monitors: Monitors{CI: ci},
		Strategy: &RampAttack{
			Region:   firmware.RegionStabilizer,
			Variable: "CMD.Roll",
			Rate:     0.0436,
			Cap:      0.4,
		},
		AttackStart: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ramp.DetectedCI {
		t.Errorf("ramp attack detected by CI (max %v)", ramp.MaxCI)
	}
	if ramp.MaxPathDev < benign.MaxPathDev+2 {
		t.Errorf("ramp deviation %v not clearly above benign %v",
			ramp.MaxPathDev, benign.MaxPathDev)
	}
}

// TestSessionValidation: a session refuses a config it cannot fly and
// every monitor that would fly silently disarmed because it was never
// fitted. The EKF residual monitor has no training step.
func TestSessionValidation(t *testing.T) {
	mission := firmware.LineMission(30, 10)
	for _, c := range []struct {
		name string
		cfg  SessionConfig
		ok   bool
	}{
		{"empty config", SessionConfig{}, false},
		{"empty mission", SessionConfig{Mission: firmware.NewMission(nil)}, false},
		{"unfitted CI", SessionConfig{Mission: mission, Monitors: Monitors{CI: defense.NewControlInvariants()}}, false},
		{"unfitted ML", SessionConfig{Mission: mission, Monitors: Monitors{ML: defense.NewMLMonitor(0.0025)}}, false},
		{"unfitted variable monitor", SessionConfig{Mission: mission, Monitors: Monitors{VarMon: defense.NewVariableMonitor()}}, false},
		{"guard with unfitted detector", SessionConfig{Mission: mission, Monitors: Monitors{Recovery: defense.NewRecoveryGuard(defense.NewControlInvariants())}}, false},
		{"EKF residual", SessionConfig{Mission: mission, Monitors: Monitors{EKF: defense.NewEKFResidual()}}, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			c.cfg.Duration = 0.1
			if _, err := RunSession(c.cfg); (err == nil) != c.ok {
				t.Errorf("err = %v, want ok = %v", err, c.ok)
			}
		})
	}
}

func TestSessionTraceSampling(t *testing.T) {
	mission := firmware.LineMission(30, 10)
	res, err := RunSession(SessionConfig{Mission: mission, Duration: 20, Seed: 30})
	if err != nil {
		t.Fatal(err)
	}
	// 16 Hz over 20 s ≈ 320 samples.
	if len(res.Trace) < 250 || len(res.Trace) > 340 {
		t.Errorf("trace has %d samples", len(res.Trace))
	}
	// Time is monotone.
	for i := 1; i < len(res.Trace); i++ {
		if res.Trace[i].T <= res.Trace[i-1].T {
			t.Fatalf("non-monotone trace time at %d", i)
		}
	}
}
