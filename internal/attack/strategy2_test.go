package attack

import (
	"math"
	"testing"

	"github.com/ares-cps/ares/internal/defense"
	"github.com/ares-cps/ares/internal/firmware"
	"github.com/ares-cps/ares/internal/sensors"
	"github.com/ares-cps/ares/internal/sim"
)

func pixhawkParams() sim.VehicleParams { return sim.Pixhawk4Params() }

func TestStrategyNames(t *testing.T) {
	tests := []struct {
		s    Strategy
		want string
	}{
		{&NaiveAttack{}, "naive"},
		{&GradualAttack{}, "ares-gradual"},
		{&RampAttack{}, "ares-ramp"},
		{&JitterAttack{}, "random-jitter"},
		{&SetParamOnce{}, "param-once"},
		{&Sequence{Steps: []Strategy{&NaiveAttack{}, &RampAttack{}}}, "seq(naive+ares-ramp)"},
	}
	for _, tt := range tests {
		if got := tt.s.Name(); got != tt.want {
			t.Errorf("Name() = %q, want %q", got, tt.want)
		}
	}
}

func TestRampAttackOffsetProfile(t *testing.T) {
	fw, err := firmware.New(firmware.Config{Sensors: sensors.Seeded(11)})
	if err != nil {
		t.Fatal(err)
	}
	a := &RampAttack{
		Region:   firmware.RegionStabilizer,
		Variable: "CMD.Roll",
		Rate:     0.1,
		Cap:      0.25,
	}
	// Unbegun: inert.
	a.Apply(fw, 1)
	if err := a.Begin(fw); err != nil {
		t.Fatal(err)
	}
	// The offset grows linearly then saturates at the cap.
	if got := a.Offset(1); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("Offset(1) = %v, want 0.1", got)
	}
	if got := a.Offset(10); got != 0.25 {
		t.Errorf("Offset(10) = %v, want cap 0.25", got)
	}
	// Negative time (pre-attack) applies nothing.
	ref, _ := fw.Vars().Lookup("CMD.Roll")
	before := ref.Get()
	a.Apply(fw, -1)
	if ref.Get() != before {
		t.Error("pre-attack Apply wrote")
	}
	a.Apply(fw, 2)
	if got := ref.Get() - before; math.Abs(got-0.2) > 1e-12 {
		t.Errorf("applied offset = %v, want 0.2", got)
	}
	// Wrong region fails.
	bad := &RampAttack{Region: firmware.RegionDrivers, Variable: "CMD.Roll"}
	if err := bad.Begin(fw); err == nil {
		t.Error("cross-region ramp accepted")
	}
}

func TestJitterAttackBehavior(t *testing.T) {
	fw, err := firmware.New(firmware.Config{Sensors: sensors.Seeded(12)})
	if err != nil {
		t.Fatal(err)
	}
	a := &JitterAttack{
		Region:    firmware.RegionStabilizer,
		Variable:  "CMD.Roll",
		Amplitude: 0.5,
		Interval:  0.3,
		Seed:      1,
	}
	a.Apply(fw, 1) // unbegun: inert
	if err := a.Begin(fw); err != nil {
		t.Fatal(err)
	}
	ref, _ := fw.Vars().Lookup("CMD.Roll")
	ref.Set(0)
	a.Apply(fw, 0)
	first := ref.Get()
	if first == 0 || math.Abs(first) > 0.5 {
		t.Errorf("first offset = %v, want nonzero within ±0.5", first)
	}
	// Within the interval the offset value repeats (standing offset).
	ref.Set(0)
	a.Apply(fw, 0.1)
	if got := ref.Get(); got != first {
		t.Errorf("offset changed within interval: %v vs %v", got, first)
	}
	// After the interval, a new draw (with overwhelming probability).
	ref.Set(0)
	a.Apply(fw, 0.4)
	if got := ref.Get(); got == first {
		t.Errorf("offset did not resample after interval")
	}
	// Determinism across same-seed instances.
	b := &JitterAttack{Region: firmware.RegionStabilizer, Variable: "CMD.Roll",
		Amplitude: 0.5, Interval: 0.3, Seed: 1}
	if err := b.Begin(fw); err != nil {
		t.Fatal(err)
	}
	ref.Set(0)
	b.Apply(fw, 0)
	if ref.Get() != first {
		t.Error("same-seed jitter diverged")
	}
	// Bad target.
	bad := &JitterAttack{Region: firmware.RegionDrivers, Variable: "CMD.Roll"}
	if err := bad.Begin(fw); err == nil {
		t.Error("cross-region jitter accepted")
	}
}

func TestSetParamOnceAndSequence(t *testing.T) {
	fw, err := firmware.New(firmware.Config{Sensors: sensors.Seeded(13)})
	if err != nil {
		t.Fatal(err)
	}
	seq := &Sequence{Steps: []Strategy{
		&SetParamOnce{Param: "ATC_RAT_RLL_IMAX", Value: 2000},
		&GradualAttack{
			Region: firmware.RegionStabilizer, Variable: "PIDR.INTEG",
			Delta: 0.1, Interval: 0.3,
		},
	}}
	if err := seq.Begin(fw); err != nil {
		t.Fatal(err)
	}
	seq.Apply(fw, 0)
	fw.Step() // drains the PARAM_SET
	v, _ := fw.Params().Get("ATC_RAT_RLL_IMAX")
	if v != 2000 {
		t.Errorf("IMAX = %v, want 2000", v)
	}
	// The param message is sent exactly once.
	seq.Apply(fw, 0.5)
	fw.Step()
	if replies := fw.DrainOutbox(); len(replies) > 1 {
		t.Errorf("param set more than once: %d replies", len(replies))
	}
	// A sequence containing a broken step fails Begin.
	bad := &Sequence{Steps: []Strategy{&SetParamOnce{Param: "NOPE"}}}
	if err := bad.Begin(fw); err == nil {
		t.Error("sequence with unknown param accepted")
	}
}

func TestSessionWithVariableMonitor(t *testing.T) {
	mission := firmware.LineMission(60, 10)

	// Train the variable monitor on a short benign trace of the command
	// handoff AND the roll integrator: the navigator's counter-reaction
	// cancels a standing offset in the command cell at equilibrium, so a
	// robust variable-level monitor watches the set of cells the attack's
	// footprint spreads across (as the countermeasure experiment does).
	watched := []string{"CMD.Roll", "PIDR.INTEG"}
	fw, err := firmware.New(firmware.Config{Sensors: sensors.Seeded(14)})
	if err != nil {
		t.Fatal(err)
	}
	if err := fw.Takeoff(10); err != nil {
		t.Fatal(err)
	}
	fw.RunFor(10)
	series := make([][]float64, len(watched))
	for i := 0; i < 20*400; i++ {
		fw.Step()
		for j, name := range watched {
			ref, _ := fw.Vars().Lookup(name)
			series[j] = append(series[j], ref.Get())
		}
	}
	vm := defense.NewVariableMonitor()
	if err := vm.Train(watched, series); err != nil {
		t.Fatal(err)
	}

	// The ramp attack trips the variable monitor inside a session.
	res, err := RunSession(SessionConfig{
		Mission: mission, Duration: 40, Seed: 15, Monitors: Monitors{VarMon: vm},
		Strategy: &RampAttack{
			Region: firmware.RegionStabilizer, Variable: "CMD.Roll",
			Rate: 0.0436, Cap: 0.4,
		},
		AttackStart: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.DetectedVar {
		t.Errorf("variable monitor missed the ramp (max %v)", res.MaxVar)
	}
	if res.AlarmedVariable != "CMD.Roll" && res.AlarmedVariable != "PIDR.INTEG" {
		t.Errorf("alarmed variable = %q, want a watched cell", res.AlarmedVariable)
	}
	if !res.Detected() {
		t.Error("aggregate Detected() false despite variable alarm")
	}
	// A monitor watching an unknown variable is a config error.
	vmBad := defense.NewVariableMonitor()
	if err := vmBad.Train([]string{"NO.SUCH"}, [][]float64{series[0]}); err != nil {
		t.Fatal(err)
	}
	if _, err := RunSession(SessionConfig{
		Mission: mission, Duration: 5, Seed: 16, Monitors: Monitors{VarMon: vmBad},
	}); err == nil {
		t.Error("unknown watched variable accepted")
	}
}

func TestSessionCrossPlatformVehicle(t *testing.T) {
	// The session flies the Pixhawk4 airframe when configured.
	res, err := RunSession(SessionConfig{
		Mission:  firmware.LineMission(40, 10),
		Duration: 30,
		Seed:     17,
		Vehicle:  pixhawkParams(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Crashed {
		t.Fatalf("Pixhawk4 session crashed: %s", res.CrashReason)
	}
	if !res.MissionComplete {
		t.Error("Pixhawk4 session mission incomplete")
	}
}
