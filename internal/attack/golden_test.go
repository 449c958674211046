package attack

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/ares-cps/ares/internal/defense"
	"github.com/ares-cps/ares/internal/firmware"
)

var updateGolden = flag.Bool("update", false, "rewrite the session golden with current output")

// TestSessionsGolden pins every field of a fixed list of short sessions,
// trace included: each attack strategy against each monitor set. The list
// covers an engaged recovery guard, a variable-monitor alarm and a crash.
func TestSessionsGolden(t *testing.T) {
	mission := firmware.LineMission(60, 10)
	ci, err := CalibrateMonitors(mission, 40)
	if err != nil {
		t.Fatal(err)
	}
	ml, err := CalibrateML(mission, 40)
	if err != nil {
		t.Fatal(err)
	}
	watched := []string{"CMD.Roll", "CMD.Pitch", "PIDR.INTEG"}
	fw, err := firmware.Launch(firmware.Config{}, mission, 10)
	if err != nil {
		t.Fatal(err)
	}
	series := make([][]float64, len(watched))
	for i := 0; i < 20*400; i++ {
		fw.Step()
		for j, name := range watched {
			series[j] = append(series[j], varOf(fw, name))
		}
	}
	vm := defense.NewVariableMonitor()
	if err := vm.Train(watched, series); err != nil {
		t.Fatal(err)
	}

	strategies := []struct {
		name string
		make func() Strategy
	}{
		{"benign", func() Strategy { return nil }},
		{"naive", func() Strategy {
			return &NaiveAttack{Region: firmware.RegionStabilizer, Variable: "PIDR.INTEG", Value: 0.25}
		}},
		{"ramp", func() Strategy {
			return &RampAttack{Region: firmware.RegionStabilizer, Variable: "CMD.Roll", Rate: 0.0436, Cap: 0.4}
		}},
		{"stealthy", func() Strategy { return &StealthyAttack{Variable: "CMD.Roll", Shadow: ci.Clone()} }},
		{"paramset", func() Strategy {
			return &Sequence{Steps: []Strategy{
				&SetParamOnce{Param: "ATC_RAT_RLL_IMAX", Value: 4000},
				&GradualAttack{Region: firmware.RegionStabilizer, Variable: "PIDR.INTEG", Delta: 0.2, Interval: 0.3},
			}}
		}},
	}
	monitorSets := []struct {
		name string
		mons func() Monitors
	}{
		{"none", func() Monitors { return Monitors{} }},
		{"ci+ml+ekf", func() Monitors { return Monitors{CI: ci, ML: ml, EKF: defense.NewEKFResidual()} }},
		{"ci+varmon", func() Monitors { return Monitors{CI: ci, VarMon: vm} }},
		{"recovery", func() Monitors { return Monitors{Recovery: defense.NewRecoveryGuard(ci.Clone())} }},
	}
	var b strings.Builder
	seed := int64(41)
	for _, s := range strategies {
		for _, m := range monitorSets {
			cfg := SessionConfig{Mission: mission, Duration: 6, Seed: seed, Strategy: s.make(), AttackStart: 1, Monitors: m.mons()}
			seed++
			res, err := RunSession(cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", s.name, m.name, err)
			}
			fmt.Fprintf(&b, "%s/%s: %+v\n", s.name, m.name, *res)
		}
	}
	golden := filepath.Join("testdata", "sessions.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if b.String() != string(want) {
		t.Errorf("sessions drifted from %s", golden)
	}
}
