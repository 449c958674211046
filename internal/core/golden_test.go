package core

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/ares-cps/ares/internal/attack"
	"github.com/ares-cps/ares/internal/defense"
	"github.com/ares-cps/ares/internal/firmware"
)

var updateGolden = flag.Bool("update", false, "rewrite the rollout golden with current output")

// TestRolloutsGolden pins every step of a Replay under a fixed, untrained
// policy for each goal × variable × defense cell of the attack envs.
func TestRolloutsGolden(t *testing.T) {
	mission := firmware.LineMission(40, 10)
	ci, err := attack.CalibrateMonitors(mission, 600)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	seed := int64(610)
	for _, goal := range []string{"deviation", "crash"} {
		for _, variable := range []string{"PIDR.INTEG", "CMD.Roll"} {
			for _, def := range []string{"none", "ci", "recovery"} {
				cfg := EnvConfig{Variable: variable, Mission: mission, Seed: seed}
				seed++
				if variable == "CMD.Roll" {
					cfg.MaxAction = 0.6
				}
				switch def {
				case "ci":
					cfg.Monitors.CI = ci.Clone()
				case "recovery":
					cfg.Monitors.Recovery = defense.NewRecoveryGuard(ci.Clone())
				}
				var env AttackEnv
				if goal == "crash" {
					env, err = NewCrashEnv(cfg, ForbiddenZone(40, 10))
				} else {
					env, err = NewDeviationEnv(cfg)
				}
				if err != nil {
					t.Fatal(err)
				}
				_, hi := env.ActionBounds()
				policy := func(obs []float64) float64 {
					return hi * math.Tanh(2*obs[0]+obs[len(obs)-1]+0.5)
				}
				r := Replay(env, policy, 20)
				fmt.Fprintf(&b, "%s/%s/%s: %+v\n", goal, variable, def, *r)
			}
		}
	}
	golden := filepath.Join("testdata", "rollouts.golden")
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
		t.Errorf("rollouts drifted from %s.\n--- got ---\n%s\n--- want ---\n%s", golden, b.String(), want)
	}
}
