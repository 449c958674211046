// Defense evasion: calibrate the control-invariants monitor on benign
// flights, then compare three missions under its watch — benign, the ARES
// roll-command ramp (stealthy), and a naive integrator-forcing attack
// (detected) — the Figure 6 experiment as a standalone program.
//
//	go run ./examples/defenseevasion
package main

import (
	"fmt"
	"os"

	"github.com/ares-cps/ares/internal/attack"
	"github.com/ares-cps/ares/internal/firmware"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "defenseevasion:", err)
		os.Exit(1)
	}
}

func run() error {
	mission := firmware.LineMission(120, 10)
	fmt.Println("calibrating the control-invariants monitor on 3 benign flights…")
	ci, err := attack.CalibrateMonitors(mission, 100)
	if err != nil {
		return err
	}
	fmt.Printf("identified model, threshold %.0f, window %d steps\n\n",
		ci.Threshold, ci.Window)

	type scenario struct {
		name     string
		strategy attack.Strategy
	}
	scenarios := []scenario{
		{"benign", nil},
		{"ARES ramp (2.5°/s)", &attack.RampAttack{
			Region:   firmware.RegionStabilizer,
			Variable: "CMD.Roll",
			Rate:     0.0436,
			Cap:      0.4,
		}},
		{"naive (integrator)", &attack.NaiveAttack{
			Region:   firmware.RegionStabilizer,
			Variable: "PIDR.INTEG",
			Value:    0.25,
		}},
	}

	fmt.Printf("%-20s %12s %9s %10s %10s\n",
		"scenario", "maxCumErr", "detected", "alarm@t", "maxDev(m)")
	for i, sc := range scenarios {
		res, err := attack.RunSession(attack.SessionConfig{
			Mission:     mission,
			Duration:    60,
			Seed:        200 + int64(i),
			Monitors:    attack.Monitors{CI: ci},
			Strategy:    sc.strategy,
			AttackStart: 10,
		})
		if err != nil {
			return err
		}
		alarm := "-"
		if res.FirstAlarmT >= 0 {
			alarm = fmt.Sprintf("%.1fs", res.FirstAlarmT)
		}
		fmt.Printf("%-20s %12.0f %9v %10s %10.1f\n",
			sc.name, res.MaxCI, res.DetectedCI, alarm, res.MaxPathDev)
	}
	fmt.Println("\nthe ramp deviates the vehicle while staying under the threshold;")
	fmt.Println("the naive attack fights the controller and lights the detector up.")
	return nil
}
