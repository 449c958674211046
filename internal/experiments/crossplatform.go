package experiments

import (
	"fmt"
	"io"

	"github.com/ares-cps/ares/internal/attack"
	"github.com/ares-cps/ares/internal/campaign"
	"github.com/ares-cps/ares/internal/firmware"
	"github.com/ares-cps/ares/internal/sim"
)

// crossPlatformResult evaluates the paper's generalizability claim (Section
// VI): the same methodology applied to the second virtual vehicle (the
// Pixhawk4-class airframe) without any retuning — the evaluation uses "two
// virtual vehicles, IRIS+ (a quadrotor) and Pixhawk4".
type crossPlatformResult struct {
	// PerVehicle holds one row per airframe.
	PerVehicle []crossPlatformRow
}

// crossPlatformRow summarizes one airframe's run.
type crossPlatformRow struct {
	Vehicle string
	// BenignOK reports a clean benign mission; BenignMaxCI its statistic.
	BenignOK    bool
	BenignMaxCI float64
	// RampEvaded and RampDev report the ARES ramp outcome.
	RampEvaded bool
	RampDev    float64
	// NaiveDetected reports the baseline attack outcome.
	NaiveDetected bool
}

// Name implements Result.
func (*crossPlatformResult) Name() string { return "crossplatform" }

// runCrossPlatform replays the Figure 6 scenario set on both airframes,
// calibrating the monitor per vehicle (a deployed detector is fit to its
// own airframe).
func runCrossPlatform(s *Suite) (*crossPlatformResult, error) {
	mission := s.attackMission()
	vehicles := []struct {
		name   string
		params sim.VehicleParams
	}{
		{"IRIS+", sim.IRISPlusParams()},
		{"Pixhawk4", sim.Pixhawk4Params()},
	}
	res := &crossPlatformResult{}
	for vi, v := range vehicles {
		ci, err := attack.CalibrateMonitorsFor(mission, v.params, s.Seed+int64(80+vi*10)) //areslint:ignore seedarith golden-pinned
		if err != nil {
			return nil, fmt.Errorf("%s: %w", v.name, err)
		}
		row := crossPlatformRow{Vehicle: v.name}

		benign, err := attack.RunSession(attack.SessionConfig{
			Mission: mission, Duration: 60, Seed: s.Seed + int64(81+vi*10), //areslint:ignore seedarith golden-pinned
			Monitors: attack.Monitors{CI: ci}, Vehicle: v.params,
		})
		if err != nil {
			return nil, err
		}
		row.BenignOK = !benign.DetectedCI && benign.MissionComplete
		row.BenignMaxCI = benign.MaxCI

		ramp, err := attack.RunSession(attack.SessionConfig{
			Mission: mission, Duration: 60, Seed: s.Seed + int64(82+vi*10), //areslint:ignore seedarith golden-pinned
			Monitors: attack.Monitors{CI: ci}, Vehicle: v.params,
			Strategy: &attack.RampAttack{
				Region: firmware.RegionStabilizer, Variable: "CMD.Roll",
				Rate: 0.0436, Cap: 0.4,
			},
			AttackStart: 10,
		})
		if err != nil {
			return nil, err
		}
		row.RampEvaded = !ramp.DetectedCI
		row.RampDev = ramp.MaxPathDev

		naive, err := attack.RunSession(attack.SessionConfig{
			Mission: mission, Duration: 60, Seed: s.Seed + int64(83+vi*10), //areslint:ignore seedarith golden-pinned
			Monitors: attack.Monitors{CI: ci}, Vehicle: v.params,
			Strategy: &attack.NaiveAttack{
				Region: firmware.RegionStabilizer, Variable: "PIDR.INTEG",
				Value: 0.25,
			},
			AttackStart: 10,
		})
		if err != nil {
			return nil, err
		}
		row.NaiveDetected = naive.DetectedCI
		res.PerVehicle = append(res.PerVehicle, row)
	}
	return res, nil
}

// WriteText implements Result.
func (r *crossPlatformResult) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintln(w,
		"Cross-platform — the Figure 6 scenario set on both virtual vehicles"); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%-10s %10s %12s %12s %10s %10s\n",
		"vehicle", "benignOK", "benignMaxCI", "rampEvaded", "rampDev", "naiveDet"); err != nil {
		return err
	}
	for _, row := range r.PerVehicle {
		if _, err := fmt.Fprintf(w, "%-10s %10v %12.0f %12v %9.1fm %10v\n",
			row.Vehicle, row.BenignOK, row.BenignMaxCI,
			row.RampEvaded, row.RampDev, row.NaiveDetected); err != nil {
			return err
		}
	}
	return nil
}

// WriteCSV implements Result.
func (r *crossPlatformResult) WriteCSV(dir string) error {
	rows := make([][]string, 0, len(r.PerVehicle))
	for _, row := range r.PerVehicle {
		rows = append(rows, []string{
			row.Vehicle,
			fmt.Sprint(row.BenignOK),
			fmt.Sprint(row.RampEvaded),
			fmt.Sprintf("%.2f", row.RampDev),
			fmt.Sprint(row.NaiveDetected),
		})
	}
	return campaign.WriteCSV(dir, "crossplatform.csv",
		[]string{"vehicle", "benign_ok", "ramp_evaded", "ramp_dev", "naive_detected"}, rows)
}
