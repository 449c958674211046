// Package core implements the ARES pipeline — the paper's primary
// contribution. It profiles the RAV in simulated flight (collecting both
// the dataflash-visible KSVL and the intermediate controller variables
// traced through the memory-region instrumentation), runs the statistical
// dependency analysis of Algorithm 1 to produce target state variable
// lists, and trains reinforcement-learning agents that craft adversarial
// value sequences for the selected variables.
package core

import (
	"fmt"
)

// ControllerGroup identifies one "essential controller software" function
// of the paper's Table II: the known (dataflash-visible) state variables
// that describe its behavior, plus the intermediate variables inside its
// memory region that expand the KSVL into the ESVL.
type ControllerGroup struct {
	// Name labels the controller function ("PID", "Sqrt", "SINS").
	Name string
	// KSVL lists the dataflash-visible state variables.
	KSVL []string
	// Added lists the intermediate controller variables the memory
	// instrumentation contributes.
	Added []string
	// Responses lists the vehicle dynamics regression targets.
	Responses []string
}

// ESVL returns the expanded state variable list (KSVL ∪ Added).
func (g ControllerGroup) ESVL() []string {
	out := make([]string, 0, len(g.KSVL)+len(g.Added))
	out = append(out, g.KSVL...)
	out = append(out, g.Added...)
	return out
}

// standardGroups returns the three controller functions of Table II mapped
// onto this firmware's variable inventory. The counts reproduce the
// paper's structure: PID 28→+36→64, Sqrt 9→+12→21, SINS 14→+19→33.
func standardGroups() []ControllerGroup {
	pidLog := func(prefix string) []string {
		return []string{
			prefix + ".Tar", prefix + ".Act",
			prefix + ".P", prefix + ".I", prefix + ".D",
		}
	}
	pidInner := func(prefix string) []string {
		return []string{
			prefix + ".KP", prefix + ".KI", prefix + ".KD", prefix + ".KFF",
			prefix + ".IMAX", prefix + ".DT", prefix + ".SCALER",
			prefix + ".INTEG", prefix + ".INPUT", prefix + ".DERIV",
			prefix + ".OUT", prefix + ".FF",
		}
	}
	sqrtInner := func(prefix string) []string {
		return []string{prefix + ".P", prefix + ".LIM", prefix + ".ERR", prefix + ".OUT"}
	}

	pid := ControllerGroup{
		Name: "PID",
		KSVL: concat(
			[]string{
				"ATT.DesRoll", "ATT.Roll", "ATT.DesPitch", "ATT.Pitch",
				"ATT.DesYaw", "ATT.Yaw",
			},
			[]string{
				"IMU.GyrX", "IMU.GyrY", "IMU.GyrZ",
				"IMU.AccX", "IMU.AccY", "IMU.AccZ",
			},
			pidLog("PIDR"), pidLog("PIDP"), pidLog("PIDY"),
			[]string{"CTUN.ThO"},
		), // 6 + 6 + 15 + 1 = 28
		Added: concat(
			pidInner("PIDR"), pidInner("PIDP"), pidInner("PIDY"),
		), // 36
		Responses: []string{"ATT.Roll", "ATT.Pitch", "ATT.Yaw"},
	}

	sqrt := ControllerGroup{
		Name: "Sqrt",
		KSVL: []string{
			"ATT.DesRoll", "ATT.Roll", "ATT.DesPitch", "ATT.Pitch",
			"ATT.DesYaw", "ATT.Yaw",
			"RATE.RDes", "RATE.PDes", "RATE.YDes",
		}, // 9
		Added: concat(
			sqrtInner("ANGR"), sqrtInner("ANGP"), sqrtInner("ANGY"),
		), // 12
		Responses: []string{"RATE.RDes", "RATE.PDes"},
	}

	sins := ControllerGroup{
		Name: "SINS",
		KSVL: []string{
			"EKF1.Roll", "EKF1.Pitch", "EKF1.Yaw",
			"EKF1.VN", "EKF1.VE", "EKF1.VD",
			"EKF1.PN", "EKF1.PE", "EKF1.PD",
			"GPS.PN", "GPS.PE", "GPS.PD",
			"BARO.Alt", "MAG.Yaw",
		}, // 14
		Added: []string{
			"SINS.VGAIN", "SINS.PGAIN",
			"SINS.VN", "SINS.VE", "SINS.VD",
			"SINS.PN", "SINS.PE", "SINS.PD",
			"SINS.VCORR", "SINS.PCORR", "SINS.DT",
			"NKF4.IPos", "NKF4.IVel", "NKF4.IMag",
			"NTUN.DVelX", "NTUN.DVelY", "NTUN.DVelZ",
			"NTUN.DAccX", "NTUN.DAccY",
		}, // 19
		Responses: []string{"EKF1.VN", "EKF1.VE"},
	}

	return []ControllerGroup{pid, sqrt, sins}
}

// RollESVL returns the 24-variable expanded state variable list for the
// vehicle's roll control, the subject of the paper's Figure 5 heat map:
// vehicle dynamics, IMU measurements and the roll-rate PID intermediates.
func RollESVL() []string {
	return []string{
		"ATT.DesRoll", "ATT.Roll",
		"PIDR.I", "PIDR.INPUT", "PIDR.INTEG", "PIDR.DERIV",
		"PIDR.P", "PIDR.D", "PIDR.OUT",
		"NTUN.tv", "RATE.RDes", "CMD.Roll",
		"IMU.GyrX", "IMU.GyrY", "IMU.GyrZ",
		"IMU.AccX", "IMU.AccY", "IMU.AccZ",
		"EKF1.VN", "EKF1.VE", "EKF1.VD",
		"EKF1.PN", "EKF1.PE", "EKF1.PD",
	}
}

// rollResponse is the response variable of the Figure 5 analysis.
const rollResponse = "ATT.Roll"

// GroupByName finds a standard group.
func GroupByName(name string) (ControllerGroup, error) {
	for _, g := range standardGroups() {
		if g.Name == name {
			return g, nil
		}
	}
	return ControllerGroup{}, fmt.Errorf("core: unknown controller group %q", name)
}

func concat(lists ...[]string) []string {
	var out []string
	for _, l := range lists {
		out = append(out, l...)
	}
	return out
}
