package control

import (
	"github.com/ares-cps/ares/internal/mathx"
	"github.com/ares-cps/ares/internal/vars"
)

// SINS is a strapdown inertial navigation system: it integrates body-frame
// accelerometer readings (rotated to the world frame via the current
// attitude) into velocity and position estimates, and applies first-order
// complementary corrections toward GPS/baro aiding measurements.
//
// This is the third controller function of the paper's Table II ("SINS:
// strapdown inertial navigation system (e.g., for velocity and position
// correction)") and contributes the VN/VE/VD and PN/PE/PD state variables
// along with its intermediate correction gains.
type SINS struct {
	// VelGain and PosGain are the complementary-filter correction gains
	// (1/s) pulling the inertial solution toward the aiding source.
	VelGain float64
	PosGain float64

	// Estimated NED velocity components (VN, VE, VD) in m/s.
	velN, velE, velD float64
	// Estimated NED position components (PN, PE, PD) in m.
	posN, posE, posD float64
	// Most recent correction magnitudes (intermediates).
	velCorr, posCorr float64
	// dt of the last update.
	dt float64
}

// NewSINS builds a SINS with typical complementary gains.
func NewSINS() *SINS {
	return &SINS{VelGain: 1.0, PosGain: 0.5}
}

// Predict integrates one accelerometer sample. accelBody is the specific
// force in the body frame; att rotates body to world. Gravity is added back
// to recover kinematic acceleration.
func (s *SINS) Predict(accelBody mathx.Vec3, att mathx.Quat, dt float64) {
	if dt <= 0 {
		return
	}
	s.dt = dt
	accWorld := att.Rotate(accelBody).Add(mathx.V3(0, 0, gravityMS2))
	s.velN += accWorld.X * dt
	s.velE += accWorld.Y * dt
	s.velD += accWorld.Z * dt
	s.posN += s.velN * dt
	s.posE += s.velE * dt
	s.posD += s.velD * dt
}

// gravityMS2 matches sim.Gravity without importing the sim package.
const gravityMS2 = 9.80665

// CorrectVelocity nudges the velocity estimate toward an aiding velocity
// (e.g. GPS velocity) with the complementary velocity gain.
func (s *SINS) CorrectVelocity(aid mathx.Vec3) {
	dv := aid.Sub(s.Velocity()).Scale(s.VelGain * s.dt)
	s.velCorr = dv.Norm()
	s.velN += dv.X
	s.velE += dv.Y
	s.velD += dv.Z
}

// CorrectPosition nudges the position estimate toward an aiding position
// (e.g. GPS fix) with the complementary position gain.
func (s *SINS) CorrectPosition(aid mathx.Vec3) {
	dp := aid.Sub(s.Position()).Scale(s.PosGain * s.dt)
	s.posCorr = dp.Norm()
	s.posN += dp.X
	s.posE += dp.Y
	s.posD += dp.Z
}

// Velocity returns the current NED velocity estimate.
func (s *SINS) Velocity() mathx.Vec3 { return mathx.V3(s.velN, s.velE, s.velD) }

// Position returns the current NED position estimate.
func (s *SINS) Position() mathx.Vec3 { return mathx.V3(s.posN, s.posE, s.posD) }

// RegisterVars exposes the SINS state under the given prefix.
func (s *SINS) RegisterVars(set *vars.Set, prefix string) error {
	entries := []struct {
		name string
		kind vars.Kind
		ptr  *float64
	}{
		{"VGAIN", vars.KindParam, &s.VelGain},
		{"PGAIN", vars.KindParam, &s.PosGain},
		{"VN", vars.KindDynamic, &s.velN},
		{"VE", vars.KindDynamic, &s.velE},
		{"VD", vars.KindDynamic, &s.velD},
		{"PN", vars.KindDynamic, &s.posN},
		{"PE", vars.KindDynamic, &s.posE},
		{"PD", vars.KindDynamic, &s.posD},
		{"VCORR", vars.KindIntermediate, &s.velCorr},
		{"PCORR", vars.KindIntermediate, &s.posCorr},
		{"DT", vars.KindIntermediate, &s.dt},
	}
	for _, e := range entries {
		if err := set.Register(prefix+"."+e.name, e.kind, e.ptr); err != nil {
			return err
		}
	}
	return nil
}
