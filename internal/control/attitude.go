package control

import (
	"math"

	"github.com/ares-cps/ares/internal/mathx"
	"github.com/ares-cps/ares/internal/vars"
)

// AttitudeController converts target Euler angles into normalized torque
// demands using the ArduCopter two-stage cascade: an angle-error square-root
// controller produces target body rates, and per-axis rate PIDs (the PIDR /
// PIDP / PIDY controllers of the dataflash log) turn rate errors into motor
// torque fractions.
type AttitudeController struct {
	// AngleRoll/AnglePitch/AngleYaw are the outer angle→rate controllers.
	AngleRoll  *SqrtController
	AnglePitch *SqrtController
	AngleYaw   *SqrtController
	// RateRoll/RatePitch/RateYaw are the inner rate→torque PIDs.
	RateRoll  *PID
	RatePitch *PID
	RateYaw   *PID
	// MaxRate clamps the commanded roll/pitch body rates in rad/s.
	MaxRate float64
	// MaxYawRate clamps the commanded yaw rate (ArduCopter slews yaw far
	// slower than roll/pitch so large heading changes cannot starve the
	// roll/pitch motors).
	MaxYawRate float64

	// Desired attitude (dynamics DesR, DesP, DesY in the dataflash ATT
	// record) and measured attitude (R, P, Y), in radians.
	desRoll, desPitch, desYaw float64
	roll, pitch, yaw          float64
	// Commanded body rates (intermediates of the cascade).
	rateTargetR, rateTargetP, rateTargetY float64
}

// NewAttitudeController builds the cascade with ArduCopter's IRIS+ tune for
// a loop period of dt seconds.
func NewAttitudeController(dt float64) *AttitudeController {
	// Angle P gain (ATC_ANG_*_P) and the sqrt controller's second-order
	// limit (ATC_ACCEL_*_MAX ≈ 72000 cdeg/s²).
	const angleP = 4.5
	accelLim := mathx.Rad(720)
	// Rate PID outputs are torque fractions; they are bounded to about
	// half the motor range so one axis can never consume all authority.
	// (The oversized ±5000 range stays the *default* for unconfigured
	// PIDs — the defect Figure 8 exploits.)
	rate := PIDConfig{
		KP: 0.135, KI: 0.090, KD: 0.0036,
		IMax: 0.25, FilterHz: 20, DT: dt,
		OutMin: -0.5, OutMax: 0.5,
	}
	return &AttitudeController{
		AngleRoll:  newSqrtController(angleP, accelLim),
		AnglePitch: newSqrtController(angleP, accelLim),
		AngleYaw:   newSqrtController(angleP, accelLim),
		RateRoll:   NewPID(rate),
		RatePitch:  NewPID(rate),
		RateYaw: NewPID(PIDConfig{
			KP: 0.18, KI: 0.018, KD: 0,
			IMax: 0.1, FilterHz: 5, DT: dt,
			OutMin: -0.2, OutMax: 0.2,
		}),
		MaxRate:    mathx.Rad(360),
		MaxYawRate: mathx.Rad(45),
	}
}

// Update runs one attitude control cycle. Target and measured angles are in
// radians; gyro holds the measured body rates. It returns normalized roll,
// pitch and yaw torque demands, each nominally in [-1, 1].
func (a *AttitudeController) Update(desRoll, desPitch, desYaw float64, roll, pitch, yaw float64, gyro mathx.Vec3) (tr, tp, ty float64) {
	a.desRoll, a.desPitch, a.desYaw = desRoll, desPitch, desYaw
	a.roll, a.pitch, a.yaw = roll, pitch, yaw

	// Outer loop: desired Euler-angle rates.
	eulerRateR := mathx.Clamp(a.AngleRoll.Update(mathx.WrapPi(desRoll-roll)), -a.MaxRate, a.MaxRate)
	eulerRateP := mathx.Clamp(a.AnglePitch.Update(mathx.WrapPi(desPitch-pitch)), -a.MaxRate, a.MaxRate)
	eulerRateY := mathx.Clamp(a.AngleYaw.Update(mathx.WrapPi(desYaw-yaw)), -a.MaxYawRate, a.MaxYawRate)

	// Transform Euler-angle rates into body rates. The gyro measures body
	// rates (p, q, r); commanding them as if they were Euler rates makes
	// the Euler angles drift whenever pitch and yaw rate are both large —
	// exactly the regime of a waypoint turn.
	//   p = dφ − sinθ·dψ
	//   q = cosφ·dθ + sinφ·cosθ·dψ
	//   r = −sinφ·dθ + cosφ·cosθ·dψ
	sinR, cosR := math.Sincos(roll)
	sinP, cosP := math.Sincos(pitch)
	a.rateTargetR = eulerRateR - sinP*eulerRateY
	a.rateTargetP = cosR*eulerRateP + sinR*cosP*eulerRateY
	a.rateTargetY = -sinR*eulerRateP + cosR*cosP*eulerRateY

	tr = a.RateRoll.Update(a.rateTargetR, gyro.X)
	tp = a.RatePitch.Update(a.rateTargetP, gyro.Y)
	ty = a.RateYaw.Update(a.rateTargetY, gyro.Z)
	return tr, tp, ty
}

// RegisterVars exposes the cascade's variables: the ATT dynamics block, the
// angle controllers and the three rate PIDs (PIDR, PIDP, PIDY).
func (a *AttitudeController) RegisterVars(set *vars.Set) error {
	attVars := []struct {
		name string
		ptr  *float64
	}{
		{"ATT.DesRoll", &a.desRoll},
		{"ATT.DesPitch", &a.desPitch},
		{"ATT.DesYaw", &a.desYaw},
		{"ATT.Roll", &a.roll},
		{"ATT.Pitch", &a.pitch},
		{"ATT.Yaw", &a.yaw},
		{"RATE.RDes", &a.rateTargetR},
		{"RATE.PDes", &a.rateTargetP},
		{"RATE.YDes", &a.rateTargetY},
	}
	for _, v := range attVars {
		if err := set.Register(v.name, vars.KindDynamic, v.ptr); err != nil {
			return err
		}
	}
	if err := a.AngleRoll.RegisterVars(set, "ANGR"); err != nil {
		return err
	}
	if err := a.AnglePitch.RegisterVars(set, "ANGP"); err != nil {
		return err
	}
	if err := a.AngleYaw.RegisterVars(set, "ANGY"); err != nil {
		return err
	}
	if err := a.RateRoll.RegisterVars(set, "PIDR"); err != nil {
		return err
	}
	if err := a.RatePitch.RegisterVars(set, "PIDP"); err != nil {
		return err
	}
	return a.RateYaw.RegisterVars(set, "PIDY")
}
