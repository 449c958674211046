// Package ekf implements the extended Kalman filter the firmware uses for
// state estimation. It fuses gyro and accelerometer propagation with GPS,
// barometer, magnetometer and gravity-direction updates into a nine-state
// solution [roll pitch yaw vN vE vD pN pE pD].
//
// The filter serves two roles from the paper: it produces the EKF1/NKF1
// dataflash variables that expand the KSVL, and its attitude residual
// (ATT.R − EKF1.Roll) is the detection statistic of the SAVIOR-style sensor
// estimation monitor assessed in Figure 8.
package ekf

import (
	"math"

	"github.com/ares-cps/ares/internal/mathx"
	"github.com/ares-cps/ares/internal/vars"
)

// n is the filter state dimension.
const n = 9

// State indices.
const (
	ixRoll = iota
	ixPitch
	ixYaw
	ixVN
	ixVE
	ixVD
	ixPN
	ixPE
	ixPD
)

// noise holds the filter noise parameters (ArduCopter's EK2_* noise
// parameters; the firmware's parameter table does not expose them).
type noise struct {
	gyro   float64 // rad/s process noise on attitude
	accel  float64 // m/s² process noise on velocity
	pos    float64 // m/s process noise on position
	gpsPos float64 // m, GPS position measurement noise
	gpsVel float64 // m/s, GPS velocity measurement noise
	baro   float64 // m, baro measurement noise
	mag    float64 // rad, magnetometer yaw noise
	grav   float64 // rad, gravity-direction attitude noise
}

// tune is the Pixhawk-class EKF tuning. It is a variable read at run time,
// not a set of constants, so no product of it is folded at compile time
// with a different rounding.
var tune = noise{
	gyro:   0.03,
	accel:  0.6,
	pos:    0.1,
	gpsPos: 1.0,
	gpsVel: 0.5,
	baro:   1.5,
	mag:    0.05,
	// Gravity-direction fusion is deliberately weak: during coordinated
	// acceleration the specific force aligns with the thrust axis and
	// reads "level" even when tilted, so this observation may only trim
	// slow gyro drift, never fight the gyro during maneuvers.
	grav: 0.6,
}

// EKF is the nine-state filter.
type EKF struct {
	x [n]float64    // state estimate
	p [n][n]float64 // covariance

	// Live log variables (EKF1 record): exported via RegisterVars.
	roll, pitch, yaw float64
	vn, ve, vd       float64
	pn, pe, pd       float64
	// innovation magnitudes (NKF4-style health variables).
	innovPos, innovVel, innovMag float64

	// attQ is QuatFromEuler of the attitude whose exact bits are attKey;
	// attOK is false until the first AttitudeQuat call.
	attKey [3]uint64
	attQ   mathx.Quat
	attOK  bool
}

// New creates an EKF initialized at the origin with a loose prior.
func New() *EKF {
	e := &EKF{}
	for i := 0; i < n; i++ {
		e.p[i][i] = 1.0
	}
	e.syncOutputs()
	return e
}

// Predict propagates the state with one IMU sample: gyro body rates and
// accelerometer specific force, both in the body frame.
func (e *EKF) Predict(gyro, accel mathx.Vec3, dt float64) {
	// A NaN or ±Inf dt would poison every state and covariance entry;
	// like a non-positive one it is rejected and leaves the filter as is.
	if !(dt > 0) || math.IsInf(dt, 1) {
		return
	}
	roll, pitch, yaw := e.x[ixRoll], e.x[ixPitch], e.x[ixYaw]

	// Attitude kinematics: Euler-angle rates from body rates.
	sr, cr := math.Sincos(roll)
	tp := math.Tan(pitch)
	cp := math.Cos(pitch)
	if math.Abs(cp) < 1e-6 {
		cp = math.Copysign(1e-6, cp)
	}
	rollRate := gyro.X + sr*tp*gyro.Y + cr*tp*gyro.Z
	pitchRate := cr*gyro.Y - sr*gyro.Z
	yawRate := (sr*gyro.Y + cr*gyro.Z) / cp

	e.x[ixRoll] = mathx.WrapPi(roll + rollRate*dt)
	e.x[ixPitch] = mathx.Clamp(pitch+pitchRate*dt, -math.Pi/2+1e-3, math.Pi/2-1e-3)
	e.x[ixYaw] = mathx.WrapPi(yaw + yawRate*dt)

	// Velocity: rotate specific force to world, add gravity.
	att := e.AttitudeQuat()
	accWorld := att.Rotate(accel).Add(mathx.V3(0, 0, gravity))
	e.x[ixVN] += accWorld.X * dt
	e.x[ixVE] += accWorld.Y * dt
	e.x[ixVD] += accWorld.Z * dt

	// Position integrates velocity.
	e.x[ixPN] += e.x[ixVN] * dt
	e.x[ixPE] += e.x[ixVE] * dt
	e.x[ixPD] += e.x[ixVD] * dt

	// Covariance: P ← F·P·Fᵀ + Q.
	predictCov(&e.p, dt)
	q := [3]float64{sq(tune.gyro) * dt, sq(tune.accel) * dt, sq(tune.pos) * dt}
	for i := 0; i < n; i++ {
		e.p[i][i] += q[i/3]
	}
	e.syncOutputs()
}

const gravity = 9.80665

// FuseGPS applies a GPS position and velocity fix.
func (e *EKF) FuseGPS(pos, vel mathx.Vec3) {
	e.innovPos = math.Hypot(pos.X-e.x[ixPN], pos.Y-e.x[ixPE])
	e.innovVel = vel.Sub(mathx.V3(e.x[ixVN], e.x[ixVE], e.x[ixVD])).Norm()
	e.fuseScalar(ixPN, pos.X, sq(tune.gpsPos))
	e.fuseScalar(ixPE, pos.Y, sq(tune.gpsPos))
	e.fuseScalar(ixPD, pos.Z, sq(tune.gpsPos*1.5))
	e.fuseScalar(ixVN, vel.X, sq(tune.gpsVel))
	e.fuseScalar(ixVE, vel.Y, sq(tune.gpsVel))
	e.fuseScalar(ixVD, vel.Z, sq(tune.gpsVel))
	e.syncOutputs()
}

// FuseBaro applies a barometric altitude (m above origin, positive up).
func (e *EKF) FuseBaro(alt float64) {
	e.fuseScalar(ixPD, -alt, sq(tune.baro))
	e.syncOutputs()
}

// FuseMag applies a magnetometer yaw measurement, handling angle wrap.
func (e *EKF) FuseMag(yaw float64) {
	e.innovMag = math.Abs(mathx.WrapPi(yaw - e.x[ixYaw]))
	// Fold the measurement into the estimate's wrap branch.
	z := e.x[ixYaw] + mathx.WrapPi(yaw-e.x[ixYaw])
	e.fuseScalar(ixYaw, z, sq(tune.mag))
	e.x[ixYaw] = mathx.WrapPi(e.x[ixYaw])
	e.syncOutputs()
}

// FuseGravity applies the accelerometer gravity-direction attitude
// observation, valid when the vehicle is not accelerating hard. accel is
// the body-frame specific force.
func (e *EKF) FuseGravity(accel mathx.Vec3) {
	norm := accel.Norm()
	// Reject when the specific force differs too much from 1 g — the
	// vehicle is maneuvering and gravity direction is unobservable.
	if norm < 0.8*gravity || norm > 1.2*gravity {
		return
	}
	rollMeas := math.Atan2(-accel.Y, -accel.Z)
	pitchMeas := math.Atan2(accel.X, math.Hypot(accel.Y, accel.Z))
	e.fuseScalar(ixRoll, e.x[ixRoll]+mathx.WrapPi(rollMeas-e.x[ixRoll]), sq(tune.grav))
	e.fuseScalar(ixPitch, pitchMeas, sq(tune.grav))
	e.x[ixRoll] = mathx.WrapPi(e.x[ixRoll])
	e.syncOutputs()
}

// fuseScalar performs a sequential scalar Kalman update for a direct state
// observation x[idx] = z with measurement variance r.
func (e *EKF) fuseScalar(idx int, z, r float64) {
	s := e.p[idx][idx] + r
	if s <= 0 {
		return
	}
	innov := z - e.x[idx]
	var k [n]float64
	for i := 0; i < n; i++ {
		k[i] = e.p[i][idx] / s
	}
	for i := 0; i < n; i++ {
		e.x[i] += k[i] * innov
	}
	// P = (I − K·H)·P with H = eᵀ(idx): subtract k·row(idx).
	row := e.p[idx]
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			e.p[i][j] -= k[i] * row[j]
		}
	}
	// Symmetrize to fight numerical drift.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := 0.5 * (e.p[i][j] + e.p[j][i])
			e.p[i][j], e.p[j][i] = v, v
		}
	}
}

func (e *EKF) syncOutputs() {
	e.roll, e.pitch, e.yaw = e.x[ixRoll], e.x[ixPitch], e.x[ixYaw]
	e.vn, e.ve, e.vd = e.x[ixVN], e.x[ixVE], e.x[ixVD]
	e.pn, e.pe, e.pd = e.x[ixPN], e.x[ixPE], e.x[ixPD]
}

// Attitude returns the estimated (roll, pitch, yaw) in radians.
func (e *EKF) Attitude() (roll, pitch, yaw float64) {
	return e.x[ixRoll], e.x[ixPitch], e.x[ixYaw]
}

// AttitudeQuat returns the estimated attitude as a quaternion, the value
// of mathx.QuatFromEuler(e.Attitude()). The conversion is memoized on the
// exact bits of the three angles, so a repeat read of an unchanged
// estimate, such as the firmware's after Predict on a tick with no fusion,
// costs no trigonometry and returns the same bits.
func (e *EKF) AttitudeQuat() mathx.Quat {
	key := [3]uint64{
		math.Float64bits(e.x[ixRoll]),
		math.Float64bits(e.x[ixPitch]),
		math.Float64bits(e.x[ixYaw]),
	}
	if !e.attOK || key != e.attKey {
		e.attQ = mathx.QuatFromEuler(e.x[ixRoll], e.x[ixPitch], e.x[ixYaw])
		e.attKey, e.attOK = key, true
	}
	return e.attQ
}

// Velocity returns the estimated NED velocity.
func (e *EKF) Velocity() mathx.Vec3 {
	return mathx.V3(e.x[ixVN], e.x[ixVE], e.x[ixVD])
}

// Position returns the estimated NED position.
func (e *EKF) Position() mathx.Vec3 {
	return mathx.V3(e.x[ixPN], e.x[ixPE], e.x[ixPD])
}

// RegisterVars exposes the EKF1 log block and the NKF4-style innovation
// health variables.
func (e *EKF) RegisterVars(set *vars.Set) error {
	entries := []struct {
		name string
		ptr  *float64
	}{
		{"EKF1.Roll", &e.roll},
		{"EKF1.Pitch", &e.pitch},
		{"EKF1.Yaw", &e.yaw},
		{"EKF1.VN", &e.vn},
		{"EKF1.VE", &e.ve},
		{"EKF1.VD", &e.vd},
		{"EKF1.PN", &e.pn},
		{"EKF1.PE", &e.pe},
		{"EKF1.PD", &e.pd},
		{"NKF4.IPos", &e.innovPos},
		{"NKF4.IVel", &e.innovVel},
		{"NKF4.IMag", &e.innovMag},
	}
	for _, en := range entries {
		if err := set.Register(en.name, vars.KindDynamic, en.ptr); err != nil {
			return err
		}
	}
	return nil
}

// --- small fixed-size matrix helpers ---

func sq(v float64) float64 { return v * v }

// predictCov overwrites p with F·P·Fᵀ, where F is the identity plus the
// five couplings PN←VN, PE←VE, PD←VD (dt), and VN←Pitch (−g·dt) and
// VE←Roll (g·dt), through which attitude errors tip the thrust vector
// into velocity. Every row and every column of F holds at most two nonzero
// entries, so each entry of the dense product reduces to (0 + a) + b: its
// two surviving products, summed in the dense loop's k order, from a +0
// start. For finite P this is bit-identical to the dense product (see
// DESIGN.md, "EKF covariance predict"), which ekf_test.go keeps as the
// oracle.
func predictCov(p *[n][n]float64, dt float64) {
	gN, gE := -gravity*dt, gravity*dt
	// F·P: only the coupled rows change. Each coupled row's source row
	// precedes it in k order, and the position rows read the velocity rows
	// before those are overwritten.
	for j := 0; j < n; j++ {
		p[ixPN][j] = (0 + dt*p[ixVN][j]) + p[ixPN][j]
		p[ixPE][j] = (0 + dt*p[ixVE][j]) + p[ixPE][j]
		p[ixPD][j] = (0 + dt*p[ixVD][j]) + p[ixPD][j]
		p[ixVN][j] = (0 + gN*p[ixPitch][j]) + p[ixVN][j]
		p[ixVE][j] = (0 + gE*p[ixRoll][j]) + p[ixVE][j]
	}
	// (F·P)·Fᵀ: the same five couplings, applied to columns.
	for i := 0; i < n; i++ {
		r := &p[i]
		r[ixPN] = (0 + r[ixVN]*dt) + r[ixPN]
		r[ixPE] = (0 + r[ixVE]*dt) + r[ixPE]
		r[ixPD] = (0 + r[ixVD]*dt) + r[ixPD]
		r[ixVN] = (0 + r[ixPitch]*gN) + r[ixVN]
		r[ixVE] = (0 + r[ixRoll]*gE) + r[ixVE]
	}
	// The block F leaves alone still passes through the dense sum's +0
	// start once, which turns −0 into +0.
	for _, i := range [...]int{ixRoll, ixPitch, ixYaw, ixVD} {
		for _, j := range [...]int{ixRoll, ixPitch, ixYaw, ixVD} {
			p[i][j] += 0
		}
	}
}
