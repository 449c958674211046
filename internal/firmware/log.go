package firmware

import (
	"math"

	"github.com/ares-cps/ares/internal/control"
	"github.com/ares-cps/ares/internal/mathx"
)

// writeLogs emits one dataflash sample of every message the profiler
// consumes. Errors are swallowed deliberately: in real firmware a full or
// failing flash never brings down the flight controller.
func (f *Firmware) writeLogs() {
	w := f.cfg.LogWriter
	now := f.quad.Time()
	st := f.quad.State()
	roll, pitch, yaw := st.Euler()
	estRoll, estPitch, estYaw := f.est.Attitude()
	estVel := f.est.Velocity()
	estPos := f.est.Position()
	r := f.lastReading

	deg := mathx.Deg
	_ = w.Log("ATT", now,
		deg(f.attDes(0)), deg(roll), deg(f.attDes(1)), deg(pitch),
		deg(f.attDes(2)), deg(yaw), deg(mathx.WrapPi(f.attDes(0)-roll)),
		deg(mathx.WrapPi(f.attDes(2)-yaw)),
		r.IMU.Gyro.X, r.IMU.Gyro.Y, r.IMU.Gyro.Z, 1)

	rateVals := f.rateVals(r)
	_ = w.Log("RATE", now, rateVals...)

	_ = w.Log("IMU", now,
		r.IMU.Gyro.X, r.IMU.Gyro.Y, r.IMU.Gyro.Z,
		r.IMU.Accel.X, r.IMU.Accel.Y, r.IMU.Accel.Z,
		0, 0, 25, 1, 1, 400)
	_ = w.Log("IMU2", now,
		r.IMU2.Gyro.X, r.IMU2.Gyro.Y, r.IMU2.Gyro.Z,
		r.IMU2.Accel.X, r.IMU2.Accel.Y, r.IMU2.Accel.Z,
		0, 0, 25, 1, 1, 400)

	_ = w.Log("BARO", now, r.BaroAlt, 1013.25, 25, -st.Vel.Z, now*1000)
	_ = w.Log("CTUN", now,
		f.pos.HoverThrottle, f.pos.Throttle(), f.pos.HoverThrottle,
		-f.currentTarget().Z, st.Altitude(), -st.Vel.Z)

	tgt := f.currentTarget()
	_ = w.Log("NTUN", now,
		tgt.Sub(estPos).XY(), mathx.Deg(yawTo(estPos, tgt)),
		tgt.X-estPos.X, tgt.Y-estPos.Y,
		f.ntunVar("NTUN.DVelX"), f.ntunVar("NTUN.DVelY"),
		estVel.X, estVel.Y,
		f.ntunVar("NTUN.DAccX"), f.ntunVar("NTUN.DAccY"),
		f.ntunVar("NTUN.tv"))

	_ = w.Log("GPS", now,
		3, now*1000, 0, float64(r.GPS.NumSats), 0.8,
		r.GPS.Pos.X, r.GPS.Pos.Y, -r.GPS.Pos.Z,
		r.GPS.Vel.XY(), deg(yaw), -r.GPS.Vel.Z, 0, 1, r.GPS.Pos.Z)

	ekfVals := []float64{
		deg(estRoll), deg(estPitch), deg(estYaw),
		estVel.X, estVel.Y, estVel.Z, estVel.Z * f.dt,
		estPos.X, estPos.Y, estPos.Z,
		r.IMU.Gyro.X, r.IMU.Gyro.Y, r.IMU.Gyro.Z, 0,
	}
	_ = w.Log("EKF1", now, ekfVals...)
	_ = w.Log("NKF1", now, ekfVals...)

	_ = w.Log("CURR", now, r.BatteryV, r.CurrentA,
		r.CurrentA*now/3.6, r.BatteryV*r.CurrentA*now/3600, r.BatteryV, 0, 0)

	mot := f.mixer.LastCommands()
	_ = w.Log("RCOU", now,
		pwm(mot[0]), pwm(mot[1]), pwm(mot[2]), pwm(mot[3]),
		0, 0, 0, 0, 0, 0, 0, 0, 0)

	_ = w.Log("PIDR", now, f.pidVals("PIDR", f.att.RateRoll)...)
	_ = w.Log("PIDP", now, f.pidVals("PIDP", f.att.RatePitch)...)
	_ = w.Log("PIDY", now, f.pidVals("PIDY", f.att.RateYaw)...)

	_ = w.Log("MODE", now, float64(f.mode), float64(f.mode), 1)
	_ = w.Log("VIBE", now,
		r.IMU.Accel.Dist(r.IMU2.Accel), 0, 0, 0, 0, 0, 1)
	_ = w.Log("MOTB", now, 1, r.BatteryV, 0, 0, f.pos.Throttle())
}

// attDes reads the desired attitude angle (0 roll, 1 pitch, 2 yaw) from the
// attitude controller's registered variables.
func (f *Firmware) attDes(axis int) float64 {
	names := [3]string{"ATT.DesRoll", "ATT.DesPitch", "ATT.DesYaw"}
	if ref, ok := f.varSet.Lookup(names[axis]); ok {
		return ref.Get()
	}
	return 0
}

func (f *Firmware) ntunVar(name string) float64 {
	if ref, ok := f.varSet.Lookup(name); ok {
		return ref.Get()
	}
	return 0
}

func (f *Firmware) rateVals(_ interface{}) []float64 {
	get := func(name string) float64 {
		if ref, ok := f.varSet.Lookup(name); ok {
			return ref.Get()
		}
		return 0
	}
	st := f.quad.State()
	return []float64{
		get("RATE.RDes"), st.Omega.X, get("PIDR.OUT"),
		get("RATE.PDes"), st.Omega.Y, get("PIDP.OUT"),
		get("RATE.YDes"), st.Omega.Z, get("PIDY.OUT"),
		0, -f.quad.LastAccel().Z, f.pos.Throttle(), f.pos.Throttle(),
	}
}

func (f *Firmware) pidVals(prefix string, p *control.PID) []float64 {
	return []float64{
		f.ntunVar(prefix + ".Tar"), f.ntunVar(prefix + ".Act"),
		p.P(), p.I(), p.D(), p.FF(), 0,
	}
}

// currentTarget returns the active guidance target for logging.
func (f *Firmware) currentTarget() mathx.Vec3 {
	switch f.mode {
	case ModeAuto:
		return f.mission.Target()
	case modeRTL:
		return f.home
	default:
		return f.guidedTgt
	}
}

func yawTo(from, to mathx.Vec3) float64 {
	d := to.Sub(from)
	if d.XY() < 1e-9 {
		return 0
	}
	return math.Atan2(d.Y, d.X)
}

// pwm converts a motor fraction to the 1000–2000 µs PWM range of RCOU logs.
func pwm(frac float64) float64 { return 1000 + 1000*frac }
