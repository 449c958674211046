package firmware

import (
	"fmt"
	"math"

	"github.com/ares-cps/ares/internal/control"
	"github.com/ares-cps/ares/internal/mathx"
	"github.com/ares-cps/ares/internal/vars"
)

// logCells are the cells writeLogs reads: the attitude and rate targets,
// the rate PIDs' outputs, targets and measurements (index 0 roll, 1
// pitch, 2 yaw) and the navigator's NTUN cells. New resolves them only
// when a log writer is set, so a flight that logs nothing carries none.
type logCells struct {
	attDes, rateDes                [3]vars.Ref
	pidOut, pidTar, pidAct         [3]vars.Ref
	dVelX, dVelY, dAccX, dAccY, tv vars.Ref
}

// bindLogCells resolves f.logCells.
func (f *Firmware) bindLogCells() error {
	c := &logCells{}
	var missing []string
	ref := func(name string) vars.Ref {
		r, ok := f.varSet.Lookup(name)
		if !ok {
			missing = append(missing, name)
		}
		return r
	}
	for i, axis := range [3]struct{ att, rate, pid string }{
		{"ATT.DesRoll", "RATE.RDes", "PIDR"},
		{"ATT.DesPitch", "RATE.PDes", "PIDP"},
		{"ATT.DesYaw", "RATE.YDes", "PIDY"},
	} {
		c.attDes[i] = ref(axis.att)
		c.rateDes[i] = ref(axis.rate)
		c.pidOut[i] = ref(axis.pid + ".OUT")
		c.pidTar[i] = ref(axis.pid + ".Tar")
		c.pidAct[i] = ref(axis.pid + ".Act")
	}
	c.dVelX, c.dVelY = ref("NTUN.DVelX"), ref("NTUN.DVelY")
	c.dAccX, c.dAccY = ref("NTUN.DAccX"), ref("NTUN.DAccY")
	c.tv = ref("NTUN.tv")
	if len(missing) > 0 {
		return fmt.Errorf("log cells not registered: %v", missing)
	}
	f.logCells = c
	return nil
}

// writeLogs emits one dataflash sample of every message the profiler
// consumes. Errors are swallowed deliberately: in real firmware a full or
// failing flash never brings down the flight controller.
func (f *Firmware) writeLogs() {
	w, c := f.cfg.LogWriter, f.logCells
	now := f.quad.Time()
	st := f.quad.StateRef()
	roll, pitch, yaw := f.quad.Euler()
	estRoll, estPitch, estYaw := f.est.Attitude()
	estVel := f.est.Velocity()
	estPos := f.est.Position()
	r := &f.lastReading

	deg := mathx.Deg
	desRoll, desPitch, desYaw := c.attDes[0].Get(), c.attDes[1].Get(), c.attDes[2].Get()
	_ = w.Log("ATT", now,
		deg(desRoll), deg(roll), deg(desPitch), deg(pitch),
		deg(desYaw), deg(yaw), deg(mathx.WrapPi(desRoll-roll)),
		deg(mathx.WrapPi(desYaw-yaw)),
		r.IMU.Gyro.X, r.IMU.Gyro.Y, r.IMU.Gyro.Z, 1)

	_ = w.Log("RATE", now, f.rateVals()...)

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
		-f.currentTarget().Z, -st.Pos.Z, -st.Vel.Z)

	tgt := f.currentTarget()
	_ = w.Log("NTUN", now,
		tgt.Sub(estPos).XY(), mathx.Deg(yawTo(estPos, tgt)),
		tgt.X-estPos.X, tgt.Y-estPos.Y,
		c.dVelX.Get(), c.dVelY.Get(),
		estVel.X, estVel.Y,
		c.dAccX.Get(), c.dAccY.Get(),
		c.tv.Get())

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

	_ = w.Log("PIDR", now, f.pidVals(0, f.att.RateRoll)...)
	_ = w.Log("PIDP", now, f.pidVals(1, f.att.RatePitch)...)
	_ = w.Log("PIDY", now, f.pidVals(2, f.att.RateYaw)...)

	_ = w.Log("MODE", now, float64(f.mode), float64(f.mode), 1)
	_ = w.Log("VIBE", now,
		r.IMU.Accel.Dist(r.IMU2.Accel), 0, 0, 0, 0, 0, 1)
	_ = w.Log("MOTB", now, 1, r.BatteryV, 0, 0, f.pos.Throttle())
}

// rateVals is the RATE log record: each axis's rate target, measured rate
// and PID output, then the vertical acceleration and throttle.
func (f *Firmware) rateVals() []float64 {
	c := f.logCells
	om := &f.quad.StateRef().Omega
	return []float64{
		c.rateDes[0].Get(), om.X, c.pidOut[0].Get(),
		c.rateDes[1].Get(), om.Y, c.pidOut[1].Get(),
		c.rateDes[2].Get(), om.Z, c.pidOut[2].Get(),
		0, -f.quad.LastAccel().Z, f.pos.Throttle(), f.pos.Throttle(),
	}
}

// pidVals is one rate PID's log record; axis indexes the logCells.
func (f *Firmware) pidVals(axis int, p *control.PID) []float64 {
	c := f.logCells
	return []float64{
		c.pidTar[axis].Get(), c.pidAct[axis].Get(),
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
