package sensors

import (
	"math"
	"testing"

	"github.com/ares-cps/ares/internal/mathx"
	"github.com/ares-cps/ares/internal/sim"
)

// noiselessConfig returns a config with all noise and bias disabled so
// sensor outputs equal ground truth.
func noiselessConfig() Config {
	return Config{GPSRateHz: 5, Seed: 1}
}

func restingState() sim.State {
	return sim.State{Att: mathx.QuatIdentity()}
}

// sample is one Sample into a fresh Reading, with st's true yaw.
func sample(s *Suite, now float64, st sim.State, accelWorld mathx.Vec3, batt sim.Battery) Reading {
	var r Reading
	_, _, yaw := st.Euler()
	s.Sample(&r, now, &st, yaw, accelWorld, &batt)
	return r
}

// TestSampleInPlaceMatchesFresh samples one suite into a single reused
// Reading, prefilled with garbage, and a same-seeded twin into a fresh
// Reading per call: every field must match on every tick, including the
// ticks before the first GPS fix arrives and those between fixes, where
// GPSFresh and GPS must be reset rather than left from an earlier call.
func TestSampleInPlaceMatchesFresh(t *testing.T) {
	a, b := NewSuite(DefaultConfig()), NewSuite(DefaultConfig())
	reused := Reading{
		Time: -1, BaroAlt: 99, MagYaw: 3, GPSFresh: true,
		GPS: GPSReading{Pos: mathx.V3(1, 2, 3), NumSats: 7, Valid: true},
		IMU: IMUReading{Gyro: mathx.V3(4, 5, 6)},
	}
	st := sim.State{Pos: mathx.V3(1, -2, -10), Vel: mathx.V3(0.5, 0, 0), Att: mathx.QuatFromEuler(0.1, -0.2, 2.5)}
	batt := sim.Battery{Voltage: 12.1, CurrentA: 9}
	sawFresh, sawStale := false, false
	for i := 0; i < 400; i++ {
		now := float64(i) / 400
		st.Omega = mathx.V3(0.01*float64(i%7), -0.02, 0.03)
		_, _, yaw := st.Euler()
		a.Sample(&reused, now, &st, yaw, mathx.V3(0, 0.1, 0), &batt)
		want := sample(b, now, st, mathx.V3(0, 0.1, 0), batt)
		if reused != want {
			t.Fatalf("tick %d: in-place reading %+v, fresh reading %+v", i, reused, want)
		}
		sawFresh = sawFresh || want.GPSFresh
		sawStale = sawStale || (!want.GPSFresh && want.GPS.Valid)
	}
	if !sawFresh || !sawStale {
		t.Errorf("run covered fresh=%v, held=%v fixes; want both", sawFresh, sawStale)
	}
}

func TestIMUAtRestReadsGravity(t *testing.T) {
	s := NewSuite(noiselessConfig())
	// At rest the true world acceleration is zero, so the accelerometer
	// reads the reaction to gravity: (0, 0, -g) in FRD body frame.
	r := sample(s, 0, restingState(), mathx.Vec3{}, sim.Battery{})
	want := mathx.V3(0, 0, -sim.Gravity)
	if r.IMU.Accel.Dist(want) > 1e-9 {
		t.Errorf("accel at rest = %v, want %v", r.IMU.Accel, want)
	}
	if r.IMU.Gyro.Norm() > 1e-12 {
		t.Errorf("gyro at rest = %v, want 0", r.IMU.Gyro)
	}
}

func TestIMUFreeFallReadsZero(t *testing.T) {
	s := NewSuite(noiselessConfig())
	accel := mathx.V3(0, 0, sim.Gravity) // free fall: a = g downward
	r := sample(s, 0, restingState(), accel, sim.Battery{})
	if r.IMU.Accel.Norm() > 1e-9 {
		t.Errorf("accel in free fall = %v, want 0", r.IMU.Accel)
	}
}

func TestIMURotatedFrame(t *testing.T) {
	s := NewSuite(noiselessConfig())
	// Vehicle rolled 90°: body Z axis points along world +Y, so gravity's
	// reaction appears along the body -Y axis... verify via rotation math.
	st := sim.State{Att: mathx.QuatFromEuler(math.Pi/2, 0, 0)}
	r := sample(s, 0, st, mathx.Vec3{}, sim.Battery{})
	want := st.Att.RotateInverse(mathx.V3(0, 0, -sim.Gravity))
	if r.IMU.Accel.Dist(want) > 1e-9 {
		t.Errorf("rolled accel = %v, want %v", r.IMU.Accel, want)
	}
}

func TestGyroMeasuresBodyRates(t *testing.T) {
	s := NewSuite(noiselessConfig())
	st := restingState()
	st.Omega = mathx.V3(0.1, -0.2, 0.3)
	r := sample(s, 0, st, mathx.Vec3{}, sim.Battery{})
	if r.IMU.Gyro.Dist(st.Omega) > 1e-12 {
		t.Errorf("gyro = %v, want %v", r.IMU.Gyro, st.Omega)
	}
}

func TestBaroAndMag(t *testing.T) {
	s := NewSuite(noiselessConfig())
	st := sim.State{
		Pos: mathx.V3(0, 0, -25),
		Att: mathx.QuatFromEuler(0, 0, 1.2),
	}
	r := sample(s, 0, st, mathx.Vec3{}, sim.Battery{})
	if r.BaroAlt != 25 {
		t.Errorf("baro = %v, want 25", r.BaroAlt)
	}
	if !mathx.ApproxEqual(r.MagYaw, 1.2, 1e-12) {
		t.Errorf("mag yaw = %v, want 1.2", r.MagYaw)
	}
}

func TestGPSRateAndLatency(t *testing.T) {
	cfg := noiselessConfig()
	cfg.GPSLatency = 0.1
	s := NewSuite(cfg)
	st := sim.State{Pos: mathx.V3(7, 8, -9), Att: mathx.QuatIdentity()}

	// t=0: first fix generated, but latency delays delivery.
	r := sample(s, 0, st, mathx.Vec3{}, sim.Battery{})
	if r.GPSFresh || r.GPS.Valid {
		t.Error("GPS delivered before latency elapsed")
	}
	// t=0.1: fix due now.
	r = sample(s, 0.1, st, mathx.Vec3{}, sim.Battery{})
	if !r.GPSFresh {
		t.Fatal("GPS not delivered after latency")
	}
	if r.GPS.Pos != st.Pos {
		t.Errorf("GPS pos = %v, want %v", r.GPS.Pos, st.Pos)
	}
	if !r.GPS.Valid || r.GPS.NumSats < 10 {
		t.Errorf("GPS fix invalid: %+v", r.GPS)
	}
	// Immediately after, the fix is held but not fresh (5 Hz rate).
	r = sample(s, 0.11, st, mathx.Vec3{}, sim.Battery{})
	if r.GPSFresh {
		t.Error("GPS fresh again before next fix interval")
	}
	if r.GPS.Pos != st.Pos {
		t.Error("held GPS fix lost")
	}
}

func TestGPSFixInterval(t *testing.T) {
	cfg := noiselessConfig()
	cfg.GPSRateHz = 5
	cfg.GPSLatency = 0
	s := NewSuite(cfg)
	st := restingState()
	fresh := 0
	const dt = 1.0 / 400
	for i := 0; i <= 400; i++ { // one second inclusive
		r := sample(s, float64(i)*dt, st, mathx.Vec3{}, sim.Battery{})
		if r.GPSFresh {
			fresh++
		}
	}
	if fresh < 5 || fresh > 6 {
		t.Errorf("fresh fixes in 1 s = %d, want ~5", fresh)
	}
}

func TestNoiseStatistics(t *testing.T) {
	cfg := DefaultConfig()
	cfg.GyroBias = 0 // isolate white noise from bias
	s := NewSuite(cfg)
	st := restingState()
	const n = 20000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		r := sample(s, float64(i)/400, st, mathx.Vec3{}, sim.Battery{})
		sum += r.IMU.Gyro.X
		sumSq += r.IMU.Gyro.X * r.IMU.Gyro.X
	}
	mean := sum / n
	sd := math.Sqrt(sumSq/n - mean*mean)
	if math.Abs(mean) > 5e-4 {
		t.Errorf("gyro noise mean = %v, want ~0", mean)
	}
	if sd < cfg.GyroNoise*0.9 || sd > cfg.GyroNoise*1.1 {
		t.Errorf("gyro noise sd = %v, want ~%v", sd, cfg.GyroNoise)
	}
}

func TestBiasIsConstantAndSeeded(t *testing.T) {
	cfg := noiselessConfig()
	cfg.GyroBias = 0.01
	a := NewSuite(cfg)
	b := NewSuite(cfg)
	st := restingState()
	ra1 := sample(a, 0, st, mathx.Vec3{}, sim.Battery{})
	ra2 := sample(a, 0.01, st, mathx.Vec3{}, sim.Battery{})
	rb := sample(b, 0, st, mathx.Vec3{}, sim.Battery{})
	if ra1.IMU.Gyro != ra2.IMU.Gyro {
		t.Error("gyro bias changed between samples")
	}
	if ra1.IMU.Gyro != rb.IMU.Gyro {
		t.Error("identical seeds produced different biases")
	}
	if ra1.IMU.Gyro.Norm() == 0 {
		t.Error("bias config produced zero bias")
	}
	// The two IMUs must have independent biases.
	if ra1.IMU.Gyro == ra1.IMU2.Gyro {
		t.Error("IMU and IMU2 share a bias")
	}
}

func TestBatteryPassthrough(t *testing.T) {
	s := NewSuite(noiselessConfig())
	batt := sim.Battery{Voltage: 11.7, CurrentA: 14.2}
	r := sample(s, 0, restingState(), mathx.Vec3{}, batt)
	if r.BatteryV != 11.7 || r.CurrentA != 14.2 {
		t.Errorf("battery readings = %v / %v", r.BatteryV, r.CurrentA)
	}
}

func TestZeroRateDefaulted(t *testing.T) {
	s := NewSuite(Config{})
	if s.cfg.GPSRateHz != 5 {
		t.Errorf("zero GPS rate defaulted to %v, want 5", s.cfg.GPSRateHz)
	}
}
