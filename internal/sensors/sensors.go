// Package sensors simulates the onboard sensor suite of a RAV: two IMUs
// (gyroscope + accelerometer), a barometer, a magnetometer, a GPS receiver
// and a battery/current monitor. Each sensor adds a constant bias and
// Gaussian noise to ground truth, and the GPS additionally applies a fixed
// reporting latency, matching the error sources the paper's EKF and the
// SAVIOR-style defenses must tolerate.
package sensors

import (
	"math/rand"

	"github.com/ares-cps/ares/internal/mathx"
	"github.com/ares-cps/ares/internal/sim"
)

// IMUReading holds one inertial sample in the body frame.
type IMUReading struct {
	// Gyro is the measured angular rate (rad/s).
	Gyro mathx.Vec3
	// Accel is the measured specific force (m/s²). A vehicle at rest
	// reads approximately (0, 0, -g) in the FRD body frame.
	Accel mathx.Vec3
}

// GPSReading is one position fix.
type GPSReading struct {
	// Pos is the NED position (m). Real receivers report lat/lon; the
	// local NED frame keeps the math identical without geodesy.
	Pos mathx.Vec3
	// Vel is the NED velocity (m/s).
	Vel mathx.Vec3
	// NumSats is the simulated satellite count.
	NumSats int
	// Valid reports whether the fix is usable.
	Valid bool
}

// Reading is a complete sensor snapshot at one controller tick.
type Reading struct {
	Time float64
	IMU  IMUReading
	IMU2 IMUReading
	// BaroAlt is the barometric altitude above the ground (m, positive up).
	BaroAlt float64
	// MagYaw is the heading inferred from the magnetometer (rad).
	MagYaw float64
	// GPS is the latest fix; fresh only when GPSFresh is set.
	GPS      GPSReading
	GPSFresh bool
	// BatteryV and CurrentA come from the power monitor.
	BatteryV float64
	CurrentA float64
}

// Config sets the noise figures for the suite. Zero values disable the
// corresponding noise source, which is useful in deterministic tests.
type Config struct {
	GyroNoise   float64 // rad/s, 1σ
	GyroBias    float64 // rad/s, max constant bias magnitude per axis
	AccelNoise  float64 // m/s², 1σ
	AccelBias   float64 // m/s², max constant bias magnitude per axis
	BaroNoise   float64 // m, 1σ
	MagNoise    float64 // rad, 1σ
	GPSNoise    float64 // m horizontal, 1σ
	GPSVelNoise float64 // m/s, 1σ
	GPSRateHz   float64 // fix rate (default 5 Hz)
	GPSLatency  float64 // reporting delay in s
	Seed        int64
}

// DefaultConfig returns noise figures typical of a Pixhawk-class sensor set.
func DefaultConfig() Config {
	return Config{
		GyroNoise:   0.002,
		GyroBias:    0.005,
		AccelNoise:  0.05,
		AccelBias:   0.08,
		BaroNoise:   0.12,
		MagNoise:    0.01,
		GPSNoise:    0.4,
		GPSVelNoise: 0.1,
		GPSRateHz:   5,
		GPSLatency:  0.12,
		Seed:        1,
	}
}

// Seeded returns DefaultConfig drawing its noise from seed: the standard
// evaluation sensor set, reproducible per flight.
func Seeded(seed int64) Config {
	c := DefaultConfig()
	c.Seed = seed
	return c
}

// Suite samples every sensor from the simulated vehicle.
type Suite struct {
	cfg Config
	rng *rand.Rand

	gyroBias   mathx.Vec3
	accelBias  mathx.Vec3
	gyroBias2  mathx.Vec3
	accelBias2 mathx.Vec3

	lastGPSTime float64
	gpsQueue    []timedFix // fixes awaiting their latency
	lastFix     GPSReading // zero (not Valid) until the first fix arrives
}

type timedFix struct {
	due float64
	fix GPSReading
}

// NewSuite creates a sensor suite with deterministic per-axis biases drawn
// from the seeded PRNG.
func NewSuite(cfg Config) *Suite {
	if cfg.GPSRateHz <= 0 {
		cfg.GPSRateHz = 5
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	bias := func(mag float64) mathx.Vec3 {
		return mathx.V3(
			(rng.Float64()*2-1)*mag,
			(rng.Float64()*2-1)*mag,
			(rng.Float64()*2-1)*mag,
		)
	}
	return &Suite{
		cfg:         cfg,
		rng:         rng,
		gyroBias:    bias(cfg.GyroBias),
		accelBias:   bias(cfg.AccelBias),
		gyroBias2:   bias(cfg.GyroBias),
		accelBias2:  bias(cfg.AccelBias),
		lastGPSTime: -1,
	}
}

// Sample writes a full sensor reading from the vehicle's true state into
// r, overwriting every field. The now parameter is the simulation time in
// seconds, yaw is the true yaw of state.Att (the caller's memoized Euler
// conversion) and accelWorld is the true world-frame acceleration over the
// last step. The noise draws run in a fixed order: IMU, IMU2, baro, mag,
// then GPS.
func (s *Suite) Sample(r *Reading, now float64, state *sim.State, yaw float64, accelWorld mathx.Vec3, battery *sim.Battery) {
	r.Time = now
	s.sampleIMU(&r.IMU, state, accelWorld, &s.gyroBias, &s.accelBias)
	s.sampleIMU(&r.IMU2, state, accelWorld, &s.gyroBias2, &s.accelBias2)
	r.BaroAlt = -state.Pos.Z + s.noise(s.cfg.BaroNoise) // altitude, without copying *state
	r.BatteryV = battery.Voltage
	r.CurrentA = battery.CurrentA
	r.MagYaw = mathx.WrapPi(yaw + s.noise(s.cfg.MagNoise))

	// GPS: enqueue a fix at the fix rate; deliver it after the latency.
	if s.lastGPSTime < 0 || now-s.lastGPSTime >= 1/s.cfg.GPSRateHz {
		s.lastGPSTime = now
		fix := GPSReading{
			Pos: state.Pos.Add(mathx.V3(
				s.noise(s.cfg.GPSNoise),
				s.noise(s.cfg.GPSNoise),
				s.noise(s.cfg.GPSNoise*1.5),
			)),
			Vel: state.Vel.Add(mathx.V3(
				s.noise(s.cfg.GPSVelNoise),
				s.noise(s.cfg.GPSVelNoise),
				s.noise(s.cfg.GPSVelNoise),
			)),
			NumSats: 10 + s.rng.Intn(5),
			Valid:   true,
		}
		s.gpsQueue = append(s.gpsQueue, timedFix{due: now + s.cfg.GPSLatency, fix: fix})
	}
	r.GPSFresh = false
	for len(s.gpsQueue) > 0 && s.gpsQueue[0].due <= now {
		s.lastFix = s.gpsQueue[0].fix
		s.gpsQueue = s.gpsQueue[1:]
		r.GPSFresh = true
	}
	r.GPS = s.lastFix
}

// sampleIMU writes one IMU's sample into out: gyro noise is drawn before
// accelerometer noise.
func (s *Suite) sampleIMU(out *IMUReading, state *sim.State, accelWorld mathx.Vec3, gyroBias, accelBias *mathx.Vec3) {
	out.Gyro = state.Omega.
		Add(*gyroBias).
		Add(s.noiseVec(s.cfg.GyroNoise))
	// Specific force: what an accelerometer measures is the non-
	// gravitational acceleration, expressed in the body frame.
	gravity := mathx.V3(0, 0, sim.Gravity)
	specificWorld := accelWorld.Sub(gravity)
	out.Accel = state.Att.RotateInverse(specificWorld).
		Add(*accelBias).
		Add(s.noiseVec(s.cfg.AccelNoise))
}

func (s *Suite) noise(sigma float64) float64 {
	if sigma <= 0 {
		return 0
	}
	return s.rng.NormFloat64() * sigma
}

func (s *Suite) noiseVec(sigma float64) mathx.Vec3 {
	if sigma <= 0 {
		return mathx.Vec3{}
	}
	return mathx.V3(
		s.rng.NormFloat64()*sigma,
		s.rng.NormFloat64()*sigma,
		s.rng.NormFloat64()*sigma,
	)
}
