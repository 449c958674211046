package ekf

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"github.com/ares-cps/ares/internal/control"
	"github.com/ares-cps/ares/internal/mathx"
	"github.com/ares-cps/ares/internal/sensors"
	"github.com/ares-cps/ares/internal/sim"
	"github.com/ares-cps/ares/internal/vars"
)

const dt = 1.0 / 400

// reset re-initializes e at the given position and yaw with zero velocity,
// level attitude and the loose prior New starts from.
func reset(e *EKF, pos mathx.Vec3, yaw float64) {
	e.x = [n]float64{}
	e.x[ixYaw] = yaw
	e.x[ixPN], e.x[ixPE], e.x[ixPD] = pos.X, pos.Y, pos.Z
	e.p = [n][n]float64{}
	for i := 0; i < n; i++ {
		e.p[i][i] = 1.0
	}
	e.syncOutputs()
}

func TestEKFPredictAttitude(t *testing.T) {
	e := New()
	// Constant roll rate of 0.5 rad/s for 1 s at level attitude.
	for i := 0; i < 400; i++ {
		e.Predict(mathx.V3(0.5, 0, 0), mathx.V3(0, 0, -gravity), dt)
	}
	roll, pitch, _ := e.Attitude()
	if !mathx.ApproxEqual(roll, 0.5, 0.01) {
		t.Errorf("roll = %v, want ~0.5", roll)
	}
	if math.Abs(pitch) > 0.01 {
		t.Errorf("pitch = %v, want ~0", pitch)
	}
}

// TestEKFAttitudeQuatMemo checks that the memoized AttitudeQuat always
// returns the bits QuatFromEuler(Attitude()) computes, after every kind of
// update that moves the attitude and on a repeat read.
func TestEKFAttitudeQuatMemo(t *testing.T) {
	e := New()
	check := func(what string) {
		t.Helper()
		want := mathx.QuatFromEuler(e.Attitude())
		for read := 0; read < 2; read++ {
			got := e.AttitudeQuat()
			if math.Float64bits(got.W) != math.Float64bits(want.W) ||
				math.Float64bits(got.X) != math.Float64bits(want.X) ||
				math.Float64bits(got.Y) != math.Float64bits(want.Y) ||
				math.Float64bits(got.Z) != math.Float64bits(want.Z) {
				t.Fatalf("after %s, read %d: AttitudeQuat() = %v, QuatFromEuler(Attitude()) = %v", what, read, got, want)
			}
		}
	}
	check("New")
	for i := 0; i < 20; i++ {
		e.Predict(mathx.V3(0.2, -0.1, 0.3), mathx.V3(0.5, -0.4, -gravity), dt)
		check("Predict")
		e.FuseGravity(mathx.V3(0.3, 0.2, -gravity))
		check("FuseGravity")
		e.FuseMag(2.5)
		check("FuseMag")
		e.FuseGPS(mathx.V3(1, -1, -5), mathx.V3(0.5, 0, 0))
		check("FuseGPS")
	}
}

func TestEKFPredictVelocityAndPosition(t *testing.T) {
	e := New()
	// Level, accelerating north at 1 m/s²: specific force (1, 0, -g).
	for i := 0; i < 400; i++ {
		e.Predict(mathx.Vec3{}, mathx.V3(1, 0, -gravity), dt)
	}
	v := e.Velocity()
	if !mathx.ApproxEqual(v.X, 1, 0.01) {
		t.Errorf("vN = %v, want ~1", v.X)
	}
	p := e.Position()
	if !mathx.ApproxEqual(p.X, 0.5, 0.01) {
		t.Errorf("pN = %v, want ~0.5", p.X)
	}
}

func TestEKFFuseGPSPullsState(t *testing.T) {
	e := New()
	target := mathx.V3(10, -5, -3)
	for i := 0; i < 50; i++ {
		e.Predict(mathx.Vec3{}, mathx.V3(0, 0, -gravity), dt)
		e.FuseGPS(target, mathx.Vec3{})
	}
	if got := e.Position().Dist(target); got > 0.5 {
		t.Errorf("position %v not pulled to GPS %v (dist %v)", e.Position(), target, got)
	}
}

func TestEKFFuseBaro(t *testing.T) {
	e := New()
	for i := 0; i < 200; i++ {
		e.Predict(mathx.Vec3{}, mathx.V3(0, 0, -gravity), dt)
		e.FuseBaro(20)
	}
	if got := -e.Position().Z; !mathx.ApproxEqual(got, 20, 1) {
		t.Errorf("altitude = %v, want ~20", got)
	}
}

func TestEKFFuseMagHandlesWrap(t *testing.T) {
	e := New()
	reset(e, mathx.Vec3{}, mathx.Rad(-179))
	// Magnetometer says +179°: the filter must move -2° (through ±180),
	// not +358°.
	for i := 0; i < 100; i++ {
		e.FuseMag(mathx.Rad(179))
	}
	_, _, yaw := e.Attitude()
	if math.Abs(mathx.WrapPi(yaw-mathx.Rad(179))) > mathx.Rad(2) {
		t.Errorf("yaw = %v deg, want ~179", mathx.Deg(yaw))
	}
}

func TestEKFFuseGravityCorrectsTilt(t *testing.T) {
	e := New()
	// Inject an attitude error, then feed level gravity measurements.
	e.x[ixRoll] = 0.3
	for i := 0; i < 400; i++ {
		e.FuseGravity(mathx.V3(0, 0, -gravity))
	}
	roll, _, _ := e.Attitude()
	if math.Abs(roll) > 0.02 {
		t.Errorf("roll after gravity fusion = %v, want ~0", roll)
	}
}

func TestEKFFuseGravityRejectsManeuvers(t *testing.T) {
	e := New()
	e.x[ixRoll] = 0.3
	// 2 g specific force: measurement must be rejected.
	e.FuseGravity(mathx.V3(0, 0, -2*gravity))
	roll, _, _ := e.Attitude()
	if roll != 0.3 {
		t.Errorf("maneuvering gravity fusion changed roll to %v", roll)
	}
}

func TestEKFCovarianceStaysPositive(t *testing.T) {
	e := New()
	for i := 0; i < 4000; i++ {
		e.Predict(mathx.V3(0.1, -0.05, 0.2), mathx.V3(0.5, 0, -gravity), dt)
		if i%80 == 0 {
			e.FuseGPS(mathx.V3(1, 2, -3), mathx.V3(0.1, 0, 0))
			e.FuseBaro(3)
			e.FuseMag(0.5)
		}
	}
	for i := 0; i < n; i++ {
		if v := e.p[i][i]; v <= 0 || math.IsNaN(v) {
			t.Fatalf("covariance diag[%d] = %v", i, v)
		}
	}
}

// TestEKFReset checks the reset helper that the tests starting from a pose
// rely on: it must place a filter that has already run at that pose.
func TestEKFReset(t *testing.T) {
	e := New()
	e.Predict(mathx.V3(1, 1, 1), mathx.V3(3, 0, -gravity), 0.5)
	reset(e, mathx.V3(5, 6, -7), 1.0)
	if e.Position() != mathx.V3(5, 6, -7) {
		t.Errorf("reset position = %v", e.Position())
	}
	_, _, yaw := e.Attitude()
	if yaw != 1.0 {
		t.Errorf("reset yaw = %v", yaw)
	}
	if e.Velocity().Norm() != 0 {
		t.Errorf("reset velocity = %v", e.Velocity())
	}
}

func TestEKFZeroDTPredictNoOp(t *testing.T) {
	e := New()
	before := e.Position()
	e.Predict(mathx.V3(1, 1, 1), mathx.V3(1, 1, 1), 0)
	if e.Position() != before {
		t.Error("zero-dt Predict changed state")
	}
}

func TestEKFRegisterVars(t *testing.T) {
	e := New()
	set := vars.NewSet()
	if err := e.RegisterVars(set); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"EKF1.Roll", "EKF1.VN", "EKF1.PD", "NKF4.IPos"} {
		if _, ok := set.Lookup(name); !ok {
			t.Errorf("missing %s", name)
		}
	}
	e.Predict(mathx.V3(0.5, 0, 0), mathx.V3(0, 0, -gravity), 0.1)
	ref, _ := set.Lookup("EKF1.Roll")
	roll, _, _ := e.Attitude()
	if ref.Get() != roll {
		t.Errorf("EKF1.Roll var %v != attitude %v", ref.Get(), roll)
	}
}

// TestEKFTracksSimulatedFlight closes the loop: the EKF consuming noisy
// sensors from a simulated flight must track true attitude and position.
// This is the property the SAVIOR monitor depends on.
func TestEKFTracksSimulatedFlight(t *testing.T) {
	quad, err := sim.NewQuad(sim.IRISPlusParams(), sim.WithInitialState(sim.State{
		Pos: mathx.V3(0, 0, -10),
		Att: mathx.QuatIdentity(),
	}))
	if err != nil {
		t.Fatal(err)
	}
	suite := sensors.NewSuite(sensors.DefaultConfig())
	e := New()
	reset(e, mathx.V3(0, 0, -10), 0)

	hover := quad.Params.HoverThrottle()
	s := quad.State()
	s.Motor = [4]float64{hover, hover, hover, hover}
	quad.SetState(s)

	att := control.NewAttitudeController(dt)
	pos := control.NewPositionController(dt, hover)
	var mix control.Mixer

	var maxRollErr, maxPosErr float64
	for i := 0; i < 10*400; i++ {
		// Closed-loop hover with a mild periodic roll excitation to keep
		// the flight dynamic.
		st := quad.State()
		trueR, trueP, trueY := st.Att.Euler()
		_, _, thr := pos.Update(mathx.V3(0, 0, -10), st.Pos, st.Vel, trueY)
		wobble := mathx.Rad(3) * math.Sin(float64(i)*dt*2*math.Pi*0.5)
		tr, tp, ty := att.Update(wobble, 0, 0, trueR, trueP, trueY, st.Omega)
		quad.Step(mix.Mix(thr, tr, tp, ty), dt)
		var r sensors.Reading
		_, _, yaw := quad.Euler()
		suite.Sample(&r, quad.Time(), quad.StateRef(), yaw, quad.LastAccel(), quad.Battery())
		e.Predict(r.IMU.Gyro, r.IMU.Accel, dt)
		e.FuseGravity(r.IMU.Accel)
		if i%25 == 0 { // 16 Hz aiding
			e.FuseBaro(r.BaroAlt)
			e.FuseMag(r.MagYaw)
		}
		if r.GPSFresh {
			e.FuseGPS(r.GPS.Pos, r.GPS.Vel)
		}
		trueRoll, _, _ := quad.State().Att.Euler()
		estRoll, _, _ := e.Attitude()
		if d := math.Abs(mathx.WrapPi(trueRoll - estRoll)); d > maxRollErr {
			maxRollErr = d
		}
		if d := e.Position().Dist(quad.State().Pos); d > maxPosErr {
			maxPosErr = d
		}
	}
	if maxRollErr > mathx.Rad(5) {
		t.Errorf("max roll error %.2f deg, want < 5", mathx.Deg(maxRollErr))
	}
	if maxPosErr > 3 {
		t.Errorf("max position error %.2f m, want < 3", maxPosErr)
	}
}

// denseFPFt is the covariance prediction's oracle: it builds the dense F
// and computes F·P·Fᵀ with the textbook triple loops. predictCov must match
// it bit-for-bit.
func denseFPFt(p [n][n]float64, dt float64) [n][n]float64 {
	var f [n][n]float64
	for i := 0; i < n; i++ {
		f[i][i] = 1
	}
	f[ixPN][ixVN] = dt
	f[ixPE][ixVE] = dt
	f[ixPD][ixVD] = dt
	f[ixVN][ixPitch] = -gravity * dt
	f[ixVE][ixRoll] = gravity * dt

	var fp [n][n]float64
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for k := 0; k < n; k++ {
				s += f[i][k] * p[k][j]
			}
			fp[i][j] = s
		}
	}
	var out [n][n]float64
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for k := 0; k < n; k++ {
				s += fp[i][k] * f[j][k]
			}
			out[i][j] = s
		}
	}
	return out
}

// densePredict runs Predict with the oracle's covariance: the state update
// does not read P, so only P is replaced.
func densePredict(e *EKF, gyro, accel mathx.Vec3, dt float64) {
	p := e.p
	e.Predict(gyro, accel, dt)
	e.p = denseFPFt(p, dt)
	q := [3]float64{sq(tune.gyro) * dt, sq(tune.accel) * dt, sq(tune.pos) * dt}
	for i := 0; i < n; i++ {
		e.p[i][i] += q[i/3]
	}
}

func allFinite(m *[n][n]float64) bool {
	for i := range m {
		for _, v := range m[i] {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
	}
	return true
}

// checkPredictCov compares predictCov with the oracle on one finite P. If
// the dense product overflows, the oracle's 0·Inf terms turn it into NaN
// where the kernel skips them; both must then hold a non-finite entry.
// Otherwise every entry must match bit-for-bit.
func checkPredictCov(t *testing.T, p [n][n]float64, dt float64) {
	t.Helper()
	want := denseFPFt(p, dt)
	got := p
	predictCov(&got, dt)
	if !allFinite(&want) {
		if allFinite(&got) {
			t.Fatalf("dt=%v: dense product overflows, kernel stays finite\nP=%v", dt, p)
		}
		return
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if math.Float64bits(got[i][j]) != math.Float64bits(want[i][j]) {
				t.Fatalf("dt=%v: P'[%d][%d] = %v (%#x), dense %v (%#x)\nP=%v", dt, i, j,
					got[i][j], math.Float64bits(got[i][j]), want[i][j], math.Float64bits(want[i][j]), p)
			}
		}
	}
}

// TestPredictCovMatchesDense drives the structured kernel and the dense
// oracle over random P matrices salted with signed zeros, subnormals and
// extreme magnitudes, at several step sizes.
func TestPredictCovMatchesDense(t *testing.T) {
	special := []float64{
		0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		0x1p-1060, -0x1p-1030, 1e-300, -1e-300, 1e300, -1e300, math.MaxFloat64, -math.MaxFloat64,
	}
	rng := rand.New(rand.NewSource(1))
	iters := 20000
	if testing.Short() {
		iters = 2000
	}
	for _, step := range []float64{1.0 / 400, 0.01, 0.5, 7, 1e-200} {
		for it := 0; it < iters; it++ {
			var p [n][n]float64
			for i := range p {
				for j := range p[i] {
					switch r := rng.Intn(8); {
					case r < 3:
						p[i][j] = special[rng.Intn(len(special))]
					case r < 7:
						p[i][j] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(21)-10))
					default:
						// Exact cancellation against the coupling term.
						p[i][j] = -p[(i+1)%n][j]
					}
				}
			}
			checkPredictCov(t, p, step)
		}
	}
}

// FuzzPredictCovVsDense decodes 81 covariance entries and dt from the fuzz
// bytes (missing bytes read as zero) and holds the kernel to the oracle
// whenever all inputs are finite and dt is one Predict would accept.
func FuzzPredictCovVsDense(f *testing.F) {
	seed := func(p [n][n]float64, dt float64) []byte {
		b := make([]byte, 0, 8*(n*n+1))
		for i := range p {
			for _, v := range p[i] {
				b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
			}
		}
		return binary.LittleEndian.AppendUint64(b, math.Float64bits(dt))
	}
	f.Add(seed(New().p, dt))
	var signed [n][n]float64
	for i := range signed {
		for j := range signed[i] {
			signed[i][j] = math.Copysign(float64(i-j)*1e-310, float64(j-i))
		}
	}
	f.Add(seed(signed, 0.25))
	f.Fuzz(func(t *testing.T, data []byte) {
		var buf [8 * (n*n + 1)]byte
		copy(buf[:], data)
		var p [n][n]float64
		for i := range p {
			for j := range p[i] {
				p[i][j] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*(i*n+j):]))
			}
		}
		step := math.Float64frombits(binary.LittleEndian.Uint64(buf[8*n*n:]))
		if !allFinite(&p) || !(step > 0) || math.IsInf(step, 1) {
			return
		}
		checkPredictCov(t, p, step)
	})
}

// TestPredictLockstepWithDense runs the filter and an oracle-driven twin
// through a mixed predict/fuse sequence and requires x and P to stay
// bit-identical at every step.
func TestPredictLockstepWithDense(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	e, o := New(), New()
	reset(e, mathx.V3(1, -2, -10), 0.3)
	reset(o, mathx.V3(1, -2, -10), 0.3)
	vec := func(scale float64) mathx.Vec3 {
		return mathx.V3(rng.NormFloat64()*scale, rng.NormFloat64()*scale, rng.NormFloat64()*scale)
	}
	for i := 0; i < 4000; i++ {
		switch r := rng.Intn(10); {
		case r < 5:
			gyro, accel := vec(0.3), vec(0.5).Add(mathx.V3(0, 0, -gravity))
			e.Predict(gyro, accel, dt)
			densePredict(o, gyro, accel, dt)
		case r < 6:
			pos, vel := vec(3), vec(1)
			e.FuseGPS(pos, vel)
			o.FuseGPS(pos, vel)
		case r < 7:
			alt := 10 + rng.NormFloat64()
			e.FuseBaro(alt)
			o.FuseBaro(alt)
		case r < 8:
			yaw := rng.Float64()*2*math.Pi - math.Pi
			e.FuseMag(yaw)
			o.FuseMag(yaw)
		default:
			accel := vec(0.8).Add(mathx.V3(0, 0, -gravity))
			e.FuseGravity(accel)
			o.FuseGravity(accel)
		}
		for a := 0; a < n; a++ {
			if math.Float64bits(e.x[a]) != math.Float64bits(o.x[a]) {
				t.Fatalf("step %d: x[%d] = %v, oracle %v", i, a, e.x[a], o.x[a])
			}
			for b := 0; b < n; b++ {
				if math.Float64bits(e.p[a][b]) != math.Float64bits(o.p[a][b]) {
					t.Fatalf("step %d: P[%d][%d] = %v, oracle %v", i, a, b, e.p[a][b], o.p[a][b])
				}
			}
		}
	}
}

func TestPredictAllocatesNothing(t *testing.T) {
	e := New()
	gyro, accel := mathx.V3(0.1, -0.05, 0.02), mathx.V3(0.2, 0.1, -9.8)
	if allocs := testing.AllocsPerRun(100, func() { e.Predict(gyro, accel, dt) }); allocs != 0 {
		t.Errorf("Predict allocates %v times per call, want 0", allocs)
	}
}

// TestPredictNonFiniteDT: a NaN or ±Inf dt must leave the whole filter,
// state, covariance and log outputs, untouched.
func TestPredictNonFiniteDT(t *testing.T) {
	for _, c := range []struct {
		name string
		dt   float64
	}{{"nan", math.NaN()}, {"inf", math.Inf(1)}, {"neg-inf", math.Inf(-1)}} {
		t.Run(c.name, func(t *testing.T) {
			e := New()
			for i := 0; i < 50; i++ {
				e.Predict(mathx.V3(0.2, 0.1, 0), mathx.V3(0.3, 0, -gravity), dt)
			}
			before := *e
			e.Predict(mathx.V3(0.2, 0.1, 0), mathx.V3(0.3, 0, -gravity), c.dt)
			if *e != before {
				t.Errorf("Predict(dt=%v) changed the filter: x=%v", c.dt, e.x)
			}
		})
	}
}
