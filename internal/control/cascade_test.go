package control

import (
	"math"
	"math/rand"
	"testing"

	"github.com/ares-cps/ares/internal/mathx"
	"github.com/ares-cps/ares/internal/sim"
	"github.com/ares-cps/ares/internal/vars"
)

const testDT = 1.0 / 400

func TestAttitudeControllerCommandsTowardTarget(t *testing.T) {
	a := NewAttitudeController(testDT)
	// Vehicle level, target roll +10°: roll torque demand must be positive.
	tr, tp, ty := a.Update(mathx.Rad(10), 0, 0, 0, 0, 0, mathx.Vec3{})
	if tr <= 0 {
		t.Errorf("roll torque = %v, want > 0", tr)
	}
	if math.Abs(tp) > 1e-9 || math.Abs(ty) > 1e-9 {
		t.Errorf("pitch/yaw torque = %v/%v, want 0", tp, ty)
	}
}

func TestAttitudeControllerYawWrap(t *testing.T) {
	a := NewAttitudeController(testDT)
	// Target yaw 179°, measured -179°: shortest path is -2°, so the yaw
	// demand must be negative, not a +358° slew.
	_, _, ty := a.Update(0, 0, mathx.Rad(179), 0, 0, mathx.Rad(-179), mathx.Vec3{})
	if ty >= 0 {
		t.Errorf("yaw torque = %v, want < 0 (wrap-aware)", ty)
	}
}

func TestAttitudeControllerRegisterVars(t *testing.T) {
	a := NewAttitudeController(testDT)
	set := vars.NewSet()
	if err := a.RegisterVars(set); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"ATT.DesRoll", "ATT.Roll", "RATE.RDes",
		"PIDR.INTEG", "PIDP.KP", "PIDY.OUT", "ANGR.P",
	} {
		if _, ok := set.Lookup(name); !ok {
			t.Errorf("missing variable %s", name)
		}
	}
}

func TestPositionControllerHorizontal(t *testing.T) {
	c := NewPositionController(testDT, 0.4)
	// Target 10 m north of the vehicle, yaw 0: expect a pitch-forward
	// (negative pitch) command and near-zero roll.
	desRoll, desPitch, _ := c.Update(
		mathx.V3(10, 0, -5), mathx.V3(0, 0, -5), mathx.Vec3{}, 0)
	if desPitch >= 0 {
		t.Errorf("desPitch = %v, want < 0 (nose down to accelerate north)", desPitch)
	}
	if math.Abs(desRoll) > 1e-6 {
		t.Errorf("desRoll = %v, want ~0", desRoll)
	}
	// Target east with yaw 0: expect positive roll.
	c2 := NewPositionController(testDT, 0.4)
	desRoll2, _, _ := c2.Update(
		mathx.V3(0, 10, -5), mathx.V3(0, 0, -5), mathx.Vec3{}, 0)
	if desRoll2 <= 0 {
		t.Errorf("desRoll = %v, want > 0 (roll right to accelerate east)", desRoll2)
	}
}

func TestPositionControllerHeadingFrame(t *testing.T) {
	c := NewPositionController(testDT, 0.4)
	// Target north, but vehicle yawed 90° (facing east): the target is to
	// the vehicle's left, so it must roll left (negative).
	desRoll, _, _ := c.Update(
		mathx.V3(10, 0, -5), mathx.V3(0, 0, -5), mathx.Vec3{}, math.Pi/2)
	if desRoll >= 0 {
		t.Errorf("desRoll = %v, want < 0 when target is to the left", desRoll)
	}
}

func TestPositionControllerVertical(t *testing.T) {
	c := NewPositionController(testDT, 0.4)
	// Below target: throttle must exceed hover.
	_, _, thr := c.Update(mathx.V3(0, 0, -10), mathx.V3(0, 0, -5), mathx.Vec3{}, 0)
	if thr <= c.HoverThrottle {
		t.Errorf("throttle = %v, want > hover %v", thr, c.HoverThrottle)
	}
	// Above target: throttle below hover.
	c2 := NewPositionController(testDT, 0.4)
	_, _, thr2 := c2.Update(mathx.V3(0, 0, -5), mathx.V3(0, 0, -10), mathx.Vec3{}, 0)
	if thr2 >= c.HoverThrottle {
		t.Errorf("throttle = %v, want < hover %v", thr2, c.HoverThrottle)
	}
}

func TestPositionControllerLeanAngleClamp(t *testing.T) {
	c := NewPositionController(testDT, 0.4)
	// Huge error must not exceed the lean-angle limit.
	_, desPitch, _ := c.Update(mathx.V3(1e6, 0, 0), mathx.Vec3{}, mathx.Vec3{}, 0)
	if math.Abs(desPitch) > c.MaxLeanAngle+1e-12 {
		t.Errorf("lean angle %v exceeds limit %v", desPitch, c.MaxLeanAngle)
	}
}

func TestPositionControllerRegisterVars(t *testing.T) {
	c := NewPositionController(testDT, 0.4)
	set := vars.NewSet()
	if err := c.RegisterVars(set); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"NTUN.DVelX", "NTUN.tv", "CTUN.ThO", "SQP.P", "PIDVX.INTEG", "PIDVZ.KP",
	} {
		if _, ok := set.Lookup(name); !ok {
			t.Errorf("missing variable %s", name)
		}
	}
}

func TestMixerDirections(t *testing.T) {
	var m Mixer
	// Pure throttle: all equal.
	cmd := m.Mix(0.5, 0, 0, 0)
	for i, c := range cmd {
		if c != 0.5 {
			t.Errorf("motor %d = %v, want 0.5", i, c)
		}
	}
	// Positive roll torque demand: left motors (m1 BL, m2 FL) higher.
	cmd = m.Mix(0.5, 0.1, 0, 0)
	if !(cmd[1] > cmd[0] && cmd[2] > cmd[3]) {
		t.Errorf("roll mix = %v", cmd)
	}
	// Positive pitch: front motors (m0, m2) higher.
	cmd = m.Mix(0.5, 0, 0.1, 0)
	if !(cmd[0] > cmd[1] && cmd[2] > cmd[3]) {
		t.Errorf("pitch mix = %v", cmd)
	}
	// Positive yaw: CCW motors (m0, m1) higher.
	cmd = m.Mix(0.5, 0, 0, 0.1)
	if !(cmd[0] > cmd[2] && cmd[1] > cmd[3]) {
		t.Errorf("yaw mix = %v", cmd)
	}
	// Saturation clamps to [0, 1].
	cmd = m.Mix(0.9, 0.5, 0.5, 0.5)
	for i, c := range cmd {
		if c < 0 || c > 1 {
			t.Errorf("motor %d = %v out of range", i, c)
		}
	}
	if m.LastCommands() != cmd {
		t.Error("LastCommands mismatch")
	}
}

// TestClosedLoopStabilization is the control package's integration test: the
// full cascade flying the simulated quadrotor must reach and hold a hover
// setpoint.
func TestClosedLoopStabilization(t *testing.T) {
	quad, err := sim.NewQuad(sim.IRISPlusParams(), sim.WithInitialState(sim.State{
		Pos: mathx.V3(0, 0, -10),
		Att: mathx.QuatIdentity(),
	}))
	if err != nil {
		t.Fatal(err)
	}
	hover := quad.Params.HoverThrottle()
	att := NewAttitudeController(testDT)
	pos := NewPositionController(testDT, hover)
	var mix Mixer

	target := mathx.V3(5, 3, -12)
	for i := 0; i < 20*400; i++ { // 20 s
		st := quad.State()
		roll, pitch, yaw := st.Att.Euler()
		desRoll, desPitch, thr := pos.Update(target, st.Pos, st.Vel, yaw)
		tr, tp, ty := att.Update(desRoll, desPitch, 0, roll, pitch, yaw, st.Omega)
		quad.Step(mix.Mix(thr, tr, tp, ty), testDT)
	}
	if crashed, reason := quad.Crashed(); crashed {
		t.Fatalf("vehicle crashed during hover test: %s", reason)
	}
	final := quad.State().Pos
	if final.Dist(target) > 0.5 {
		t.Errorf("final position %v, want within 0.5 m of %v", final, target)
	}
	if quad.State().Vel.Norm() > 0.3 {
		t.Errorf("final speed %v, want near hover", quad.State().Vel.Norm())
	}
}

func TestSINSIntegratesMotion(t *testing.T) {
	s := NewSINS()
	// Constant 1 m/s² north specific force with level attitude: after 1 s,
	// velocity ~1 m/s and position ~0.5 m.
	att := mathx.QuatIdentity()
	accBody := mathx.V3(1, 0, -gravityMS2) // specific force includes gravity reaction
	for i := 0; i < 400; i++ {
		s.Predict(accBody, att, testDT)
	}
	v := s.Velocity()
	if !mathx.ApproxEqual(v.X, 1, 0.01) || math.Abs(v.Z) > 0.01 {
		t.Errorf("velocity = %v, want ~(1,0,0)", v)
	}
	p := s.Position()
	if !mathx.ApproxEqual(p.X, 0.5, 0.01) {
		t.Errorf("position = %v, want x≈0.5", p)
	}
}

func TestSINSCorrections(t *testing.T) {
	s := NewSINS()
	s.Predict(mathx.V3(0, 0, -gravityMS2), mathx.QuatIdentity(), 0.1)
	// Estimate is at origin; aiding source says (1, 0, 0).
	for i := 0; i < 200; i++ {
		s.Predict(mathx.V3(0, 0, -gravityMS2), mathx.QuatIdentity(), 0.1)
		s.CorrectPosition(mathx.V3(1, 0, 0))
		s.CorrectVelocity(mathx.Vec3{})
	}
	if got := s.Position().X; !mathx.ApproxEqual(got, 1, 0.05) {
		t.Errorf("corrected position x = %v, want ~1", got)
	}
	if got := s.Velocity().Norm(); got > 0.05 {
		t.Errorf("corrected velocity = %v, want ~0", got)
	}
}

func TestSINSVars(t *testing.T) {
	s := NewSINS()
	s.posN, s.posE, s.posD = 1, 2, 3
	s.velN, s.velE, s.velD = 4, 5, 6
	if s.Position() != mathx.V3(1, 2, 3) || s.Velocity() != mathx.V3(4, 5, 6) {
		t.Errorf("Position/Velocity = %v/%v, want the stored solution", s.Position(), s.Velocity())
	}
	set := vars.NewSet()
	if err := s.RegisterVars(set, "SINS"); err != nil {
		t.Fatal(err)
	}
	ref, ok := set.Lookup("SINS.PN")
	if !ok || ref.Get() != 1 {
		t.Errorf("SINS.PN = %v, %v", ref, ok)
	}
	if got := len(set.Names()); got != 11 {
		t.Errorf("SINS registered %d vars, want 11", got)
	}
	// Zero-dt Predict is a no-op.
	before := s.Position()
	s.Predict(mathx.V3(100, 0, 0), mathx.QuatIdentity(), 0)
	if s.Position() != before {
		t.Error("zero-dt Predict changed state")
	}
}

// TestSincosMatchesSinCos: the attitude and position controllers take one
// math.Sincos where they took a math.Sin and a math.Cos of the same angle.
// Sincos runs the same reduction and polynomials, so both results must
// match bit for bit on every non-NaN float64 and on the canonical NaN. A
// NaN with another payload gives NaN from both, but math.Sin returns its
// input's payload where Sincos returns the canonical NaN.
func TestSincosMatchesSinCos(t *testing.T) {
	check := func(x float64) {
		t.Helper()
		s, c := math.Sincos(x)
		ws, wc := math.Sin(x), math.Cos(x)
		if math.IsNaN(x) && math.Float64bits(x) != math.Float64bits(math.NaN()) {
			if !math.IsNaN(s) || !math.IsNaN(c) {
				t.Fatalf("Sincos(%#016x) = (%v, %v), want NaN", math.Float64bits(x), s, c)
			}
			return
		}
		if math.Float64bits(s) != math.Float64bits(ws) || math.Float64bits(c) != math.Float64bits(wc) {
			t.Fatalf("Sincos(%v [%#016x]) = (%v, %v), Sin, Cos = (%v, %v)",
				x, math.Float64bits(x), s, c, ws, wc)
		}
	}
	for _, x := range []float64{
		0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		0x1p-1022, 0x1p-1023, math.Pi / 4, math.Pi / 2, math.Pi, 2 * math.Pi, -math.Pi,
		0x1p29, 0x1p29 - 1, -0x1p29, 1e10, 1e300, math.MaxFloat64, -math.MaxFloat64,
		math.Inf(1), math.Inf(-1), math.NaN(),
	} {
		check(x)
		check(math.Nextafter(x, math.Inf(1)))
		check(math.Nextafter(x, math.Inf(-1)))
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 200000; i++ {
		check(math.Float64frombits(r.Uint64()))  // every exponent
		check((r.Float64()*2 - 1) * 4 * math.Pi) // flight attitudes
		check(float64(r.Intn(1<<20)) * math.Pi / 4)
	}
}
