package mathx

import (
	"math"
	"math/rand"
	"testing"
)

func TestQuatIdentityRotation(t *testing.T) {
	q := QuatIdentity()
	v := V3(1, 2, 3)
	if got := q.Rotate(v); got.Dist(v) > 1e-12 {
		t.Errorf("identity rotation moved vector: %v", got)
	}
	r, p, y := q.Euler()
	if r != 0 || p != 0 || y != 0 {
		t.Errorf("identity Euler = (%v %v %v)", r, p, y)
	}
}

func TestQuatEulerRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		roll := (rng.Float64() - 0.5) * 2 * (math.Pi - 0.01)
		pitch := (rng.Float64() - 0.5) * (math.Pi - 0.02) // avoid gimbal lock
		yaw := (rng.Float64() - 0.5) * 2 * (math.Pi - 0.01)
		q := QuatFromEuler(roll, pitch, yaw)
		r2, p2, y2 := q.Euler()
		if !ApproxEqual(WrapPi(r2-roll), 0, 1e-9) ||
			!ApproxEqual(p2, pitch, 1e-9) ||
			!ApproxEqual(WrapPi(y2-yaw), 0, 1e-9) {
			t.Fatalf("round trip (%v %v %v) -> (%v %v %v)", roll, pitch, yaw, r2, p2, y2)
		}
	}
}

func TestQuatAxisAngle(t *testing.T) {
	// 90° about Z maps X to Y.
	q := quatFromAxisAngle(V3(0, 0, 1), math.Pi/2)
	got := q.Rotate(V3(1, 0, 0))
	if got.Dist(V3(0, 1, 0)) > 1e-12 {
		t.Errorf("90° Z rotation of X = %v, want Y", got)
	}
}

func TestQuatRotatePreservesNorm(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 200; i++ {
		q := QuatFromEuler(rng.NormFloat64(), rng.NormFloat64()/2, rng.NormFloat64())
		v := V3(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()).Scale(5)
		if !ApproxEqual(q.Rotate(v).Norm(), v.Norm(), 1e-9) {
			t.Fatalf("rotation changed norm: |v|=%v |qv|=%v", v.Norm(), q.Rotate(v).Norm())
		}
	}
}

func TestQuatRotateInverse(t *testing.T) {
	q := QuatFromEuler(0.3, -0.2, 1.1)
	v := V3(1, -2, 0.5)
	back := q.RotateInverse(q.Rotate(v))
	if back.Dist(v) > 1e-12 {
		t.Errorf("rotate+inverse = %v, want %v", back, v)
	}
}

func TestQuatIntegrate(t *testing.T) {
	// Integrating a constant yaw rate of 1 rad/s for 1 s in small steps
	// should yield ~1 rad of yaw.
	q := QuatIdentity()
	const dt = 1e-4
	for i := 0; i < 10000; i++ {
		q = q.Integrate(V3(0, 0, 1), dt)
	}
	_, _, yaw := q.Euler()
	if !ApproxEqual(yaw, 1, 1e-3) {
		t.Errorf("integrated yaw = %v, want ~1", yaw)
	}
	if !ApproxEqual(q.Norm(), 1, 1e-12) {
		t.Errorf("integration denormalized quaternion: %v", q.Norm())
	}
}

func TestQuatNormalizedZero(t *testing.T) {
	var z Quat
	if got := z.Normalized(); got != QuatIdentity() {
		t.Errorf("zero quaternion normalized to %v, want identity", got)
	}
}

func TestQuatMulComposition(t *testing.T) {
	// Two 45° yaw rotations compose to 90°.
	h := quatFromAxisAngle(V3(0, 0, 1), math.Pi/4)
	q := h.Mul(h)
	got := q.Rotate(V3(1, 0, 0))
	if got.Dist(V3(0, 1, 0)) > 1e-12 {
		t.Errorf("composed rotation of X = %v, want Y", got)
	}
}

func TestQuatDot(t *testing.T) {
	q := QuatFromEuler(0.1, 0.2, 0.3)
	if !ApproxEqual(q.Dot(q), 1, 1e-12) {
		t.Errorf("q·q = %v, want 1 for unit quaternion", q.Dot(q))
	}
}

// quatFromAxisAngle builds a quaternion rotating angle radians about axis.
func quatFromAxisAngle(axis Vec3, angle float64) Quat {
	axis = axis.Normalized()
	s, c := math.Sincos(angle / 2)
	return Quat{W: c, X: axis.X * s, Y: axis.Y * s, Z: axis.Z * s}
}
