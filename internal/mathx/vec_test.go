package mathx

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestVec3Arithmetic(t *testing.T) {
	a := V3(1, 2, 3)
	b := V3(4, -5, 6)

	if got := a.Add(b); got != V3(5, -3, 9) {
		t.Errorf("Add = %v", got)
	}
	if got := a.Sub(b); got != V3(-3, 7, -3) {
		t.Errorf("Sub = %v", got)
	}
	if got := a.Scale(2); got != V3(2, 4, 6) {
		t.Errorf("Scale = %v", got)
	}
	if got := a.Neg(); got != V3(-1, -2, -3) {
		t.Errorf("Neg = %v", got)
	}
	if got := a.Dot(b); got != 1*4-2*5+3*6 {
		t.Errorf("Dot = %v", got)
	}
	if got := a.Hadamard(b); got != V3(4, -10, 18) {
		t.Errorf("Hadamard = %v", got)
	}
}

func TestVec3Cross(t *testing.T) {
	x, y, z := V3(1, 0, 0), V3(0, 1, 0), V3(0, 0, 1)
	if got := x.Cross(y); got != z {
		t.Errorf("x × y = %v, want z", got)
	}
	if got := y.Cross(z); got != x {
		t.Errorf("y × z = %v, want x", got)
	}
	if got := z.Cross(x); got != y {
		t.Errorf("z × x = %v, want y", got)
	}
}

func TestVec3CrossOrthogonality(t *testing.T) {
	// Property: v × w is orthogonal to both operands.
	f := func(ax, ay, az, bx, by, bz float64) bool {
		a, b := V3(ax, ay, az), V3(bx, by, bz)
		if !a.IsFinite() || !b.IsFinite() {
			return true
		}
		c := a.Cross(b)
		scale := a.Norm() * b.Norm()
		if scale == 0 || math.IsInf(scale, 0) || math.IsNaN(scale) {
			return true
		}
		return math.Abs(c.Dot(a))/scale < 1e-9 && math.Abs(c.Dot(b))/scale < 1e-9
	}
	cfg := &quick.Config{
		MaxCount: 200,
		Values: func(vals []reflect.Value, r *rand.Rand) {
			for i := range vals {
				vals[i] = reflect.ValueOf(r.NormFloat64() * 10)
			}
		},
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestVec3NormAndNormalize(t *testing.T) {
	v := V3(3, 4, 0)
	if got := v.Norm(); got != 5 {
		t.Errorf("Norm = %v, want 5", got)
	}
	if got := v.NormSq(); got != 25 {
		t.Errorf("NormSq = %v, want 25", got)
	}
	n := v.Normalized()
	if !ApproxEqual(n.Norm(), 1, 1e-12) {
		t.Errorf("Normalized().Norm() = %v, want 1", n.Norm())
	}
	// Zero vector stays zero rather than producing NaN.
	if got := V3(0, 0, 0).Normalized(); got != V3(0, 0, 0) {
		t.Errorf("zero Normalized = %v", got)
	}
}

func TestVec3LerpAndDist(t *testing.T) {
	a, b := V3(0, 0, 0), V3(10, 0, 0)
	if got := a.Dist(b); got != 10 {
		t.Errorf("Dist = %v", got)
	}
	if got := V3(1, 1, 0).XY(); !ApproxEqual(got, math.Sqrt2, 1e-12) {
		t.Errorf("XY = %v", got)
	}
}

func TestVec3IsFinite(t *testing.T) {
	if !V3(1, 2, 3).IsFinite() {
		t.Error("finite vector reported non-finite")
	}
	if V3(math.NaN(), 0, 0).IsFinite() {
		t.Error("NaN vector reported finite")
	}
	if V3(0, math.Inf(1), 0).IsFinite() {
		t.Error("Inf vector reported finite")
	}
}
