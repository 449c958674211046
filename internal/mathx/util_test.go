package mathx

import (
	"math"
	"math/rand"
	"testing"
)

func TestClamp(t *testing.T) {
	tests := []struct {
		v, lo, hi, want float64
	}{
		{5, 0, 10, 5},
		{-1, 0, 10, 0},
		{11, 0, 10, 10},
		{0, 0, 0, 0},
	}
	for _, tt := range tests {
		if got := Clamp(tt.v, tt.lo, tt.hi); got != tt.want {
			t.Errorf("Clamp(%v, %v, %v) = %v, want %v", tt.v, tt.lo, tt.hi, got, tt.want)
		}
	}
}

func TestWrapPi(t *testing.T) {
	tests := []struct{ give, want float64 }{
		{0, 0},
		{math.Pi / 2, math.Pi / 2},
		{3 * math.Pi, math.Pi},
		{-3 * math.Pi, math.Pi},
		{2 * math.Pi, 0},
	}
	for _, tt := range tests {
		if got := WrapPi(tt.give); !ApproxEqual(got, tt.want, 1e-12) {
			t.Errorf("WrapPi(%v) = %v, want %v", tt.give, got, tt.want)
		}
	}
	// Property: result always in (-π, π].
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 1000; i++ {
		a := rng.NormFloat64() * 100
		w := WrapPi(a)
		if w <= -math.Pi || w > math.Pi {
			t.Fatalf("WrapPi(%v) = %v out of range", a, w)
		}
		// Same angle modulo 2π.
		if !ApproxEqual(math.Mod(a-w, 2*math.Pi), 0, 1e-9) &&
			!ApproxEqual(math.Abs(math.Mod(a-w, 2*math.Pi)), 2*math.Pi, 1e-9) {
			t.Fatalf("WrapPi(%v) = %v changed angle", a, w)
		}
	}
}

func TestDegRad(t *testing.T) {
	if !ApproxEqual(Deg(math.Pi), 180, 1e-12) {
		t.Errorf("Deg(π) = %v", Deg(math.Pi))
	}
	if !ApproxEqual(Rad(90), math.Pi/2, 1e-12) {
		t.Errorf("Rad(90) = %v", Rad(90))
	}
	// Round trip.
	for _, a := range []float64{-37.5, 0, 12.25, 359} {
		if !ApproxEqual(Deg(Rad(a)), a, 1e-9) {
			t.Errorf("Deg(Rad(%v)) = %v", a, Deg(Rad(a)))
		}
	}
}

func TestSegmentClosestPoint(t *testing.T) {
	s := segment{A: V3(0, 0, 0), B: V3(10, 0, 0)}
	tests := []struct {
		give Vec3
		want Vec3
	}{
		{V3(5, 3, 0), V3(5, 0, 0)},    // projects inside
		{V3(-4, 2, 0), V3(0, 0, 0)},   // clamps to A
		{V3(15, -1, 0), V3(10, 0, 0)}, // clamps to B
	}
	for _, tt := range tests {
		if got := s.ClosestPoint(tt.give); got.Dist(tt.want) > 1e-12 {
			t.Errorf("ClosestPoint(%v) = %v, want %v", tt.give, got, tt.want)
		}
	}
	// Degenerate segment.
	d := segment{A: V3(1, 1, 1), B: V3(1, 1, 1)}
	if got := d.ClosestPoint(V3(5, 5, 5)); got != V3(1, 1, 1) {
		t.Errorf("degenerate ClosestPoint = %v", got)
	}
}

func TestPathDistance(t *testing.T) {
	path := []Vec3{V3(0, 0, 0), V3(10, 0, 0), V3(10, 10, 0)}
	tests := []struct {
		give Vec3
		want float64
	}{
		{V3(5, 2, 0), 2},  // closest to first leg
		{V3(12, 5, 0), 2}, // closest to second leg
		{V3(10, 0, 0), 0}, // on the corner
		{V3(0, -3, 0), 3}, // off the start
	}
	for _, tt := range tests {
		if got := PathDistance(tt.give, path); !ApproxEqual(got, tt.want, 1e-12) {
			t.Errorf("PathDistance(%v) = %v, want %v", tt.give, got, tt.want)
		}
	}
	if got := PathDistance(V3(0, 0, 0), nil); !math.IsInf(got, 1) {
		t.Errorf("empty path distance = %v, want +Inf", got)
	}
	if got := PathDistance(V3(3, 4, 0), []Vec3{{}}); got != 5 {
		t.Errorf("single point distance = %v, want 5", got)
	}
}

func TestAABB(t *testing.T) {
	box := AABB{Min: V3(0, 0, 0), Max: V3(10, 10, 10)}
	if !box.Contains(V3(5, 5, 5)) {
		t.Error("center not contained")
	}
	if box.Contains(V3(11, 5, 5)) {
		t.Error("outside point contained")
	}
	if got := box.Distance(V3(5, 5, 5)); got != 0 {
		t.Errorf("inside distance = %v", got)
	}
	if got := box.Distance(V3(13, 5, 5)); got != 3 {
		t.Errorf("face distance = %v, want 3", got)
	}
	if got := box.Distance(V3(13, 14, 5)); !ApproxEqual(got, 5, 1e-12) {
		t.Errorf("edge distance = %v, want 5", got)
	}
	if got := box.Center(); got != V3(5, 5, 5) {
		t.Errorf("Center = %v", got)
	}
}

func TestLowPassAlpha(t *testing.T) {
	// Disabled filter passes through.
	if got := LowPassAlpha(0, 0.01); got != 1 {
		t.Errorf("alpha(0 Hz) = %v, want 1", got)
	}
	if got := LowPassAlpha(20, 0); got != 1 {
		t.Errorf("alpha(dt=0) = %v, want 1", got)
	}
	a := LowPassAlpha(20, 1.0/400)
	if a <= 0 || a >= 1 {
		t.Errorf("alpha(20 Hz @400 Hz) = %v, want in (0,1)", a)
	}
	// Higher cutoff lets more signal through.
	if LowPassAlpha(40, 1.0/400) <= a {
		t.Error("alpha not monotonic in cutoff")
	}
}

func TestApproxEqual(t *testing.T) {
	if !ApproxEqual(1.0, 1.0+1e-13, 1e-12) {
		t.Error("values within tol reported unequal")
	}
	if ApproxEqual(1.0, 1.1, 1e-3) {
		t.Error("values beyond tol reported equal")
	}
}
