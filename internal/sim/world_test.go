package sim

import (
	"math"
	"testing"

	"github.com/ares-cps/ares/internal/mathx"
)

func TestWorldHitAndForbidden(t *testing.T) {
	w := &World{}
	w.AddObstacle(Obstacle{
		Name: "wall",
		Box:  mathx.AABB{Min: mathx.V3(0, 0, -10), Max: mathx.V3(1, 10, 0)},
	})
	w.AddObstacle(Obstacle{
		Name:      "nofly",
		Box:       mathx.AABB{Min: mathx.V3(20, 0, -50), Max: mathx.V3(30, 10, 0)},
		Forbidden: true,
	})

	if _, hit := w.Hit(mathx.V3(0.5, 5, -5)); !hit {
		t.Error("point inside wall not hit")
	}
	if _, hit := w.Hit(mathx.V3(25, 5, -5)); hit {
		t.Error("forbidden zone reported as solid hit")
	}
}

func TestWindStatistics(t *testing.T) {
	mean := mathx.V3(3, -1, 0)
	w := NewWind(mean, 1.5, 42)
	const n = 200000
	var sum mathx.Vec3
	var sumSq float64
	for i := 0; i < n; i++ {
		v := w.Step(1.0 / 400)
		sum = sum.Add(v)
		d := v.X - mean.X
		sumSq += d * d
	}
	avg := sum.Scale(1.0 / n)
	if avg.Sub(mean).Norm() > 0.25 {
		t.Errorf("wind mean = %v, want ~%v", avg, mean)
	}
	sd := math.Sqrt(sumSq / n)
	if sd < 0.8 || sd > 2.2 {
		t.Errorf("gust stddev (x) = %v, want ~1.5", sd)
	}
}

func TestWindDisabled(t *testing.T) {
	w := NewWind(mathx.V3(2, 0, 0), 0, 1)
	for i := 0; i < 10; i++ {
		if got := w.Step(0.01); got != mathx.V3(2, 0, 0) {
			t.Fatalf("zero-gust wind = %v, want steady mean", got)
		}
	}
}

func TestWindReset(t *testing.T) {
	w := NewWind(mathx.Vec3{}, 2, 3)
	for i := 0; i < 100; i++ {
		w.Step(0.01)
	}
	w.Reset()
	if w.gust != (mathx.Vec3{}) {
		t.Error("Reset did not clear gust state")
	}
}

func TestWindAffectsVehicleDrift(t *testing.T) {
	// A hovering vehicle in a steady 5 m/s north wind must drift north.
	wind := NewWind(mathx.V3(5, 0, 0), 0, 1)
	q, err := NewQuad(IRISPlusParams(),
		WithWind(wind),
		WithInitialState(State{Pos: mathx.V3(0, 0, -20), Att: mathx.QuatIdentity()}),
	)
	if err != nil {
		t.Fatal(err)
	}
	h := q.Params.HoverThrottle()
	s := q.State()
	s.Motor = [4]float64{h, h, h, h}
	q.SetState(s)
	for i := 0; i < 3*400; i++ {
		q.Step([4]float64{h, h, h, h}, 1.0/400)
	}
	if q.State().Pos.X <= 1 {
		t.Errorf("vehicle did not drift downwind: x = %v", q.State().Pos.X)
	}
}

func TestBatteryFraction(t *testing.T) {
	b := Battery{CapacitymAh: 1000, RemainmAh: 250, NominalV: 12, Voltage: 12}
	if got := b.Fraction(); got != 0.25 {
		t.Errorf("Fraction = %v, want 0.25", got)
	}
	var empty Battery
	if got := empty.Fraction(); got != 0 {
		t.Errorf("zero-capacity Fraction = %v", got)
	}
	if !(Battery{}).Depleted() {
		t.Error("empty battery not depleted")
	}
}
