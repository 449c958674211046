package sim

import (
	"testing"

	"github.com/ares-cps/ares/internal/mathx"
)

// TestWorldHitAndForbidden: a wall and a forbidden zone are both solid
// obstacles, so Hit reports contact with either and nothing between them.
func TestWorldHitAndForbidden(t *testing.T) {
	w := &World{}
	w.AddObstacle(Obstacle{
		Name: "wall",
		Box:  mathx.AABB{Min: mathx.V3(0, 0, -10), Max: mathx.V3(1, 10, 0)},
	})
	w.AddObstacle(Obstacle{
		Name: "forbidden-zone",
		Box:  mathx.AABB{Min: mathx.V3(20, 0, -50), Max: mathx.V3(30, 10, 0)},
	})

	if ob, hit := w.Hit(mathx.V3(0.5, 5, -5)); !hit || ob.Name != "wall" {
		t.Errorf("point inside wall: hit %v (%q)", hit, ob.Name)
	}
	if ob, hit := w.Hit(mathx.V3(25, 5, -5)); !hit || ob.Name != "forbidden-zone" {
		t.Errorf("point inside forbidden zone: hit %v (%q)", hit, ob.Name)
	}
	if _, hit := w.Hit(mathx.V3(10, 5, -5)); hit {
		t.Error("point between obstacles reported as hit")
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
