package sim

import "github.com/ares-cps/ares/internal/mathx"

// Obstacle is a named solid axis-aligned box in the world, used both as a
// physical obstacle (wall) and as the forbidden zone of the controlled
// failure case study. Contact with either crashes the vehicle.
type Obstacle struct {
	Name string
	Box  mathx.AABB
}

// World holds the static environment: a flat ground plane at Z = 0 and a set
// of obstacles.
type World struct {
	Obstacles []Obstacle
}

// AddObstacle appends an obstacle to the world.
func (w *World) AddObstacle(o Obstacle) { w.Obstacles = append(w.Obstacles, o) }

// Hit returns the first obstacle containing p, if any.
func (w *World) Hit(p mathx.Vec3) (Obstacle, bool) {
	for _, o := range w.Obstacles {
		if o.Box.Contains(p) {
			return o, true
		}
	}
	return Obstacle{}, false
}

// Battery models a simple constant-capacity battery with linear voltage sag.
type Battery struct {
	// CapacitymAh is the full charge in mAh.
	CapacitymAh float64
	// RemainmAh is the remaining charge in mAh.
	RemainmAh float64
	// NominalV is the full-charge terminal voltage in V.
	NominalV float64
	// Voltage is the current (sagged) terminal voltage in V.
	Voltage float64
	// CurrentA is the most recent current draw in A.
	CurrentA float64
}

// Depleted reports whether the battery is empty.
func (b Battery) Depleted() bool { return b.RemainmAh <= 0 }

// Fraction returns the remaining charge fraction in [0, 1].
func (b Battery) Fraction() float64 {
	if b.CapacitymAh <= 0 {
		return 0
	}
	return mathx.Clamp(b.RemainmAh/b.CapacitymAh, 0, 1)
}

// drain removes charge for the given current over dt seconds and updates
// the terminal voltage, which sags linearly to 80% of nominal at empty.
func (b *Battery) drain(currentA, dt float64) {
	b.CurrentA = currentA
	b.RemainmAh -= currentA * dt * 1000 / 3600
	if b.RemainmAh < 0 {
		b.RemainmAh = 0
	}
	b.Voltage = b.NominalV * (0.8 + 0.2*b.Fraction())
}
