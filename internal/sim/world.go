package sim

import (
	"math"
	"math/rand"

	"github.com/ares-cps/ares/internal/mathx"
)

// Obstacle is a named axis-aligned box in the world, used both as a physical
// obstacle (wall) and as a forbidden navigation zone for the controlled
// failure case study.
type Obstacle struct {
	Name string
	Box  mathx.AABB
	// Forbidden marks zones that are off-limits for path planning but not
	// necessarily solid (e.g. restricted airspace). Solid obstacles crash
	// the vehicle on contact; forbidden zones merely register violations.
	Forbidden bool
}

// World holds the static environment: a flat ground plane at Z = 0 and a set
// of obstacles.
type World struct {
	Obstacles []Obstacle
}

// AddObstacle appends an obstacle to the world.
func (w *World) AddObstacle(o Obstacle) { w.Obstacles = append(w.Obstacles, o) }

// Hit returns the first solid obstacle containing p, if any.
func (w *World) Hit(p mathx.Vec3) (Obstacle, bool) {
	for _, o := range w.Obstacles {
		if !o.Forbidden && o.Box.Contains(p) {
			return o, true
		}
	}
	return Obstacle{}, false
}

// Wind is an Ornstein-Uhlenbeck gust model producing a slowly varying wind
// velocity around a constant mean. It stands in for Gazebo's wind plugin.
type Wind struct {
	// Mean is the steady wind velocity in world NED m/s.
	Mean mathx.Vec3
	// GustSigma is the standard deviation of gust velocity in m/s.
	GustSigma float64
	// GustTau is the gust correlation time constant in s.
	GustTau float64

	rng  *rand.Rand
	gust mathx.Vec3
}

// NewWind creates a wind model with the given mean, gust magnitude and a
// deterministic seed so experiments are reproducible.
func NewWind(mean mathx.Vec3, gustSigma float64, seed int64) *Wind {
	return &Wind{
		Mean:      mean,
		GustSigma: gustSigma,
		GustTau:   2.0,
		rng:       rand.New(rand.NewSource(seed)),
	}
}

// Step advances the gust process by dt and returns the total wind velocity.
func (w *Wind) Step(dt float64) mathx.Vec3 {
	if w.GustTau <= 0 || w.GustSigma <= 0 {
		return w.Mean
	}
	// Exact OU discretization: x' = x·e^(−dt/τ) + σ·√(1−e^(−2dt/τ))·N(0,1).
	decay := math.Exp(-dt / w.GustTau)
	diff := w.GustSigma * math.Sqrt(1-decay*decay)
	w.gust = mathx.V3(
		w.gust.X*decay+diff*w.rng.NormFloat64(),
		w.gust.Y*decay+diff*w.rng.NormFloat64(),
		w.gust.Z*decay+diff*w.rng.NormFloat64()*0.3, // weaker vertical gusts
	)
	return w.Mean.Add(w.gust)
}

// Reset clears the gust state (the seeded PRNG keeps advancing so repeated
// missions see different, but reproducible, gust sequences).
func (w *Wind) Reset() { w.gust = mathx.Vec3{} }

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
