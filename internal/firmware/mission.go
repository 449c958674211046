package firmware

import (
	"github.com/ares-cps/ares/internal/mathx"
)

// Waypoint is one mission item in local NED coordinates.
type Waypoint struct {
	Pos mathx.Vec3
	// HoldS is how long to loiter at the waypoint before proceeding.
	HoldS float64
}

// Mission is the waypoint sequence an AUTO flight follows.
type Mission struct {
	waypoints []Waypoint
	current   int
	// AcceptRadius is the distance at which a waypoint counts as reached.
	AcceptRadius float64

	holdUntil float64
	holding   bool
	complete  bool
}

// NewMission builds a mission from waypoints. The default acceptance radius
// is 2 m (ArduCopter's WPNAV_RADIUS default of 200 cm).
func NewMission(waypoints []Waypoint) *Mission {
	m := &Mission{AcceptRadius: 2}
	m.waypoints = make([]Waypoint, len(waypoints))
	copy(m.waypoints, waypoints)
	return m
}

// Clone returns an unflown copy of m: the same waypoints (holds included)
// and acceptance radius, with fresh progress.
func (m *Mission) Clone() *Mission {
	out := NewMission(m.waypoints)
	out.AcceptRadius = m.AcceptRadius
	return out
}

// Target returns the active waypoint position. After completion it keeps
// returning the final waypoint so the vehicle loiters there.
func (m *Mission) Target() mathx.Vec3 {
	if len(m.waypoints) == 0 {
		return mathx.Vec3{}
	}
	idx := m.current
	if idx >= len(m.waypoints) {
		idx = len(m.waypoints) - 1
	}
	return m.waypoints[idx].Pos
}

// Complete reports whether every waypoint has been visited.
func (m *Mission) Complete() bool { return m.complete }

// Update advances the mission state machine given the vehicle position and
// current time; it returns true when a waypoint was just reached.
func (m *Mission) Update(pos mathx.Vec3, now float64) bool {
	if m.complete || len(m.waypoints) == 0 {
		return false
	}
	if m.holding {
		if now >= m.holdUntil {
			m.holding = false
			m.advance()
		}
		return false
	}
	wp := m.waypoints[m.current]
	if pos.Dist(wp.Pos) > m.AcceptRadius {
		return false
	}
	if wp.HoldS > 0 {
		m.holding = true
		m.holdUntil = now + wp.HoldS
	} else {
		m.advance()
	}
	return true
}

func (m *Mission) advance() {
	m.current++
	if m.current >= len(m.waypoints) {
		m.current = len(m.waypoints) - 1
		m.complete = true
	}
}

// Path returns the waypoint positions as a polyline, the Pth the paper's
// uncontrolled-failure reward measures deviation from.
func (m *Mission) Path() []mathx.Vec3 {
	out := make([]mathx.Vec3, len(m.waypoints))
	for i, wp := range m.waypoints {
		out[i] = wp.Pos
	}
	return out
}

// Len returns the number of waypoints.
func (m *Mission) Len() int { return len(m.waypoints) }

// Reset rewinds the mission to its first waypoint.
func (m *Mission) Reset() {
	m.current = 0
	m.holding = false
	m.complete = false
	m.holdUntil = 0
}

// SquareMission builds the benign profiling mission used throughout the
// evaluation: a closed square of the given side length at the given
// altitude, visiting four corners and returning to the start. Legs are
// straight lines, matching the paper's "path following mission consisting
// of a couple of straight lines".
func SquareMission(side, altitude float64) *Mission {
	z := -altitude
	return NewMission([]Waypoint{
		{Pos: mathx.V3(0, 0, z)},
		{Pos: mathx.V3(side, 0, z)},
		{Pos: mathx.V3(side, side, z)},
		{Pos: mathx.V3(0, side, z)},
		{Pos: mathx.V3(0, 0, z)},
	})
}

// LineMission builds a straight two-waypoint path (A → B) at altitude,
// the Figure 10 scenario's leg between waypoints A and B.
func LineMission(length, altitude float64) *Mission {
	z := -altitude
	return NewMission([]Waypoint{
		{Pos: mathx.V3(0, 0, z)},
		{Pos: mathx.V3(length, 0, z)},
	})
}
