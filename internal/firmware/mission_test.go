package firmware

import (
	"testing"

	"github.com/ares-cps/ares/internal/mathx"
)

func TestMissionProgression(t *testing.T) {
	m := NewMission([]Waypoint{
		{Pos: mathx.V3(0, 0, -10)},
		{Pos: mathx.V3(10, 0, -10)},
		{Pos: mathx.V3(10, 10, -10)},
	})
	if m.Target() != mathx.V3(0, 0, -10) {
		t.Errorf("initial target = %v", m.Target())
	}
	// Far away: no advance.
	if m.Update(mathx.V3(50, 0, -10), 0) {
		t.Error("advanced while far from waypoint")
	}
	// Within radius: advance.
	if !m.Update(mathx.V3(0.5, 0, -10), 1) {
		t.Error("did not advance at waypoint")
	}
	if m.current != 1 {
		t.Errorf("index = %d, want 1", m.current)
	}
	m.Update(mathx.V3(10, 0.5, -10), 2)
	m.Update(mathx.V3(10, 9.5, -10), 3)
	if !m.Complete() {
		t.Error("mission not complete after last waypoint")
	}
	// After completion target stays at the final waypoint.
	if m.Target() != mathx.V3(10, 10, -10) {
		t.Errorf("post-completion target = %v", m.Target())
	}
	if m.Update(mathx.V3(10, 10, -10), 4) {
		t.Error("completed mission still advancing")
	}
}

func TestMissionHold(t *testing.T) {
	m := NewMission([]Waypoint{
		{Pos: mathx.V3(0, 0, -10), HoldS: 2},
		{Pos: mathx.V3(10, 0, -10)},
	})
	// A launched copy keeps the hold: the vehicle starts on the first
	// waypoint, so it loiters there 2 s before heading for the second.
	f, err := Launch(Config{}, m, 10)
	if err != nil {
		t.Fatal(err)
	}
	if f.Mission() == m {
		t.Fatal("Launch flies the caller's mission, not a copy")
	}
	f.RunFor(1)
	if got := f.mission.current; got != 0 {
		t.Errorf("launched copy at waypoint %d after 1 s, want 0 (holding)", got)
	}
	f.RunFor(2)
	if got := f.mission.current; got != 1 {
		t.Errorf("launched copy at waypoint %d after the hold, want 1", got)
	}
	// Flying the copy left the source unflown: the checks below start
	// from its first waypoint with no hold in progress.
	if m.current != 0 || m.Complete() {
		t.Fatalf("source mission advanced to %d (complete %v)", m.current, m.Complete())
	}

	// Reach the first waypoint at t=1: hold begins.
	if !m.Update(mathx.V3(0, 0, -10), 1) {
		t.Fatal("waypoint not reached")
	}
	if m.current != 0 {
		t.Error("advanced during hold")
	}
	m.Update(mathx.V3(0, 0, -10), 2) // still holding
	if m.current != 0 {
		t.Error("advanced before hold elapsed")
	}
	m.Update(mathx.V3(0, 0, -10), 3.1) // hold elapsed
	if m.current != 1 {
		t.Errorf("index = %d after hold, want 1", m.current)
	}
}

func TestLaunchRejectsEmptyMission(t *testing.T) {
	for _, m := range []*Mission{nil, NewMission(nil)} {
		if _, err := Launch(Config{}, m, 10); err == nil {
			t.Errorf("Launch accepted mission %v", m)
		}
	}
}

func TestMissionCloneKeepsWaypoints(t *testing.T) {
	m := NewMission([]Waypoint{
		{Pos: mathx.V3(0, 0, -10), HoldS: 3},
		{Pos: mathx.V3(10, 0, -10)},
	})
	m.AcceptRadius = 0.5
	m.Update(mathx.V3(0, 0, -10), 1)
	c := m.Clone()
	if c.AcceptRadius != 0.5 || c.Len() != 2 || c.waypoints[0].HoldS != 3 {
		t.Errorf("clone lost data: radius %v, %d waypoints, hold %v",
			c.AcceptRadius, c.Len(), c.waypoints[0].HoldS)
	}
	if c.holding || c.current != 0 {
		t.Error("clone inherited the source's progress")
	}
	c.waypoints[0].HoldS = 0
	if m.waypoints[0].HoldS != 3 {
		t.Error("clone shares the source's waypoint storage")
	}
}

func TestMissionEmptyAndReset(t *testing.T) {
	m := NewMission(nil)
	if m.Update(mathx.Vec3{}, 0) {
		t.Error("empty mission advanced")
	}
	if m.Target() != (mathx.Vec3{}) {
		t.Error("empty mission target nonzero")
	}
	sq := SquareMission(40, 10)
	if sq.Len() != 5 {
		t.Errorf("square mission has %d waypoints", sq.Len())
	}
	sq.Update(mathx.V3(0, 0, -10), 0)
	sq.Reset()
	if sq.current != 0 || sq.Complete() {
		t.Error("Reset did not rewind")
	}
}

func TestMissionPath(t *testing.T) {
	m := LineMission(50, 10)
	path := m.Path()
	if len(path) != 2 || path[1] != mathx.V3(50, 0, -10) {
		t.Errorf("path = %v", path)
	}
	// Mutating the returned path must not affect the mission.
	path[0] = mathx.V3(99, 99, 99)
	if m.Target() == mathx.V3(99, 99, 99) {
		t.Error("Path leaked internal state")
	}
}

func TestMissionWaypointsCopied(t *testing.T) {
	wps := []Waypoint{{Pos: mathx.V3(1, 2, 3)}}
	m := NewMission(wps)
	wps[0].Pos = mathx.V3(9, 9, 9)
	if m.Target() != mathx.V3(1, 2, 3) {
		t.Error("mission shares caller's slice")
	}
}
