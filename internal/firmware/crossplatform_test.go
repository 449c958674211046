package firmware

import (
	"testing"

	"github.com/ares-cps/ares/internal/sim"
)

// TestFirmwarePixhawk4Mission exercises the paper's second virtual vehicle:
// the same firmware stack must fly the same mission on the Pixhawk4-class
// airframe (different mass, inertia, thrust, battery) without retuning.
// This is the "generalizability" property of Section VI — the assessment
// methodology is agnostic to the physical configuration.
func TestFirmwarePixhawk4Mission(t *testing.T) {
	f, err := New(Config{Vehicle: sim.Pixhawk4Params()})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Takeoff(10); err != nil {
		t.Fatal(err)
	}
	f.RunFor(10)
	f.LoadMission(SquareMission(25, 10))
	if err := f.StartMission(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 90*400 && !f.Mission().Complete(); i++ {
		f.Step()
	}
	if crashed, reason := f.Quad().Crashed(); crashed {
		t.Fatalf("Pixhawk4 crashed: %s", reason)
	}
	if !f.Mission().Complete() {
		t.Fatalf("Pixhawk4 mission incomplete at %v", f.Quad().State().Pos)
	}
	// The same variable inventory and memory map exist across airframes.
	if _, ok := f.Vars().Lookup("PIDR.INTEG"); !ok {
		t.Error("variable inventory differs across airframes")
	}
	if missing := f.Memory().UnassignedVars(); len(missing) != 0 {
		t.Errorf("unassigned variables on Pixhawk4: %v", missing)
	}
}

// TestFirmwareTickAllocFree pins the zero-allocation property of the 400 Hz
// main loop (logging disabled): a regression here would eventually show up
// as GC pauses in long profiling runs.
func TestFirmwareTickAllocFree(t *testing.T) {
	f, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Takeoff(10); err != nil {
		t.Fatal(err)
	}
	f.RunFor(5)
	allocs := testing.AllocsPerRun(400, func() { f.Step() })
	if allocs > 0.5 {
		t.Errorf("main loop allocates %.1f objects/tick, want 0", allocs)
	}
}
