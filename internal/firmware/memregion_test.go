package firmware

import (
	"errors"
	"testing"

	"github.com/ares-cps/ares/internal/vars"
)

func newTestMap(t *testing.T) (*MemoryMap, *vars.Set, []float64) {
	t.Helper()
	set := vars.NewSet()
	vals := make([]float64, 3)
	set.MustRegister("PIDR.INTEG", vars.KindIntermediate, &vals[0])
	set.MustRegister("IMU.GyrX", vars.KindSensor, &vals[1])
	set.MustRegister("EKF1.Roll", vars.KindDynamic, &vals[2])
	m := newMemoryMap(set)
	if err := m.Assign("PIDR.INTEG", RegionStabilizer); err != nil {
		t.Fatal(err)
	}
	if err := m.Assign("IMU.GyrX", RegionDrivers); err != nil {
		t.Fatal(err)
	}
	if err := m.Assign("EKF1.Roll", regionEstimator); err != nil {
		t.Fatal(err)
	}
	return m, set, vals
}

func TestMemoryMapAssignAndLookup(t *testing.T) {
	m, _, _ := newTestMap(t)
	region, ok := m.RegionOf("PIDR.INTEG")
	if !ok || region != RegionStabilizer {
		t.Errorf("RegionOf = %q, %v", region, ok)
	}
	if _, ok := m.RegionOf("missing"); ok {
		t.Error("RegionOf found missing variable")
	}
	for v, r := range m.varHome {
		if r == RegionStabilizer && v != "PIDR.INTEG" {
			t.Errorf("%s in the stabilizer region, want only PIDR.INTEG", v)
		}
	}
	if len(m.Regions()) != 6 {
		t.Errorf("Regions = %v", m.Regions())
	}
}

func TestMemoryMapAssignErrors(t *testing.T) {
	m, _, _ := newTestMap(t)
	if err := m.Assign("PIDR.INTEG", "nowhere"); err == nil {
		t.Error("unknown region accepted")
	}
	if err := m.Assign("missing", RegionStabilizer); err == nil {
		t.Error("unknown variable accepted")
	}
}

func TestMemoryMapAccessEnforcement(t *testing.T) {
	m, _, vals := newTestMap(t)
	// Same-region access succeeds — the compromised region's variables
	// are fully manipulable.
	ref, err := m.Access(RegionStabilizer, "PIDR.INTEG", true)
	if err != nil {
		t.Fatal(err)
	}
	ref.Set(0.7)
	if vals[0] != 0.7 {
		t.Errorf("write through access ref failed: %v", vals[0])
	}
	// Cross-region access raises an MPU violation.
	_, err = m.Access(RegionStabilizer, "IMU.GyrX", false)
	var accessErr *accessError
	if !errors.As(err, &accessErr) {
		t.Fatalf("cross-region access error = %v, want accessError", err)
	}
	if accessErr.From != RegionStabilizer || accessErr.Home != RegionDrivers {
		t.Errorf("accessError fields: %+v", accessErr)
	}
	if accessErr.Error() == "" {
		t.Error("empty error string")
	}
	// Unknown variable.
	if _, err := m.Access(RegionStabilizer, "nope", false); err == nil {
		t.Error("unknown variable access accepted")
	}
}

func TestMemoryMapUnassignedVars(t *testing.T) {
	set := vars.NewSet()
	v := 0.0
	set.MustRegister("LONELY.VAR", vars.KindParam, &v)
	m := newMemoryMap(set)
	missing := m.UnassignedVars()
	if len(missing) != 1 || missing[0] != "LONELY.VAR" {
		t.Errorf("UnassignedVars = %v", missing)
	}
	if err := m.Assign("LONELY.VAR", regionConfig); err != nil {
		t.Fatal(err)
	}
	if len(m.UnassignedVars()) != 0 {
		t.Error("assigned variable still reported missing")
	}
}
