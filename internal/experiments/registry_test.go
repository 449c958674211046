package experiments

import (
	"errors"
	"testing"
)

func TestRegistryIDsUniqueAndRunnersNonNil(t *testing.T) {
	seen := make(map[string]bool)
	for _, e := range Registry() {
		if e.ID == "" {
			t.Error("registry entry with empty id")
		}
		if seen[e.ID] {
			t.Errorf("duplicate registry id %q", e.ID)
		}
		seen[e.ID] = true
		if e.Run == nil {
			t.Errorf("registry entry %q has nil runner", e.ID)
		}
	}
}

// TestWrapErrorYieldsNilResult pins the typed-nil hazard wrap guards
// against: a failing runner must return a Result interface that is
// actually nil, not a non-nil interface wrapping a nil pointer.
func TestWrapErrorYieldsNilResult(t *testing.T) {
	sentinel := errors.New("boom")
	r := wrap(func(*Suite) (*Fig3Result, error) { return nil, sentinel })
	res, err := r(nil)
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v", err)
	}
	if res != nil {
		t.Fatalf("Result = %#v, want untyped nil", res)
	}
}

// TestMonitorsHandsOutClones: flights mutate the CI monitor, so concurrent
// experiments (-parallel) must not share one; every caller gets its own
// copy of the once-calibrated model.
func TestMonitorsHandsOutClones(t *testing.T) {
	a, err := quickSuite.CI()
	if err != nil {
		t.Fatal(err)
	}
	b, err := quickSuite.CI()
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("two callers share one CI monitor")
	}
	if a.Threshold != b.Threshold || a.Scale != b.Scale {
		t.Errorf("clones differ: threshold %v/%v, scale %v/%v", a.Threshold, b.Threshold, a.Scale, b.Scale)
	}
}
