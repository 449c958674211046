package vars

import (
	"strings"
	"testing"
)

func TestRefGetSetAdd(t *testing.T) {
	x := 3.0
	r := Ref{Name: "X", Kind: KindParam, Ptr: &x}
	if r.Get() != 3 {
		t.Errorf("Get = %v", r.Get())
	}
	if old := r.Set(5); old != 3 {
		t.Errorf("Set returned old %v, want 3", old)
	}
	if x != 5 {
		t.Errorf("Set did not write through: %v", x)
	}
	if got := r.Add(-1.5); got != 3.5 {
		t.Errorf("Add = %v, want 3.5", got)
	}
}

func TestSetRegisterAndLookup(t *testing.T) {
	s := NewSet()
	a, b := 1.0, 2.0
	if err := s.Register("A", KindSensor, &a); err != nil {
		t.Fatal(err)
	}
	if err := s.Register("B", KindDynamic, &b); err != nil {
		t.Fatal(err)
	}
	if err := s.Register("A", KindSensor, &a); err == nil {
		t.Error("duplicate registration did not error")
	} else if !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("unexpected error: %v", err)
	}
	if err := s.Register("C", KindParam, nil); err == nil {
		t.Error("nil pointer registration did not error")
	}

	r, ok := s.Lookup("A")
	if !ok || r.Get() != 1 {
		t.Errorf("Lookup(A) = %v, %v", r, ok)
	}
	if _, ok := s.Lookup("missing"); ok {
		t.Error("Lookup found missing variable")
	}
	if s.Len() != 2 {
		t.Errorf("Len = %d", s.Len())
	}
}

func TestSetNamesSorted(t *testing.T) {
	s := NewSet()
	vals := make([]float64, 3)
	for i, name := range []string{"zeta", "alpha", "mid"} {
		if err := s.Register(name, KindParam, &vals[i]); err != nil {
			t.Fatal(err)
		}
	}
	names := s.Names()
	want := []string{"alpha", "mid", "zeta"}
	for i, n := range want {
		if names[i] != n {
			t.Fatalf("Names = %v, want %v", names, want)
		}
	}
	refs := s.Refs()
	for i, r := range refs {
		if r.Name != want[i] {
			t.Fatalf("Refs order = %v", refs)
		}
	}
}

func TestKindString(t *testing.T) {
	tests := []struct {
		kind Kind
		want string
	}{
		{KindSensor, "sensor"},
		{KindDynamic, "dynamic"},
		{KindParam, "param"},
		{KindIntermediate, "intermediate"},
		{Kind(99), "kind(99)"},
	}
	for _, tt := range tests {
		if got := tt.kind.String(); got != tt.want {
			t.Errorf("Kind(%d).String() = %q, want %q", tt.kind, got, tt.want)
		}
	}
}
