// Package vars defines the state-variable reference abstraction used across
// the firmware, instrumentation and attack layers.
//
// ARES operates at the *variable level*: every interesting quantity inside
// the controller software — sensor readings, vehicle dynamics, configurable
// parameters and intermediate controller variables — is addressable as a
// named float64 cell. A Ref points directly at the live storage of such a
// cell, so reading a Ref observes the running controller and writing a Ref
// is exactly the data-manipulation primitive of the paper's threat model
// (the attacker flips bytes inside a compromised MPU region).
package vars

import (
	"fmt"
	"sort"
)

// Kind classifies a state variable, mirroring the paper's taxonomy.
type Kind int

const (
	// KindSensor marks raw sensor measurements (e.g. GyrX, AccZ).
	KindSensor Kind = iota + 1
	// KindDynamic marks vehicle dynamics (e.g. Roll, DesR, velocity).
	KindDynamic
	// KindParam marks configurable control parameters (e.g. ATC_RAT_RLL_P).
	KindParam
	// KindIntermediate marks intermediate controller variables that live
	// only inside controller functions (e.g. the PID integrator).
	KindIntermediate
)

// String returns a short label for the kind.
func (k Kind) String() string {
	switch k {
	case KindSensor:
		return "sensor"
	case KindDynamic:
		return "dynamic"
	case KindParam:
		return "param"
	case KindIntermediate:
		return "intermediate"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Ref is a live reference to one named state variable.
type Ref struct {
	// Name is the dotted variable name, e.g. "PIDR.INTEG" or "ATT.Roll".
	Name string
	// Kind classifies the variable.
	Kind Kind
	// Ptr points at the variable's storage inside the running firmware.
	Ptr *float64
}

// Get returns the current value.
func (r Ref) Get() float64 { return *r.Ptr }

// Set overwrites the value, returning the previous one.
func (r Ref) Set(v float64) float64 {
	old := *r.Ptr
	*r.Ptr = v
	return old
}

// Add shifts the value by delta, returning the new value. Gradual attacks
// are built from Add calls.
func (r Ref) Add(delta float64) float64 {
	*r.Ptr += delta
	return *r.Ptr
}

// Set is a named collection of variable references.
type Set struct {
	byName map[string]Ref
}

// NewSet creates an empty variable set.
func NewSet() *Set {
	return &Set{byName: make(map[string]Ref)}
}

// Register adds a variable to the set. Registering a nil pointer or a
// duplicate name returns an error; firmware construction treats either as a
// wiring bug.
func (s *Set) Register(name string, kind Kind, ptr *float64) error {
	if ptr == nil {
		return fmt.Errorf("vars: register %q: nil pointer", name)
	}
	if _, ok := s.byName[name]; ok {
		return fmt.Errorf("vars: register %q: duplicate name", name)
	}
	s.byName[name] = Ref{Name: name, Kind: kind, Ptr: ptr}
	return nil
}

// Lookup finds a variable by name.
func (s *Set) Lookup(name string) (Ref, bool) {
	r, ok := s.byName[name]
	return r, ok
}

// Names returns all variable names in sorted order.
func (s *Set) Names() []string {
	names := make([]string, 0, len(s.byName))
	for n := range s.byName {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Refs returns all references sorted by name.
func (s *Set) Refs() []Ref {
	names := s.Names()
	refs := make([]Ref, len(names))
	for i, n := range names {
		refs[i] = s.byName[n]
	}
	return refs
}

// Len returns the number of registered variables.
func (s *Set) Len() int { return len(s.byName) }
