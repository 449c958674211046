// Package firmware assembles the full RAV flight stack: the 400 Hz
// scheduler, flight modes, mission engine, sensor/EKF/controller wiring,
// dataflash logging, the GCS protocol handler, and the MPU memory-region
// model that realizes the paper's threat model.
package firmware

import (
	"fmt"
	"sort"

	"github.com/ares-cps/ares/internal/vars"
)

// Standard region names used by the firmware's memory map. The paper's
// observation drives the layout: "PID controllers executed by the stabilizer
// process usually run in the same memory region", so all three rate PIDs and
// their intermediates share RegionStabilizer.
const (
	RegionStabilizer = "stabilizer" // attitude + rate PIDs and intermediates
	regionNavigator  = "navigator"  // position cascade, mission state
	regionEstimator  = "estimator"  // EKF, SINS
	RegionDrivers    = "drivers"    // sensor readings
	regionConfig     = "config"     // parameter table
	regionActuators  = "actuators"  // motor outputs
)

// MemoryMap models the MPU configuration: a set of isolated regions and the
// assignment of every state variable to exactly one region.
type MemoryMap struct {
	regions map[string]struct{}
	varHome map[string]string // variable name → region
	vars    *vars.Set
}

// newMemoryMap creates a map over the given variable set with the standard
// regions. The MPU isolates regions from *each other*; code inside a region
// has full read and write access to it, so a region carries no permission.
func newMemoryMap(set *vars.Set) *MemoryMap {
	m := &MemoryMap{
		regions: make(map[string]struct{}),
		varHome: make(map[string]string),
		vars:    set,
	}
	for _, r := range []string{
		RegionStabilizer, regionNavigator, regionEstimator,
		RegionDrivers, regionConfig, regionActuators,
	} {
		m.regions[r] = struct{}{}
	}
	return m
}

// Assign places a variable in a region. Unknown variables or regions are
// wiring errors.
func (m *MemoryMap) Assign(variable, region string) error {
	if _, ok := m.regions[region]; !ok {
		return fmt.Errorf("firmware: unknown region %q", region)
	}
	if _, ok := m.vars.Lookup(variable); !ok {
		return fmt.Errorf("firmware: unknown variable %q", variable)
	}
	m.varHome[variable] = region
	return nil
}

// RegionOf returns the region holding a variable.
func (m *MemoryMap) RegionOf(variable string) (string, bool) {
	r, ok := m.varHome[variable]
	return r, ok
}

// Regions returns all region names, sorted.
func (m *MemoryMap) Regions() []string {
	names := make([]string, 0, len(m.regions))
	for r := range m.regions {
		names = append(names, r)
	}
	sort.Strings(names)
	return names
}

// accessError reports an MPU access violation — the fault the hardware
// raises when code in one region touches another.
type accessError struct {
	Variable   string
	From, Home string
	Write      bool
}

func (e *accessError) Error() string {
	op := "read"
	if e.Write {
		op = "write"
	}
	return fmt.Sprintf("firmware: MPU violation: %s of %q (region %q) from region %q",
		op, e.Variable, e.Home, e.From)
}

// Access returns a Ref to a variable if, and only if, the requesting region
// may touch it: same-region access is always allowed, cross-region access is
// denied. This enforces the isolation the paper's attacker must work within
// — having compromised one region, only that region's variables are
// manipulable.
func (m *MemoryMap) Access(fromRegion, variable string, write bool) (vars.Ref, error) {
	home, ok := m.varHome[variable]
	if !ok {
		return vars.Ref{}, fmt.Errorf("firmware: unknown variable %q", variable)
	}
	if home != fromRegion {
		return vars.Ref{}, &accessError{
			Variable: variable, From: fromRegion, Home: home, Write: write,
		}
	}
	ref, ok := m.vars.Lookup(variable)
	if !ok {
		return vars.Ref{}, fmt.Errorf("firmware: variable %q lost from set", variable)
	}
	return ref, nil
}

// UnassignedVars returns registered variables that have no region, which the
// firmware treats as an assembly error.
func (m *MemoryMap) UnassignedVars() []string {
	var missing []string
	for _, name := range m.vars.Names() {
		if _, ok := m.varHome[name]; !ok {
			missing = append(missing, name)
		}
	}
	return missing
}
