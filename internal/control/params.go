package control

import (
	"fmt"
	"sort"
)

// Param describes one configurable control parameter in the ArduPilot style:
// a name, a default and a documented safe range.
//
// The Min/Max range is what the firmware's validation enforces on GCS
// parameter writes. Ranges deliberately reproduce ArduPilot's occasionally
// oversized bounds (the "range validation bugs" reported by RVFuzzer and
// exploited in the paper's Figure 8): a syntactically valid PARAM_SET can
// still carry a physically dangerous value.
type Param struct {
	Name    string
	Default float64
	Min     float64
	Max     float64
	Desc    string
}

// ParamStore is the vehicle's parameter table, the substrate behind the
// MAVLink PARAM_SET/PARAM_REQUEST protocol. Every entry is bound to the
// live field it configures, so an accepted Set changes the next tick.
//
// The table never changes after NewParamStore, so it needs no lock. The
// fields belong to the flight: the controllers read them unlocked, so Get
// and Set run on the flight's goroutine (the firmware's inbox drain), like
// every other access to flight state.
type ParamStore struct {
	params map[string]boundParam
}

// boundParam is one table entry: its definition and the live field.
type boundParam struct {
	Param
	ptr *float64
}

// NewParamStore builds the table over bindings, which must map every
// catalogue name, and nothing else, to the live field it drives. It pushes
// each default into its field.
func NewParamStore(bindings map[string]*float64) (*ParamStore, error) {
	s := &ParamStore{params: make(map[string]boundParam, len(paramCatalogue))}
	for _, p := range paramCatalogue {
		ptr := bindings[p.Name]
		if ptr == nil {
			return nil, &errUnboundParam{Name: p.Name}
		}
		s.params[p.Name] = boundParam{Param: p, ptr: ptr}
	}
	if len(bindings) != len(s.params) {
		var unknown []string
		for name := range bindings {
			if _, ok := s.params[name]; !ok {
				unknown = append(unknown, name)
			}
		}
		sort.Strings(unknown)
		return nil, &errUnknownParam{Name: unknown[0]}
	}
	for _, p := range paramCatalogue {
		*s.params[p.Name].ptr = p.Default
	}
	return s, nil
}

// errUnknownParam is returned for parameter names not in the table.
type errUnknownParam struct{ Name string }

func (e *errUnknownParam) Error() string {
	return fmt.Sprintf("control: unknown parameter %q", e.Name)
}

// errUnboundParam is returned by NewParamStore for a catalogue entry that
// has no live field to drive.
type errUnboundParam struct{ Name string }

func (e *errUnboundParam) Error() string {
	return fmt.Sprintf("control: parameter %q is bound to no field", e.Name)
}

// errParamRange is returned when a value violates the documented range.
type errParamRange struct {
	Name     string
	Value    float64
	Min, Max float64
}

func (e *errParamRange) Error() string {
	return fmt.Sprintf("control: parameter %q value %g outside [%g, %g]",
		e.Name, e.Value, e.Min, e.Max)
}

// Get returns the live value of a parameter.
func (s *ParamStore) Get(name string) (float64, error) {
	p, ok := s.params[name]
	if !ok {
		return 0, &errUnknownParam{Name: name}
	}
	return *p.ptr, nil
}

// Set validates the value against the documented range and writes it to the
// bound field. This is the code path a GCS PARAM_SET command takes. NaN is
// outside every range.
func (s *ParamStore) Set(name string, value float64) error {
	p, ok := s.params[name]
	if !ok {
		return &errUnknownParam{Name: name}
	}
	if !(value >= p.Min && value <= p.Max) {
		return &errParamRange{Name: name, Value: value, Min: p.Min, Max: p.Max}
	}
	*p.ptr = value
	return nil
}

// Lookup returns the parameter definition (default, range, description);
// Get reads the live value.
func (s *ParamStore) Lookup(name string) (Param, bool) {
	p, ok := s.params[name]
	return p.Param, ok
}

// Names returns all parameter names, sorted.
func (s *ParamStore) Names() []string {
	names := make([]string, 0, len(s.params))
	for n := range s.params {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// paramCatalogue is the built-in parameter table: the slice of ArduCopter's
// >2670-parameter surface that this flight stack flies. Every entry drives a
// live field, and its default is the value that field flies unset;
// NewParamStore refuses a firmware that leaves one unbound.
var paramCatalogue = []Param{
	// Roll rate PID (ATC_RAT_RLL_*). The ±5000-style oversized IMAX/FF
	// ranges mirror the validation defects RVFuzzer reported.
	{Name: "ATC_RAT_RLL_P", Default: 0.135, Min: 0.0, Max: 0.5, Desc: "Roll rate P gain"},
	{Name: "ATC_RAT_RLL_I", Default: 0.090, Min: 0.0, Max: 2.0, Desc: "Roll rate I gain"},
	{Name: "ATC_RAT_RLL_D", Default: 0.0036, Min: 0.0, Max: 0.05, Desc: "Roll rate D gain"},
	{Name: "ATC_RAT_RLL_IMAX", Default: 0.25, Min: 0, Max: 5000, Desc: "Roll rate integrator max (oversized range)"},
	{Name: "ATC_RAT_RLL_FF", Default: 0, Min: -5000, Max: 5000, Desc: "Roll rate feed-forward (oversized range)"},
	{Name: "ATC_RAT_RLL_FLTT", Default: 20, Min: 0, Max: 100, Desc: "Roll rate input filter Hz"},
	// Pitch rate PID.
	{Name: "ATC_RAT_PIT_P", Default: 0.135, Min: 0.0, Max: 0.5, Desc: "Pitch rate P gain"},
	{Name: "ATC_RAT_PIT_I", Default: 0.090, Min: 0.0, Max: 2.0, Desc: "Pitch rate I gain"},
	{Name: "ATC_RAT_PIT_D", Default: 0.0036, Min: 0.0, Max: 0.05, Desc: "Pitch rate D gain"},
	{Name: "ATC_RAT_PIT_IMAX", Default: 0.25, Min: 0, Max: 5000, Desc: "Pitch rate integrator max (oversized range)"},
	{Name: "ATC_RAT_PIT_FF", Default: 0, Min: -5000, Max: 5000, Desc: "Pitch rate feed-forward (oversized range)"},
	{Name: "ATC_RAT_PIT_FLTT", Default: 20, Min: 0, Max: 100, Desc: "Pitch rate input filter Hz"},
	// Yaw rate PID.
	{Name: "ATC_RAT_YAW_P", Default: 0.18, Min: 0.0, Max: 2.5, Desc: "Yaw rate P gain"},
	{Name: "ATC_RAT_YAW_I", Default: 0.018, Min: 0.0, Max: 1.0, Desc: "Yaw rate I gain"},
	{Name: "ATC_RAT_YAW_D", Default: 0, Min: 0.0, Max: 0.02, Desc: "Yaw rate D gain"},
	{Name: "ATC_RAT_YAW_FLTT", Default: 5, Min: 0, Max: 100, Desc: "Yaw rate input filter Hz"},
	// Angle P controllers.
	{Name: "ATC_ANG_RLL_P", Default: 4.5, Min: 3.0, Max: 12.0, Desc: "Roll angle P gain"},
	{Name: "ATC_ANG_PIT_P", Default: 4.5, Min: 3.0, Max: 12.0, Desc: "Pitch angle P gain"},
	{Name: "ATC_ANG_YAW_P", Default: 4.5, Min: 3.0, Max: 12.0, Desc: "Yaw angle P gain"},
	// Position/velocity controllers.
	{Name: "PSC_POSXY_P", Default: 1.0, Min: 0.5, Max: 2.0, Desc: "Horizontal position P gain"},
	{Name: "PSC_VELXY_P", Default: 2.0, Min: 0.1, Max: 6.0, Desc: "Horizontal velocity P gain"},
	{Name: "PSC_VELXY_I", Default: 1.0, Min: 0.02, Max: 1.0, Desc: "Horizontal velocity I gain"},
	{Name: "PSC_VELXY_D", Default: 0.5, Min: 0.0, Max: 1.0, Desc: "Horizontal velocity D gain"},
	{Name: "PSC_POSZ_P", Default: 1.0, Min: 1.0, Max: 3.0, Desc: "Vertical position P gain"},
	{Name: "PSC_VELZ_P", Default: 0.3, Min: 0.1, Max: 8.0, Desc: "Vertical velocity P gain"},
	// Battery failsafe.
	{Name: "BATT_LOW_VOLT", Default: 10.5, Min: 0, Max: 50, Desc: "Battery low voltage failsafe"},
	{Name: "FS_BATT_ENABLE", Default: 1, Min: 0, Max: 2, Desc: "Battery failsafe enable"},
	// SINS complementary gains.
	{Name: "SINS_VEL_GAIN", Default: 1.0, Min: 0.0, Max: 5.0, Desc: "SINS velocity correction gain"},
	{Name: "SINS_POS_GAIN", Default: 0.5, Min: 0.0, Max: 5.0, Desc: "SINS position correction gain"},
}
