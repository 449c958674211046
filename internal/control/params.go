package control

import (
	"fmt"
	"sort"
	"sync"
)

// Param describes one configurable control parameter in the ArduPilot style:
// a name, a default, a documented safe range, and optionally a live binding
// to the controller field it configures.
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

	value float64
	// ptr, when set, is the live controller field this parameter drives.
	ptr *float64
}

// Value returns the current parameter value.
func (p *Param) Value() float64 {
	if p.ptr != nil {
		return *p.ptr
	}
	return p.value
}

// ParamStore is the vehicle's parameter table, the substrate behind the
// MAVLink PARAM_SET/PARAM_REQUEST protocol.
type ParamStore struct {
	mu     sync.RWMutex
	params map[string]*Param
}

// NewParamStore creates a store preloaded with the standard ArduCopter-style
// parameter catalogue.
func NewParamStore() *ParamStore {
	s := &ParamStore{params: make(map[string]*Param, len(paramCatalogue))}
	for _, def := range paramCatalogue {
		p := def // copy
		p.value = p.Default
		s.params[p.Name] = &p
	}
	return s
}

// errUnknownParam is returned for parameter names not in the table.
type errUnknownParam struct{ Name string }

func (e *errUnknownParam) Error() string {
	return fmt.Sprintf("control: unknown parameter %q", e.Name)
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

// Get returns the current value of a parameter.
func (s *ParamStore) Get(name string) (float64, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	p, ok := s.params[name]
	if !ok {
		return 0, &errUnknownParam{Name: name}
	}
	return p.Value(), nil
}

// Set validates the value against the documented range and applies it,
// writing through to the bound controller field when present. This is the
// code path a GCS PARAM_SET command takes.
func (s *ParamStore) Set(name string, value float64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.params[name]
	if !ok {
		return &errUnknownParam{Name: name}
	}
	if value < p.Min || value > p.Max {
		return &errParamRange{Name: name, Value: value, Min: p.Min, Max: p.Max}
	}
	p.value = value
	if p.ptr != nil {
		*p.ptr = value
	}
	return nil
}

// Bind attaches a live controller field to a parameter and pushes the
// current parameter value into it.
func (s *ParamStore) Bind(name string, ptr *float64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.params[name]
	if !ok {
		return &errUnknownParam{Name: name}
	}
	p.ptr = ptr
	*ptr = p.value
	return nil
}

// Lookup returns the parameter definition (value, range, description).
func (s *ParamStore) Lookup(name string) (Param, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	p, ok := s.params[name]
	if !ok {
		return Param{}, false
	}
	out := *p
	out.value = p.Value()
	out.ptr = nil
	return out, true
}

// Names returns all parameter names, sorted.
func (s *ParamStore) Names() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := make([]string, 0, len(s.params))
	for n := range s.params {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Len returns the number of parameters in the table.
func (s *ParamStore) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.params)
}

// paramCatalogue is the built-in parameter table. It reproduces a
// representative slice of ArduCopter's >2670-parameter surface: the rate and
// angle controller gains, position controller gains, navigation speeds,
// failsafe settings and tuning knobs the evaluation touches.
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
	{Name: "ATC_RAT_YAW_IMAX", Default: 0.5, Min: 0, Max: 5000, Desc: "Yaw rate integrator max (oversized range)"},
	{Name: "ATC_RAT_YAW_FLTT", Default: 5, Min: 0, Max: 100, Desc: "Yaw rate input filter Hz"},
	// Angle P controllers.
	{Name: "ATC_ANG_RLL_P", Default: 4.5, Min: 3.0, Max: 12.0, Desc: "Roll angle P gain"},
	{Name: "ATC_ANG_PIT_P", Default: 4.5, Min: 3.0, Max: 12.0, Desc: "Pitch angle P gain"},
	{Name: "ATC_ANG_YAW_P", Default: 4.5, Min: 3.0, Max: 12.0, Desc: "Yaw angle P gain"},
	{Name: "ATC_ACCEL_R_MAX", Default: 72000, Min: 0, Max: 180000, Desc: "Roll accel max cdeg/s/s"},
	{Name: "ATC_ACCEL_P_MAX", Default: 72000, Min: 0, Max: 180000, Desc: "Pitch accel max cdeg/s/s"},
	{Name: "ATC_ACCEL_Y_MAX", Default: 18000, Min: 0, Max: 72000, Desc: "Yaw accel max cdeg/s/s"},
	// Position/velocity controllers.
	{Name: "PSC_POSXY_P", Default: 1.0, Min: 0.5, Max: 2.0, Desc: "Horizontal position P gain"},
	{Name: "PSC_VELXY_P", Default: 2.0, Min: 0.1, Max: 6.0, Desc: "Horizontal velocity P gain"},
	{Name: "PSC_VELXY_I", Default: 1.0, Min: 0.02, Max: 1.0, Desc: "Horizontal velocity I gain"},
	{Name: "PSC_VELXY_D", Default: 0.5, Min: 0.0, Max: 1.0, Desc: "Horizontal velocity D gain"},
	{Name: "PSC_POSZ_P", Default: 1.0, Min: 1.0, Max: 3.0, Desc: "Vertical position P gain"},
	{Name: "PSC_VELZ_P", Default: 0.3, Min: 0.1, Max: 8.0, Desc: "Vertical velocity P gain"},
	{Name: "PSC_ACCZ_P", Default: 0.5, Min: 0.2, Max: 1.5, Desc: "Vertical accel P gain"},
	{Name: "PSC_ACCZ_I", Default: 1.0, Min: 0.0, Max: 3.0, Desc: "Vertical accel I gain"},
	// Navigation.
	{Name: "WPNAV_SPEED", Default: 500, Min: 20, Max: 2000, Desc: "Waypoint speed cm/s"},
	{Name: "WPNAV_SPEED_UP", Default: 250, Min: 10, Max: 1000, Desc: "Climb speed cm/s"},
	{Name: "WPNAV_SPEED_DN", Default: 150, Min: 10, Max: 500, Desc: "Descent speed cm/s"},
	{Name: "WPNAV_RADIUS", Default: 200, Min: 5, Max: 1000, Desc: "Waypoint acceptance radius cm"},
	{Name: "WPNAV_ACCEL", Default: 100, Min: 50, Max: 500, Desc: "Waypoint accel cm/s/s"},
	{Name: "ANGLE_MAX", Default: 3000, Min: 1000, Max: 8000, Desc: "Max lean angle cdeg"},
	{Name: "PILOT_SPEED_UP", Default: 250, Min: 50, Max: 500, Desc: "Pilot climb rate cm/s"},
	// EKF / estimation.
	{Name: "EK2_VELNE_M_NSE", Default: 0.5, Min: 0.05, Max: 5.0, Desc: "EKF GPS velocity noise m/s"},
	{Name: "EK2_POSNE_M_NSE", Default: 1.0, Min: 0.1, Max: 10.0, Desc: "EKF GPS position noise m"},
	{Name: "EK2_ALT_M_NSE", Default: 3.0, Min: 0.1, Max: 10.0, Desc: "EKF baro noise m"},
	{Name: "EK2_GYRO_P_NSE", Default: 0.03, Min: 0.0001, Max: 0.1, Desc: "EKF gyro process noise"},
	{Name: "EK2_ACC_P_NSE", Default: 0.6, Min: 0.01, Max: 1.0, Desc: "EKF accel process noise"},
	{Name: "EKF_VEL_GAIN_SCALER", Default: 1.0, Min: 0.0, Max: 10.0, Desc: "EKF nav velocity gain scaler (PX4 EKFNAVVELGAINSCALER analogue)"},
	// Motors and battery.
	{Name: "MOT_SPIN_MIN", Default: 0.15, Min: 0.0, Max: 0.3, Desc: "Motor spin minimum"},
	{Name: "MOT_SPIN_MAX", Default: 0.95, Min: 0.9, Max: 1.0, Desc: "Motor spin maximum"},
	{Name: "MOT_THST_HOVER", Default: 0.4, Min: 0.125, Max: 0.6875, Desc: "Learned hover throttle"},
	{Name: "BATT_LOW_VOLT", Default: 10.5, Min: 0, Max: 50, Desc: "Battery low voltage failsafe"},
	{Name: "BATT_CAPACITY", Default: 5100, Min: 0, Max: 100000, Desc: "Battery capacity mAh"},
	// Failsafes and modes.
	{Name: "FS_THR_ENABLE", Default: 1, Min: 0, Max: 3, Desc: "Throttle failsafe enable"},
	{Name: "FS_BATT_ENABLE", Default: 1, Min: 0, Max: 2, Desc: "Battery failsafe enable"},
	{Name: "RTL_ALT", Default: 1500, Min: 200, Max: 8000, Desc: "RTL altitude cm"},
	{Name: "LAND_SPEED", Default: 50, Min: 30, Max: 200, Desc: "Landing speed cm/s"},
	// SINS complementary gains.
	{Name: "SINS_VEL_GAIN", Default: 1.0, Min: 0.0, Max: 5.0, Desc: "SINS velocity correction gain"},
	{Name: "SINS_POS_GAIN", Default: 0.5, Min: 0.0, Max: 5.0, Desc: "SINS position correction gain"},
	// Logging.
	{Name: "LOG_BITMASK", Default: 65535, Min: 0, Max: 65535, Desc: "Dataflash logging bitmask"},
	{Name: "LOG_FILE_RATEMAX", Default: 16, Min: 0, Max: 400, Desc: "Dataflash log rate Hz"},
	// Tuning scalers.
	{Name: "TUNE_SCALER", Default: 1.0, Min: 0.0, Max: 10.0, Desc: "In-flight tuning scaler"},
	{Name: "SCHED_LOOP_RATE", Default: 400, Min: 50, Max: 400, Desc: "Main loop rate Hz"},
}
