package control

import (
	"errors"
	"math"
	"testing"
)

// catalogueFields binds every catalogue name to a fresh field.
func catalogueFields() map[string]*float64 {
	fields := make(map[string]*float64, len(paramCatalogue))
	for _, p := range paramCatalogue {
		fields[p.Name] = new(float64)
	}
	return fields
}

func newTestStore(t *testing.T) (*ParamStore, map[string]*float64) {
	t.Helper()
	fields := catalogueFields()
	s, err := NewParamStore(fields)
	if err != nil {
		t.Fatal(err)
	}
	return s, fields
}

func TestParamStoreDefaults(t *testing.T) {
	s, fields := newTestStore(t)
	// The table is exactly the catalogue, and the constructor pushed each
	// default into its field.
	names := s.Names()
	if len(names) != len(paramCatalogue) {
		t.Errorf("table has %d names, catalogue %d", len(names), len(paramCatalogue))
	}
	for _, p := range paramCatalogue {
		if *fields[p.Name] != p.Default {
			t.Errorf("%s field = %v, want default %v", p.Name, *fields[p.Name], p.Default)
		}
	}
	v, err := s.Get("ATC_RAT_RLL_P")
	if err != nil {
		t.Fatal(err)
	}
	if v != 0.135 {
		t.Errorf("ATC_RAT_RLL_P = %v, want default 0.135", v)
	}
}

// TestNewParamStoreRefusesMismatch: the bindings must be exactly the
// catalogue. A missing name, a nil field or an extra name is refused, and
// a refused store writes no field.
func TestNewParamStoreRefusesMismatch(t *testing.T) {
	missing := catalogueFields()
	delete(missing, "ATC_RAT_YAW_FLTT")
	_, err := NewParamStore(missing)
	var unbound *errUnboundParam
	if !errors.As(err, &unbound) || unbound.Name != "ATC_RAT_YAW_FLTT" {
		t.Errorf("missing binding: err = %v, want errUnboundParam for ATC_RAT_YAW_FLTT", err)
	}

	nilField := catalogueFields()
	nilField["SINS_POS_GAIN"] = nil
	if _, err := NewParamStore(nilField); !errors.As(err, &unbound) || unbound.Name != "SINS_POS_GAIN" {
		t.Errorf("nil binding: err = %v, want errUnboundParam for SINS_POS_GAIN", err)
	}

	extra := catalogueFields()
	extra["WPNAV_SPEED"] = new(float64)
	extra["ANGLE_MAX"] = new(float64)
	*extra["ATC_RAT_RLL_P"] = 7
	_, err = NewParamStore(extra)
	var unknown *errUnknownParam
	if !errors.As(err, &unknown) || unknown.Name != "ANGLE_MAX" {
		t.Errorf("extra binding: err = %v, want errUnknownParam for ANGLE_MAX", err)
	}
	if *extra["ATC_RAT_RLL_P"] != 7 {
		t.Errorf("refused store wrote a default: ATC_RAT_RLL_P field = %v", *extra["ATC_RAT_RLL_P"])
	}

	if _, err := NewParamStore(nil); !errors.As(err, &unbound) {
		t.Errorf("no bindings: err = %v, want errUnboundParam", err)
	}
}

func TestParamStoreSetAndRangeValidation(t *testing.T) {
	s, _ := newTestStore(t)
	if err := s.Set("ATC_RAT_RLL_P", 0.2); err != nil {
		t.Fatal(err)
	}
	v, _ := s.Get("ATC_RAT_RLL_P")
	if v != 0.2 {
		t.Errorf("value after Set = %v", v)
	}
	// Out of range is rejected with a typed error.
	err := s.Set("ATC_RAT_RLL_P", 99)
	var rangeErr *errParamRange
	if !errors.As(err, &rangeErr) {
		t.Fatalf("expected errParamRange, got %v", err)
	}
	if rangeErr.Name != "ATC_RAT_RLL_P" || rangeErr.Value != 99 {
		t.Errorf("range error fields: %+v", rangeErr)
	}
	// Unknown parameter.
	err = s.Set("NO_SUCH_PARAM", 1)
	var unknownErr *errUnknownParam
	if !errors.As(err, &unknownErr) {
		t.Fatalf("expected errUnknownParam, got %v", err)
	}
	if _, err := s.Get("NO_SUCH_PARAM"); err == nil {
		t.Error("Get unknown param did not error")
	}
}

// TestParamStoreRejectsNonFinite: NaN fails both range comparisons, so it
// must be rejected as out of range rather than slip through them; ±Inf
// lies outside every finite range.
func TestParamStoreRejectsNonFinite(t *testing.T) {
	s, fields := newTestStore(t)
	for _, p := range paramCatalogue {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			var rangeErr *errParamRange
			if err := s.Set(p.Name, v); !errors.As(err, &rangeErr) {
				t.Errorf("Set(%s, %v) = %v, want a range error", p.Name, v, err)
			}
		}
		if *fields[p.Name] != p.Default {
			t.Errorf("%s field = %v after rejected writes, want %v", p.Name, *fields[p.Name], p.Default)
		}
	}
}

func TestParamStoreOversizedRangeDefect(t *testing.T) {
	// The RVFuzzer-style defect: IMAX accepts absurd values because the
	// documented range is ±5000-scale. This must SUCCEED — it is the
	// vulnerability the Figure 8 experiment exploits.
	s, _ := newTestStore(t)
	if err := s.Set("ATC_RAT_RLL_IMAX", 4500); err != nil {
		t.Errorf("oversized-but-in-range IMAX rejected: %v", err)
	}
	if err := s.Set("ATC_RAT_RLL_FF", -4999); err != nil {
		t.Errorf("oversized-but-in-range FF rejected: %v", err)
	}
}

// TestParamStoreBind: the constructor pushes the default, Set writes the
// field, Get reads the live field, and an unknown name is refused.
func TestParamStoreBind(t *testing.T) {
	s, fields := newTestStore(t)
	live := fields["ATC_RAT_RLL_P"]
	if *live != 0.135 {
		t.Errorf("constructor did not push default: %v", *live)
	}
	if err := s.Set("ATC_RAT_RLL_P", 0.25); err != nil {
		t.Fatal(err)
	}
	if *live != 0.25 {
		t.Errorf("Set did not write through binding: %v", *live)
	}
	// Get reads the live value even if it changed out of band (e.g. a
	// memory manipulation).
	*live = 0.31
	v, _ := s.Get("ATC_RAT_RLL_P")
	if v != 0.31 {
		t.Errorf("Get = %v, want live 0.31", v)
	}
	if err := s.Set("NOPE", 0.1); err == nil {
		t.Error("Set unknown param did not error")
	}
}

func TestParamStoreLookupAndNames(t *testing.T) {
	s, _ := newTestStore(t)
	p, ok := s.Lookup("ATC_RAT_RLL_IMAX")
	if !ok {
		t.Fatal("ATC_RAT_RLL_IMAX missing")
	}
	if p.Default != 0.25 || p.Min != 0 || p.Max != 5000 || p.Desc == "" {
		t.Errorf("param metadata: %+v", p)
	}
	if _, ok := s.Lookup("NOPE"); ok {
		t.Error("Lookup found missing param")
	}
	names := s.Names()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("Names not sorted at %d: %s >= %s", i, names[i-1], names[i])
		}
	}
}

func TestParamStoreCataloguesAreIndependent(t *testing.T) {
	a, _ := newTestStore(t)
	b, _ := newTestStore(t)
	if err := a.Set("ATC_RAT_RLL_P", 0.3); err != nil {
		t.Fatal(err)
	}
	v, _ := b.Get("ATC_RAT_RLL_P")
	if v != 0.135 {
		t.Errorf("stores share state: b = %v", v)
	}
}
