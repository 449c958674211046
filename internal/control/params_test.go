package control

import (
	"errors"
	"testing"
)

func TestParamStoreDefaults(t *testing.T) {
	s := NewParamStore()
	if s.Len() < 50 {
		t.Errorf("catalogue has %d params, want a representative table (≥50)", s.Len())
	}
	v, err := s.Get("ATC_RAT_RLL_P")
	if err != nil {
		t.Fatal(err)
	}
	if v != 0.135 {
		t.Errorf("ATC_RAT_RLL_P = %v, want default 0.135", v)
	}
}

func TestParamStoreSetAndRangeValidation(t *testing.T) {
	s := NewParamStore()
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

func TestParamStoreOversizedRangeDefect(t *testing.T) {
	// The RVFuzzer-style defect: IMAX accepts absurd values because the
	// documented range is ±5000-scale. This must SUCCEED — it is the
	// vulnerability the Figure 8 experiment exploits.
	s := NewParamStore()
	if err := s.Set("ATC_RAT_RLL_IMAX", 4500); err != nil {
		t.Errorf("oversized-but-in-range IMAX rejected: %v", err)
	}
	if err := s.Set("ATC_RAT_RLL_FF", -4999); err != nil {
		t.Errorf("oversized-but-in-range FF rejected: %v", err)
	}
}

func TestParamStoreBind(t *testing.T) {
	s := NewParamStore()
	var live float64
	if err := s.Bind("ATC_RAT_RLL_P", &live); err != nil {
		t.Fatal(err)
	}
	if live != 0.135 {
		t.Errorf("bind did not push default: %v", live)
	}
	if err := s.Set("ATC_RAT_RLL_P", 0.25); err != nil {
		t.Fatal(err)
	}
	if live != 0.25 {
		t.Errorf("Set did not write through binding: %v", live)
	}
	// Get reads the live value even if it changed out of band (e.g. a
	// memory manipulation).
	live = 0.31
	v, _ := s.Get("ATC_RAT_RLL_P")
	if v != 0.31 {
		t.Errorf("Get = %v, want live 0.31", v)
	}
	if err := s.Bind("NOPE", &live); err == nil {
		t.Error("Bind unknown param did not error")
	}
}

func TestParamStoreLookupAndNames(t *testing.T) {
	s := NewParamStore()
	p, ok := s.Lookup("WPNAV_SPEED")
	if !ok {
		t.Fatal("WPNAV_SPEED missing")
	}
	if p.Min != 20 || p.Max != 2000 || p.Desc == "" {
		t.Errorf("param metadata: %+v", p)
	}
	if _, ok := s.Lookup("NOPE"); ok {
		t.Error("Lookup found missing param")
	}
	names := s.Names()
	if len(names) != s.Len() {
		t.Errorf("Names len %d != Len %d", len(names), s.Len())
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("Names not sorted at %d: %s >= %s", i, names[i-1], names[i])
		}
	}
}

func TestParamStoreCataloguesAreIndependent(t *testing.T) {
	a := NewParamStore()
	b := NewParamStore()
	if err := a.Set("ATC_RAT_RLL_P", 0.3); err != nil {
		t.Fatal(err)
	}
	v, _ := b.Get("ATC_RAT_RLL_P")
	if v != 0.135 {
		t.Errorf("stores share state: b = %v", v)
	}
}
