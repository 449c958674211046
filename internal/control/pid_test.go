package control

import (
	"math"
	"testing"

	"github.com/ares-cps/ares/internal/mathx"
	"github.com/ares-cps/ares/internal/vars"
)

func TestPIDProportionalOnly(t *testing.T) {
	p := NewPID(PIDConfig{KP: 2, DT: 0.01})
	if got := p.Update(1, 0); got != 2 {
		t.Errorf("P-only output = %v, want 2", got)
	}
	if p.P() != 2 || p.I() != 0 || p.FF() != 0 {
		t.Errorf("terms P=%v I=%v FF=%v", p.P(), p.I(), p.FF())
	}
}

func TestPIDIntegratorAccumulatesAndClamps(t *testing.T) {
	p := NewPID(PIDConfig{KI: 1, IMax: 0.5, DT: 0.1})
	for i := 0; i < 4; i++ {
		p.Update(1, 0) // error 1: integrator += 1*1*0.1
	}
	if !mathx.ApproxEqual(p.integrator, 0.4, 1e-12) {
		t.Errorf("integrator = %v, want 0.4", p.integrator)
	}
	for i := 0; i < 10; i++ {
		p.Update(1, 0)
	}
	if p.integrator != 0.5 {
		t.Errorf("integrator = %v, want clamp 0.5", p.integrator)
	}
	// Negative direction clamps too.
	for i := 0; i < 30; i++ {
		p.Update(-1, 0)
	}
	if p.integrator != -0.5 {
		t.Errorf("integrator = %v, want clamp -0.5", p.integrator)
	}
}

func TestPIDDerivative(t *testing.T) {
	p := NewPID(PIDConfig{KD: 1, DT: 0.1})
	p.Update(0, 0)
	p.Update(1, 0) // unfiltered error step 0→1 over dt=0.1 → derivative 10
	if !mathx.ApproxEqual(p.D(), 10, 1e-9) {
		t.Errorf("derivative term = %v, want 10", p.D())
	}
	// Constant error → derivative back to 0.
	p.Update(1, 0)
	if !mathx.ApproxEqual(p.D(), 0, 1e-9) {
		t.Errorf("derivative term = %v, want 0", p.D())
	}
}

func TestPIDInputFilterSmoothsStep(t *testing.T) {
	sharp := NewPID(PIDConfig{KP: 1, DT: 1.0 / 400})
	smooth := NewPID(PIDConfig{KP: 1, FilterHz: 5, DT: 1.0 / 400})
	sharp.Update(0, 0)
	smooth.Update(0, 0)
	// Step input: the filtered controller must respond less at first.
	a := sharp.Update(1, 0)
	b := smooth.Update(1, 0)
	if b >= a {
		t.Errorf("filtered response %v not below unfiltered %v", b, a)
	}
	// But converge eventually.
	for i := 0; i < 4000; i++ {
		b = smooth.Update(1, 0)
	}
	if !mathx.ApproxEqual(b, 1, 1e-3) {
		t.Errorf("filtered response did not converge: %v", b)
	}
}

func TestPIDFeedForward(t *testing.T) {
	p := NewPID(PIDConfig{KFF: 0.5, DT: 0.01})
	if got := p.Update(2, 5); got != 1 {
		t.Errorf("FF output = %v, want 1 (0.5 × target 2)", got)
	}
}

func TestPIDOutputClampOversizedDefault(t *testing.T) {
	// Default range is the oversized ±5000 from the paper's Figure 8.
	p := NewPID(PIDConfig{KP: 1e6, DT: 0.01})
	if got := p.Update(1, 0); got != 5000 {
		t.Errorf("output = %v, want oversized clamp 5000", got)
	}
	// Explicit range is honored.
	p2 := NewPID(PIDConfig{KP: 1e6, DT: 0.01, OutMin: -1, OutMax: 1})
	if got := p2.Update(1, 0); got != 1 {
		t.Errorf("output = %v, want 1", got)
	}
}

func TestPIDScaler(t *testing.T) {
	p := NewPID(PIDConfig{KP: 2, DT: 0.01})
	p.Scaler = 0.5
	if got := p.Update(1, 0); got != 1 {
		t.Errorf("scaled output = %v, want 1", got)
	}
}

func TestPIDRegisterVars(t *testing.T) {
	p := NewPID(PIDConfig{KP: 0.135, KI: 0.09, KD: 0.0036, IMax: 0.5, DT: 1.0 / 400})
	set := vars.NewSet()
	if err := p.RegisterVars(set, "PIDR"); err != nil {
		t.Fatal(err)
	}
	// The paper's v1..v7 intermediates all appear.
	for _, name := range []string{
		"PIDR.KP", "PIDR.KI", "PIDR.KD", "PIDR.DT",
		"PIDR.INTEG", "PIDR.INPUT", "PIDR.DERIV",
	} {
		if _, ok := set.Lookup(name); !ok {
			t.Errorf("variable %s not registered", name)
		}
	}
	// Manipulating the INTEG ref changes the controller's next output —
	// the paper's core data-manipulation primitive.
	p.Update(0, 0)
	base := p.Update(0, 0)
	ref, _ := set.Lookup("PIDR.INTEG")
	ref.Set(0.3)
	got := p.Update(0, 0)
	if math.Abs(got-base-0.3) > 1e-9 {
		t.Errorf("INTEG manipulation shifted output by %v, want 0.3", got-base)
	}
	// Duplicate registration fails cleanly.
	if err := p.RegisterVars(set, "PIDR"); err == nil {
		t.Error("duplicate RegisterVars did not error")
	}
}

func TestPIDDefaultDT(t *testing.T) {
	p := NewPID(PIDConfig{KP: 1})
	if p.DT != 1.0/400 {
		t.Errorf("default DT = %v, want 1/400", p.DT)
	}
}

func TestSqrtControllerLinearRegion(t *testing.T) {
	s := newSqrtController(2, 0) // no limit → pure P
	if got := s.Update(3); got != 6 {
		t.Errorf("linear output = %v, want 6", got)
	}
	if s.output != 6 {
		t.Errorf("stored output = %v", s.output)
	}
}

func TestSqrtControllerLimitsLargeErrors(t *testing.T) {
	s := newSqrtController(2, 1) // linearDist = 1/4
	small := s.Update(0.1)
	if !mathx.ApproxEqual(small, 0.2, 1e-12) {
		t.Errorf("small error output = %v, want 0.2", small)
	}
	big := s.Update(100)
	linear := 100 * 2.0
	if big >= linear {
		t.Errorf("sqrt output %v not below linear %v", big, linear)
	}
	want := math.Sqrt(2 * 1 * (100 - 0.125))
	if !mathx.ApproxEqual(big, want, 1e-9) {
		t.Errorf("sqrt output = %v, want %v", big, want)
	}
	// Symmetric for negative errors.
	if got := s.Update(-100); !mathx.ApproxEqual(got, -want, 1e-9) {
		t.Errorf("negative sqrt output = %v, want %v", got, -want)
	}
}

func TestSqrtControllerMonotonic(t *testing.T) {
	s := newSqrtController(4.5, mathx.Rad(720))
	prev := math.Inf(-1)
	for e := -2.0; e <= 2.0; e += 0.01 {
		out := s.Update(e)
		if out < prev {
			t.Fatalf("sqrt controller not monotonic at e=%v", e)
		}
		prev = out
	}
}

func TestSqrtControllerRegisterVars(t *testing.T) {
	s := newSqrtController(1, 1)
	set := vars.NewSet()
	if err := s.RegisterVars(set, "SQ"); err != nil {
		t.Fatal(err)
	}
	s.Update(0.5)
	errRef, _ := set.Lookup("SQ.ERR")
	if errRef.Get() != 0.5 {
		t.Errorf("SQ.ERR = %v, want 0.5", errRef.Get())
	}
	if err := s.RegisterVars(set, "SQ"); err == nil {
		t.Error("duplicate registration did not error")
	}
}
