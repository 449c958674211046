package stats

import (
	"math"
	"testing"
)

func approx(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.IsNaN(got) != math.IsNaN(want) || math.Abs(got-want) > tol {
		t.Errorf("%s = %v, want %v (±%v)", name, got, want, tol)
	}
}

func TestNormalCDF(t *testing.T) {
	approx(t, "Φ(0)", normalCDF(0), 0.5, 1e-12)
	approx(t, "Φ(1.96)", normalCDF(1.96), 0.9750021, 1e-6)
	approx(t, "Φ(-1.96)", normalCDF(-1.96), 0.0249979, 1e-6)
	approx(t, "Φ(3)", normalCDF(3), 0.9986501, 1e-6)
}

func TestStudentTCDF(t *testing.T) {
	// Reference values from R's pt().
	approx(t, "pt(0, 5)", studentTCDF(0, 5), 0.5, 1e-12)
	approx(t, "pt(2, 10)", studentTCDF(2, 10), 0.9633060, 1e-6)
	// Closed form for df=3: ½ + (1/π)[(t/√3)/(1+t²/3) + atan(t/√3)].
	approx(t, "pt(-1.5, 3)", studentTCDF(-1.5, 3), 0.1152921, 1e-6)
	// Large df approaches the normal distribution.
	approx(t, "pt(1.96, 1e6)", studentTCDF(1.96, 1e6), normalCDF(1.96), 1e-4)
	if !math.IsNaN(studentTCDF(1, 0)) {
		t.Error("zero df did not return NaN")
	}
}

func TestTTestPValue(t *testing.T) {
	// Two-sided p for t=2.228, df=10 is ~0.05 (the classic critical value).
	approx(t, "p(2.228, 10)", tTestPValue(2.228, 10), 0.05, 1e-3)
	approx(t, "p(-2.228, 10)", tTestPValue(-2.228, 10), 0.05, 1e-3)
	approx(t, "p(0, 10)", tTestPValue(0, 10), 1, 1e-12)
	if !math.IsNaN(tTestPValue(math.NaN(), 10)) {
		t.Error("NaN t did not return NaN")
	}
}

func TestChiSquareCDF(t *testing.T) {
	// Reference values from R's pchisq().
	approx(t, "pchisq(5.991, 2)", chiSquareCDF(5.991, 2), 0.95, 1e-4)
	approx(t, "pchisq(3.841, 1)", chiSquareCDF(3.841, 1), 0.95, 1e-4)
	approx(t, "pchisq(18.307, 10)", chiSquareCDF(18.307, 10), 0.95, 1e-4)
	approx(t, "pchisq(0, 2)", chiSquareCDF(0, 2), 0, 1e-12)
	if got := chiSquareCDF(-1, 2); got != 0 {
		t.Errorf("negative x = %v", got)
	}
}

func TestRegIncBetaBounds(t *testing.T) {
	if got := regIncBeta(2, 3, 0); got != 0 {
		t.Errorf("I_0 = %v", got)
	}
	if got := regIncBeta(2, 3, 1); got != 1 {
		t.Errorf("I_1 = %v", got)
	}
	// Symmetry: I_x(a,b) = 1 − I_{1−x}(b,a).
	for _, x := range []float64{0.1, 0.3, 0.5, 0.9} {
		lhs := regIncBeta(2.5, 4, x)
		rhs := 1 - regIncBeta(4, 2.5, 1-x)
		approx(t, "symmetry", lhs, rhs, 1e-12)
	}
	// Monotone in x.
	prev := -1.0
	for x := 0.0; x <= 1.0; x += 0.01 {
		v := regIncBeta(3, 2, x)
		if v < prev-1e-12 {
			t.Fatalf("regIncBeta not monotone at %v", x)
		}
		prev = v
	}
}
