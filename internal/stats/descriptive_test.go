package stats

import (
	"math"
	"math/rand"
	"testing"
)

func TestMeanVarianceStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	approx(t, "mean", mean(xs), 5, 1e-12)
	if !math.IsNaN(mean(nil)) {
		t.Error("empty mean not NaN")
	}
}

func TestSkewnessKurtosis(t *testing.T) {
	// Symmetric data: zero skew.
	sym := []float64{-2, -1, 0, 1, 2}
	approx(t, "skew(sym)", skewness(sym), 0, 1e-12)
	// Right-skewed data: positive skew.
	right := []float64{1, 1, 1, 1, 10}
	if skewness(right) <= 0 {
		t.Errorf("right-skewed skewness = %v", skewness(right))
	}
	// Gaussian sample: skew ≈ 0, excess kurtosis ≈ 0.
	rng := rand.New(rand.NewSource(5))
	n := 200000
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	approx(t, "skew(gauss)", skewness(xs), 0, 0.03)
	approx(t, "kurt(gauss)", kurtosis(xs), 0, 0.06)
	// Uniform sample: excess kurtosis ≈ -1.2.
	for i := range xs {
		xs[i] = rng.Float64()
	}
	approx(t, "kurt(unif)", kurtosis(xs), -1.2, 0.05)
}

func TestPearson(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{2, 4, 6, 8, 10}
	approx(t, "perfect positive", pearson(x, y), 1, 1e-12)
	yneg := []float64{10, 8, 6, 4, 2}
	approx(t, "perfect negative", pearson(x, yneg), -1, 1e-12)
	// Constant series: defined as 0.
	approx(t, "constant", pearson(x, []float64{3, 3, 3, 3, 3}), 0, 1e-12)
	// Mismatched length: NaN.
	if !math.IsNaN(pearson(x, []float64{1, 2})) {
		t.Error("mismatched lengths not NaN")
	}
	// Independent noise: near zero.
	rng := rand.New(rand.NewSource(6))
	a := make([]float64, 50000)
	b := make([]float64, 50000)
	for i := range a {
		a[i] = rng.NormFloat64()
		b[i] = rng.NormFloat64()
	}
	approx(t, "independent", pearson(a, b), 0, 0.02)
	// Known partial correlation: y = x + noise with equal variances
	// gives r = 1/√2.
	c := make([]float64, 50000)
	for i := range c {
		c[i] = a[i] + rng.NormFloat64()
	}
	approx(t, "r=1/√2", pearson(a, c), 1/math.Sqrt2, 0.02)
}

func TestPearsonSymmetricAndBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		n := 10 + rng.Intn(100)
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64() * 3
			y[i] = 0.5*x[i] + rng.NormFloat64()
		}
		rxy := pearson(x, y)
		ryx := pearson(y, x)
		if math.Abs(rxy-ryx) > 1e-12 {
			t.Fatalf("Pearson not symmetric: %v vs %v", rxy, ryx)
		}
		if rxy < -1-1e-12 || rxy > 1+1e-12 {
			t.Fatalf("Pearson out of bounds: %v", rxy)
		}
	}
}

func TestIsConstant(t *testing.T) {
	if !isConstant([]float64{1, 1, 1}, 0) {
		t.Error("constant not detected")
	}
	if isConstant([]float64{1, 1.1, 1}, 1e-3) {
		t.Error("varying series reported constant")
	}
	if !isConstant([]float64{1, 1 + 1e-9, 1}, 1e-6) {
		t.Error("within-tolerance series not constant")
	}
	if !isConstant(nil, 0) {
		t.Error("empty series not constant")
	}
}

func TestCorrelationMatrix(t *testing.T) {
	series := [][]float64{
		{1, 2, 3, 4, 5},
		{2, 4, 6, 8, 10},
		{5, 4, 3, 2, 1},
	}
	m := CorrelationMatrixWorkers(series, 0)
	approx(t, "diag", m[0][0], 1, 1e-12)
	approx(t, "m01", m[0][1], 1, 1e-12)
	approx(t, "m02", m[0][2], -1, 1e-12)
	approx(t, "symmetry", m[1][2], m[2][1], 1e-12)
}

func TestDiff(t *testing.T) {
	got := diff([]float64{1, 3, 6, 10})
	want := []float64{2, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("diff = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("diff = %v, want %v", got, want)
		}
	}
	if diff([]float64{1}) != nil {
		t.Error("short diff not nil")
	}
}

// pearson returns the Pearson correlation coefficient between two
// equal-length series (Equation 1 of the paper). Constant series yield 0
// (no linear relationship measurable).
func pearson(xs, ys []float64) float64 {
	n := len(xs)
	if n != len(ys) || n < 2 {
		return math.NaN()
	}
	mx, my := mean(xs), mean(ys)
	var sxy, sxx, syy float64
	for i := 0; i < n; i++ {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}
