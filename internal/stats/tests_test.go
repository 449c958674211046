package stats

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

func gaussian(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	return xs
}

func TestJarqueBeraAcceptsGaussian(t *testing.T) {
	_, p := jarqueBera(gaussian(5000, 11))
	if p < 0.01 {
		t.Errorf("JB rejected Gaussian data: p = %v", p)
	}
}

func TestJarqueBeraRejectsSkewed(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	xs := make([]float64, 5000)
	for i := range xs {
		xs[i] = math.Exp(rng.NormFloat64()) // log-normal, heavily skewed
	}
	_, p := jarqueBera(xs)
	if p > 1e-6 {
		t.Errorf("JB accepted log-normal data: p = %v", p)
	}
}

func TestJarqueBeraSmallSample(t *testing.T) {
	if s, p := jarqueBera([]float64{1, 2, 3}); !math.IsNaN(s) || !math.IsNaN(p) {
		t.Error("small sample did not return NaN")
	}
}

func TestRunsTestAcceptsIID(t *testing.T) {
	_, p := runsTest(gaussian(5000, 13))
	if p < 0.01 {
		t.Errorf("runs test rejected iid data: p = %v", p)
	}
}

func TestRunsTestRejectsTrend(t *testing.T) {
	// A monotone ramp has exactly 2 runs about its median.
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i)
	}
	z, p := runsTest(xs)
	if p > 1e-10 {
		t.Errorf("runs test accepted a ramp: z=%v p=%v", z, p)
	}
}

func TestRunsTestRejectsAlternating(t *testing.T) {
	// Perfect alternation has the maximum number of runs — also not iid.
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i % 2)
	}
	_, p := runsTest(xs)
	if p > 1e-10 {
		t.Errorf("runs test accepted alternation: p = %v", p)
	}
}

func TestRunsTestDegenerate(t *testing.T) {
	if _, p := runsTest([]float64{1, 2}); !math.IsNaN(p) {
		t.Error("tiny sample did not return NaN")
	}
	// All-equal series: every value ties the median.
	xs := make([]float64, 100)
	if _, p := runsTest(xs); !math.IsNaN(p) {
		t.Error("constant series did not return NaN")
	}
	// One NaN anywhere makes the result NaN, wherever the sort put it.
	for _, at := range []int{0, 50, 99} {
		xs := gaussian(100, 3)
		xs[at] = math.NaN()
		if z, p := runsTest(xs); !math.IsNaN(z) || !math.IsNaN(p) {
			t.Errorf("NaN at %d: z = %v, p = %v, want NaN", at, z, p)
		}
	}
}

func TestPruneStateVars(t *testing.T) {
	n := 2000
	rng := rand.New(rand.NewSource(14))
	gauss := make([]float64, n) // integrated noise: increments iid normal
	constant := make([]float64, n)
	ramp := make([]float64, n)    // constant increments
	skewInc := make([]float64, n) // wildly non-normal increments
	acc := 0.0
	for i := 0; i < n; i++ {
		acc += rng.NormFloat64()
		gauss[i] = acc
		constant[i] = 3.14
		ramp[i] = float64(i) * 0.5
		if i > 0 {
			skewInc[i] = skewInc[i-1] + math.Exp(rng.NormFloat64()*3)
		}
	}
	names := []string{"v.gauss", "v.const", "v.ramp", "v.skew"}
	res := PruneStateVarsWorkers(names, [][]float64{gauss, constant, ramp, skewInc},
		defaultPruneOptions(), 1)
	want := map[string]bool{
		"v.gauss": true,
		"v.const": false,
		"v.ramp":  false, // constant increments
		"v.skew":  false, // non-normal increments
	}
	for _, r := range res {
		if r.Kept != want[r.Name] {
			t.Errorf("%s kept=%v (%s), want %v", r.Name, r.Kept, r.Reason, want[r.Name])
		}
		if !r.Kept && r.Reason == "" {
			t.Errorf("%s pruned without a reason", r.Name)
		}
	}
}

func TestPruneStateVarsTooFew(t *testing.T) {
	res := PruneStateVarsWorkers([]string{"x"}, [][]float64{{1, 2, 3}}, defaultPruneOptions(), 1)
	if res[0].Kept || res[0].Reason != "too few samples" {
		t.Errorf("short series: %+v", res[0])
	}
}

func TestPruneNonFinite(t *testing.T) {
	bad := map[string]float64{"v.nan": math.NaN(), "v.inf": math.Inf(1), "v.ninf": math.Inf(-1)}
	names := []string{"v.ok", "v.nan", "v.inf", "v.ninf"}
	series := make([][]float64, len(names))
	for i, name := range names {
		xs := gaussian(500, int64(i))
		for j := 1; j < len(xs); j++ {
			xs[j] += xs[j-1] // integrated noise, kept when finite
		}
		if v, ok := bad[name]; ok {
			xs[len(xs)/2] = v
		}
		series[i] = xs
	}
	for _, workers := range []int{1, 3} {
		res := PruneStateVarsWorkers(names, series, defaultPruneOptions(), workers)
		if !res[0].Kept {
			t.Errorf("w%d: finite series pruned: %+v", workers, res[0])
		}
		for _, r := range res[1:] {
			// Pruned before either test ran, so no p-value was recorded.
			if r.Kept || r.Reason != "non-finite samples" || r.JBPValue != 0 || r.RunsP != 0 {
				t.Errorf("w%d: %+v, want pruned for non-finite samples", workers, r)
			}
		}
	}
}

func TestMedian(t *testing.T) {
	approx(t, "odd", median([]float64{3, 1, 2}), 2, 1e-12)
	approx(t, "even", median([]float64{4, 1, 3, 2}), 2.5, 1e-12)
}

// insertionSort is the sort median used before slices.Sort and selection,
// kept as the oracle of TestRunsTestMatchesOracle and
// TestMedianMatchesOracle.
func insertionSort(xs []float64) {
	for i := 1; i < len(xs); i++ {
		v := xs[i]
		j := i - 1
		for j >= 0 && xs[j] > v {
			xs[j+1] = xs[j]
			j--
		}
		xs[j+1] = v
	}
}

func medianOracle(xs []float64) float64 {
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	insertionSort(sorted)
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return 0.5 * (sorted[n/2-1] + sorted[n/2])
}

// runsTestOracle is runsTest as it was before the one-pass count: the
// above/below classes collected in a slice, then counted.
func runsTestOracle(xs []float64) (z, pValue float64) {
	if len(xs) < 8 {
		return math.NaN(), math.NaN()
	}
	med := medianOracle(xs)
	var signs []bool
	for _, x := range xs {
		if x == med {
			continue
		}
		signs = append(signs, x > med)
	}
	if len(signs) < 8 {
		return math.NaN(), math.NaN()
	}
	var n1, n2 float64
	runs := 1.0
	for i, s := range signs {
		if s {
			n1++
		} else {
			n2++
		}
		if i > 0 && signs[i] != signs[i-1] {
			runs++
		}
	}
	if n1 == 0 || n2 == 0 {
		return math.NaN(), math.NaN()
	}
	n := n1 + n2
	expRuns := 2*n1*n2/n + 1
	varRuns := 2 * n1 * n2 * (2*n1*n2 - n) / (n * n * (n - 1))
	if varRuns <= 0 {
		return math.NaN(), math.NaN()
	}
	z = (runs - expRuns) / math.Sqrt(varRuns)
	pValue = 2 * (1 - normalCDF(math.Abs(z)))
	return z, pValue
}

// oracleSample draws a finite series rich in the values a sort can
// disagree on: signed zeros, ties, subnormals and ±MaxFloat64, mixed with
// ordinary draws.
func oracleSample(rng *rand.Rand, n int) []float64 {
	special := []float64{0, math.Copysign(0, -1), 1, -1, 2.5,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 3 * math.SmallestNonzeroFloat64,
		math.MaxFloat64, -math.MaxFloat64}
	xs := make([]float64, n)
	for i := range xs {
		if rng.Intn(3) == 0 {
			xs[i] = rng.NormFloat64()
		} else {
			xs[i] = special[rng.Intn(len(special))]
		}
	}
	return xs
}

// TestRunsTestMatchesOracle pins median's selection against the old
// insertion sort: on finite input runsTest's z and p are bitwise equal,
// and so is the median, except that a zero median may carry either sign
// (the two may order -0 and +0 differently, and == cannot tell them
// apart).
func TestRunsTestMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	tested := 0
	for iter := 0; iter < 3000; iter++ {
		n := 1 + rng.Intn(300) // odd and even, below and above pdqsort's insertion cutoff
		xs := oracleSample(rng, n)
		in := slices.Clone(xs)

		got, want := median(xs), medianOracle(xs)
		if math.Float64bits(got) != math.Float64bits(want) && !(got == 0 && want == 0) {
			t.Fatalf("n=%d: median %v (%#x), oracle %v (%#x)", n, got, math.Float64bits(got), want, math.Float64bits(want))
		}
		z, p := runsTest(xs)
		wz, wp := runsTestOracle(xs)
		if math.Float64bits(z) != math.Float64bits(wz) || math.Float64bits(p) != math.Float64bits(wp) {
			t.Fatalf("n=%d: runsTest (%v, %v), oracle (%v, %v)", n, z, p, wz, wp)
		}
		if !slices.EqualFunc(in, xs, func(a, b float64) bool {
			return math.Float64bits(a) == math.Float64bits(b)
		}) {
			t.Fatalf("n=%d: runsTest reordered its input", n)
		}
		if !math.IsNaN(z) {
			tested++
		}
	}
	// Most draws must reach the z statistic, or the comparison is vacuous.
	if tested < 1500 {
		t.Errorf("only %d of 3000 draws gave a finite z", tested)
	}
}

// TestMedianMatchesOracle: on random odd- and even-length series drawn
// from a few values (long runs of ties, both zeros) and on ordered
// patterns, median equals the sorted oracle's, up to the sign of a zero,
// and leaves its input in place. A NaN sample still makes runsTest NaN.
func TestMedianMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	values := []float64{0, math.Copysign(0, -1), 1, -1, 2, -3.5}
	patterns := []func(i, n int) float64{
		func(i, n int) float64 { return values[rng.Intn(len(values))] },
		func(i, n int) float64 { return float64(i) },
		func(i, n int) float64 { return float64(n - i) },
		func(i, n int) float64 { return float64(min(i, n-i)) }, // organ pipe
		func(i, n int) float64 { return float64(i % 7) },
		func(i, n int) float64 { return math.Copysign(0, float64(i%2)-0.5) },
	}
	for iter := 0; iter < 1200; iter++ {
		n := 1 + rng.Intn(600)
		if iter%20 == 0 {
			n = 2000 + rng.Intn(1000) // the length of a profiled series
		}
		gen := patterns[iter%len(patterns)]
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = gen(i, n)
		}
		in := slices.Clone(xs)
		got, want := median(xs), medianOracle(xs)
		if got != want { // == holds for either sign of a zero median
			t.Fatalf("iter %d, n=%d: median %v, oracle %v", iter, n, got, want)
		}
		if !slices.EqualFunc(in, xs, func(a, b float64) bool {
			return math.Float64bits(a) == math.Float64bits(b)
		}) {
			t.Fatalf("iter %d, n=%d: median reordered its input", iter, n)
		}
	}
	for n := 8; n < 40; n++ {
		xs := oracleSample(rng, n)
		xs[rng.Intn(n)] = math.NaN()
		if z, p := runsTest(xs); !math.IsNaN(z) || !math.IsNaN(p) {
			t.Fatalf("n=%d: runsTest with a NaN sample = (%v, %v), want NaN", n, z, p)
		}
	}
}
