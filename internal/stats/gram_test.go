package stats

import (
	"math"
	"math/rand"
	"testing"
)

// gramProblem builds a random well-conditioned selection problem: v iid
// normal predictors, y driven by the first `signal` of them plus noise.
func gramProblem(seed int64, v, n, signal int) ([]float64, map[string][]float64) {
	rng := rand.New(rand.NewSource(seed))
	preds := make(map[string][]float64, v)
	names := make([]string, v)
	for i := 0; i < v; i++ {
		xs := make([]float64, n)
		for j := range xs {
			xs[j] = rng.NormFloat64()
		}
		names[i] = string(rune('a'+i%26)) + string(rune('0'+i/26))
		preds[names[i]] = xs
	}
	y := make([]float64, n)
	for j := range y {
		y[j] = rng.NormFloat64()
		for s := 0; s < signal && s < v; s++ {
			y[j] += float64(s+1) * 0.5 * preds[names[s]][j]
		}
	}
	return y, preds
}

// requireSameSelection asserts the Gram-path result matches the QR oracle:
// identical predictor set in the same order, same search cost, and a final
// AIC within 1e-9.
func requireSameSelection(t *testing.T, tag string, got, want *StepwiseResult) {
	t.Helper()
	if len(got.Selected) != len(want.Selected) {
		t.Fatalf("%s: selected %v, oracle %v", tag, got.Selected, want.Selected)
	}
	for i := range want.Selected {
		if got.Selected[i] != want.Selected[i] {
			t.Fatalf("%s: selected %v, oracle %v", tag, got.Selected, want.Selected)
		}
	}
	if got.Steps != want.Steps || got.ModelsFitted != want.ModelsFitted {
		t.Fatalf("%s: steps/fitted %d/%d, oracle %d/%d",
			tag, got.Steps, got.ModelsFitted, want.Steps, want.ModelsFitted)
	}
	if (got.Model == nil) != (want.Model == nil) {
		t.Fatalf("%s: model nil mismatch", tag)
	}
	if got.Model != nil {
		if math.Abs(got.Model.AIC-want.Model.AIC) > 1e-9 {
			t.Fatalf("%s: AIC %v, oracle %v", tag, got.Model.AIC, want.Model.AIC)
		}
		// Both final models come from the same QR fit of the same
		// columns, so every coefficient statistic is bit-identical.
		for i := range want.Model.Coef {
			if got.Model.Coef[i] != want.Model.Coef[i] ||
				got.Model.PValue[i] != want.Model.PValue[i] {
				t.Fatalf("%s: coefficient stats diverged at %d", tag, i)
			}
		}
	}
}

// TestStepwiseGramMatchesQR: on random well-conditioned designs the Gram
// path selects the identical model as the retired per-candidate-QR search,
// at 1, 2 and 8 workers.
func TestStepwiseGramMatchesQR(t *testing.T) {
	cases := []struct {
		seed         int64
		v, n, signal int
	}{
		{51, 4, 100, 2},
		{52, 8, 250, 3},
		{53, 12, 400, 5},
		{54, 16, 300, 0}, // pure noise: AIC may pick junk, paths must agree
		{55, 10, 64, 4},  // short sample
	}
	for _, c := range cases {
		y, preds := gramProblem(c.seed, c.v, c.n, c.signal)
		oracle := stepwiseAICQR(y, preds)
		for _, workers := range []int{1, 2, 8} {
			got := StepwiseAICWorkers(y, preds, workers)
			requireSameSelection(t, "stepwise", got, oracle)
		}
	}
}

// TestExhaustiveGramMatchesQR: same contract for the exhaustive sweep.
func TestExhaustiveGramMatchesQR(t *testing.T) {
	for _, c := range []struct {
		seed         int64
		v, n, signal int
	}{
		{61, 3, 120, 1},
		{62, 6, 200, 2},
		{63, 7, 90, 0},
	} {
		y, preds := gramProblem(c.seed, c.v, c.n, c.signal)
		oracle := exhaustiveAICQR(y, preds)
		for _, workers := range []int{1, 2, 8} {
			got := exhaustiveAICWorkers(y, preds, workers)
			requireSameSelection(t, "exhaustive", got, oracle)
		}
	}
}

// TestStepwiseWorkersBitIdentical: the parallel candidate sweep is not just
// equivalent but bit-identical across worker counts — the disjoint-slot
// Gram build and the fixed-order argmin scan admit no accumulation-order
// variation.
func TestStepwiseWorkersBitIdentical(t *testing.T) {
	y, preds := gramProblem(71, 14, 350, 6)
	base := StepwiseAICWorkers(y, preds, 1)
	for _, workers := range []int{2, 3, 8, 32} {
		got := StepwiseAICWorkers(y, preds, workers)
		if len(got.Selected) != len(base.Selected) {
			t.Fatalf("w=%d: selected %v vs %v", workers, got.Selected, base.Selected)
		}
		for i := range base.Selected {
			if got.Selected[i] != base.Selected[i] {
				t.Fatalf("w=%d: selected %v vs %v", workers, got.Selected, base.Selected)
			}
		}
		if got.Model == nil || base.Model == nil {
			t.Fatal("missing model")
		}
		if math.Float64bits(got.Model.AIC) != math.Float64bits(base.Model.AIC) {
			t.Fatalf("w=%d: AIC bits differ: %v vs %v", workers, got.Model.AIC, base.Model.AIC)
		}
	}
}

// TestStepwiseGramRankDeficiency: collinear and constant columns must
// behave exactly as under the QR path — the Cholesky conditioning test
// hands them to the oracle, which rejects them, and the search never
// selects them.
func TestStepwiseGramRankDeficiency(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	n := 200
	x := make([]float64, n)
	dup := make([]float64, n)
	cst := make([]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = rng.NormFloat64()
		dup[i] = 2 * x[i] // exactly collinear with x
		cst[i] = 7        // collinear with the intercept
		y[i] = 3*x[i] + rng.NormFloat64()
	}
	preds := map[string][]float64{"x": x, "dup": dup, "konst": cst}
	oracle := stepwiseAICQR(y, preds)
	got := StepwiseAICWorkers(y, preds, 2)
	requireSameSelection(t, "rank-deficient", got, oracle)
	for _, s := range got.Selected {
		if s == "konst" {
			t.Fatalf("constant column selected: %v", got.Selected)
		}
	}
}

// TestStepwiseGramMismatchedPredictor: a predictor series of the wrong
// length is unfittable for every candidate containing it, exactly as the
// QR path reports it, without disturbing the rest of the search.
func TestStepwiseGramMismatchedPredictor(t *testing.T) {
	y, preds := gramProblem(91, 5, 150, 2)
	preds["zz"] = make([]float64, 10) // wrong length
	oracle := stepwiseAICQR(y, preds)
	got := StepwiseAICWorkers(y, preds, 2)
	requireSameSelection(t, "mismatched", got, oracle)
	for _, s := range got.Selected {
		if s == "zz" {
			t.Fatalf("mismatched column selected: %v", got.Selected)
		}
	}
}

// TestGramKernelEntries: G = ZᵀZ entries match direct dot products over
// [1 | X | y], at any worker count.
func TestGramKernelEntries(t *testing.T) {
	y, preds := gramProblem(101, 4, 60, 2)
	names := sortedPredictorNames(preds)
	cols := make([][]float64, len(names))
	for i, n := range names {
		cols[i] = preds[n]
	}
	z := append([][]float64{ones(len(y))}, cols...)
	z = append(z, y)
	for _, workers := range []int{1, 4} {
		k := newGramKernel(y, names, cols, workers)
		for i := range z {
			for j := range z {
				want := 0.0
				for s := range y {
					want += z[i][s] * z[j][s]
				}
				if math.Abs(k.g[i][j]-want) > 1e-9*(1+math.Abs(want)) {
					t.Fatalf("w=%d: G[%d][%d] = %v, want %v", workers, i, j, k.g[i][j], want)
				}
			}
		}
	}
}

func ones(n int) []float64 {
	o := make([]float64, n)
	for i := range o {
		o[i] = 1
	}
	return o
}

// TestStepwiseGramAllocsBounded pins the kernel's allocation contract: a
// whole stepwise search allocates less than one allocation per candidate
// model evaluated — the per-candidate hot path (sub-Gram assembly,
// Cholesky, solve) runs entirely on preallocated scratch. The retired QR
// path allocated O(k·n) per candidate.
func TestStepwiseGramAllocsBounded(t *testing.T) {
	y, preds := gramProblem(111, 16, 500, 8)
	res := StepwiseAICWorkers(y, preds, 1)
	if res.ModelsFitted < 100 {
		t.Fatalf("weak workload: only %d candidates fitted", res.ModelsFitted)
	}
	allocs := testing.AllocsPerRun(5, func() {
		StepwiseAICWorkers(y, preds, 1)
	})
	if allocs >= float64(res.ModelsFitted) {
		t.Errorf("allocs/run = %v for %d candidate fits — per-candidate allocation crept back in",
			allocs, res.ModelsFitted)
	}
	if allocs > 250 {
		t.Errorf("allocs/run = %v, want ≤ 250 (setup + final refit only)", allocs)
	}
}
