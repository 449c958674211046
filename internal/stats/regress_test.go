package stats

import (
	"math"
	"math/rand"
	"testing"
)

func TestOLSRecoversCoefficients(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	n := 5000
	x1 := make([]float64, n)
	x2 := make([]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		x1[i] = rng.NormFloat64()
		x2[i] = rng.NormFloat64()
		y[i] = 1.5 + 2*x1[i] - 3*x2[i] + 0.1*rng.NormFloat64()
	}
	res, err := OLS(y, [][]float64{x1, x2}, []string{"x1", "x2"})
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "intercept", res.Coef[0], 1.5, 0.01)
	approx(t, "b1", res.Coef[1], 2, 0.01)
	approx(t, "b2", res.Coef[2], -3, 0.01)
	if res.R2 < 0.99 {
		t.Errorf("R² = %v, want ≈1", res.R2)
	}
	// Both predictors significant.
	sig := res.SignificantPredictors(0.05)
	if len(sig) != 2 {
		t.Errorf("significant = %v", sig)
	}
}

func TestOLSInsignificantPredictor(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	n := 2000
	x1 := make([]float64, n)
	junk := make([]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		x1[i] = rng.NormFloat64()
		junk[i] = rng.NormFloat64()
		y[i] = 2*x1[i] + rng.NormFloat64()
	}
	res, err := OLS(y, [][]float64{x1, junk}, []string{"x1", "junk"})
	if err != nil {
		t.Fatal(err)
	}
	sig := res.SignificantPredictors(0.05)
	if len(sig) != 1 || sig[0] != "x1" {
		t.Errorf("significant = %v, want [x1]; p-values %v", sig, res.PValue)
	}
	// The junk p-value must be roughly uniform, i.e., not tiny.
	if res.PValue[2] < 0.001 {
		t.Errorf("junk p-value = %v", res.PValue[2])
	}
}

func TestOLSExactFit(t *testing.T) {
	// y exactly linear: RSS ~ 0, infinite log-likelihood guarded.
	x := []float64{1, 2, 3, 4, 5, 6}
	y := []float64{3, 5, 7, 9, 11, 13} // y = 1 + 2x
	res, err := OLS(y, [][]float64{x}, []string{"x"})
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "intercept", res.Coef[0], 1, 1e-9)
	approx(t, "slope", res.Coef[1], 2, 1e-9)
	approx(t, "R2", res.R2, 1, 1e-12)
}

func TestOLSErrors(t *testing.T) {
	y := []float64{1, 2, 3}
	// Too few samples for two predictors + intercept.
	if _, err := OLS(y, [][]float64{{1, 2, 3}, {4, 5, 6}}, []string{"a", "b"}); err == nil {
		t.Error("underdetermined system accepted")
	}
	// Mismatched predictor length.
	if _, err := OLS(y, [][]float64{{1, 2}}, []string{"a"}); err == nil {
		t.Error("length mismatch accepted")
	}
	// Name count mismatch.
	if _, err := OLS(y, [][]float64{{1, 2, 3}}, []string{"a", "b"}); err == nil {
		t.Error("name mismatch accepted")
	}
	// Constant predictor column duplicates the intercept (rank deficient).
	y2 := []float64{1, 2, 3, 4, 5, 6}
	if _, err := OLS(y2, [][]float64{{2, 2, 2, 2, 2, 2}}, []string{"c"}); err == nil {
		t.Error("rank-deficient design accepted")
	}
}

func TestOLSAICOrdersModels(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	n := 1000
	x1 := make([]float64, n)
	x2 := make([]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		x1[i] = rng.NormFloat64()
		x2[i] = rng.NormFloat64()
		y[i] = 2*x1[i] + 2*x2[i] + rng.NormFloat64()
	}
	full, err := OLS(y, [][]float64{x1, x2}, []string{"x1", "x2"})
	if err != nil {
		t.Fatal(err)
	}
	partial, err := OLS(y, [][]float64{x1}, []string{"x1"})
	if err != nil {
		t.Fatal(err)
	}
	if full.AIC >= partial.AIC {
		t.Errorf("AIC(full)=%v not below AIC(partial)=%v", full.AIC, partial.AIC)
	}
}

func TestStepwiseAICSelectsTrueModel(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	n := 3000
	preds := make(map[string][]float64)
	for _, name := range []string{"a", "b", "junk1", "junk2", "junk3"} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64()
		}
		preds[name] = xs
	}
	y := make([]float64, n)
	for i := range y {
		y[i] = 3*preds["a"][i] - 2*preds["b"][i] + rng.NormFloat64()
	}
	res := StepwiseAICWorkers(y, preds, 1)
	if res.Model == nil {
		t.Fatal("no model selected")
	}
	sel := map[string]bool{}
	for _, s := range res.Selected {
		sel[s] = true
	}
	if !sel["a"] || !sel["b"] {
		t.Errorf("selected = %v, want a and b", res.Selected)
	}
	if len(res.Selected) > 3 {
		t.Errorf("selected too many: %v", res.Selected)
	}
	if res.ModelsFitted == 0 || res.Steps == 0 {
		t.Error("no work recorded")
	}
}

func TestStepwiseAICNoSignal(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	n := 1000
	preds := map[string][]float64{"junk": make([]float64, n)}
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		preds["junk"][i] = rng.NormFloat64()
		y[i] = rng.NormFloat64()
	}
	res := StepwiseAICWorkers(y, preds, 1)
	// AIC is a liberal criterion: pure noise sneaks in with probability
	// P(χ²₁ > 2) ≈ 0.16, so a selection is tolerated — but any selected
	// model must explain essentially nothing.
	if res.Model != nil && res.Model.R2 > 0.02 {
		t.Errorf("noise model explains R²=%v", res.Model.R2)
	}
}

func TestExhaustiveAICMatchesStepwiseOnEasyProblem(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	n := 800
	preds := make(map[string][]float64)
	for _, name := range []string{"a", "b", "c"} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64()
		}
		preds[name] = xs
	}
	y := make([]float64, n)
	for i := range y {
		y[i] = 2*preds["a"][i] + rng.NormFloat64()*0.5
	}
	sw := StepwiseAICWorkers(y, preds, 1)
	ex := exhaustiveAICWorkers(y, preds, 1)
	if sw.Model == nil || ex.Model == nil {
		t.Fatal("missing models")
	}
	if math.Abs(sw.Model.AIC-ex.Model.AIC) > 1e-6 {
		t.Errorf("stepwise AIC %v != exhaustive %v", sw.Model.AIC, ex.Model.AIC)
	}
	// Exhaustive fits 2^3−1 models; stepwise fits fewer or equal here.
	if ex.ModelsFitted != 7 {
		t.Errorf("exhaustive fitted %d models, want 7", ex.ModelsFitted)
	}
}
