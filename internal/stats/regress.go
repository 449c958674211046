package stats

import (
	"fmt"
	"math"
)

// OLSResult holds a fitted ordinary-least-squares regression of a response
// on k predictors (plus intercept).
type OLSResult struct {
	// Names labels each predictor column.
	Names []string
	// Coef holds the intercept (index 0) followed by predictor
	// coefficients.
	Coef []float64
	// StdErr holds the coefficient standard errors, same layout.
	StdErr []float64
	// TStat and PValue hold per-coefficient t statistics and two-sided
	// p-values, same layout.
	TStat  []float64
	PValue []float64
	// R2 is the coefficient of determination.
	R2 float64
	// RSS is the residual sum of squares; N the sample count.
	RSS float64
	N   int
	// AIC is Akaike's information criterion under Gaussian errors.
	AIC float64
	// LogLik is the maximized Gaussian log-likelihood.
	LogLik float64
}

// OLS fits y = b0 + Σ bi·xi by QR decomposition (Householder reflections),
// returning coefficient significance tests and the AIC used by stepwise
// selection. Predictor series must match the response length.
func OLS(y []float64, predictors [][]float64, names []string) (*OLSResult, error) {
	n := len(y)
	k := len(predictors)
	if len(names) != k {
		return nil, fmt.Errorf("stats: %d names for %d predictors", len(names), k)
	}
	for i, p := range predictors {
		if len(p) != n {
			return nil, fmt.Errorf("stats: predictor %q has %d samples, response has %d",
				names[i], len(p), n)
		}
	}
	cols := k + 1 // intercept + predictors
	if n <= cols {
		return nil, errInsufficientData
	}

	// Design matrix in column-major order.
	a := make([][]float64, cols)
	a[0] = make([]float64, n)
	for i := range a[0] {
		a[0][i] = 1
	}
	for j := 0; j < k; j++ {
		col := make([]float64, n)
		copy(col, predictors[j])
		a[j+1] = col
	}
	yv := make([]float64, n)
	copy(yv, y)

	// Householder QR: reduce A to upper triangular R while applying the
	// same reflections to y.
	r := make([][]float64, cols) // r[j][i] = R entry (row i, col j), i <= j
	for j := range r {
		r[j] = make([]float64, cols)
	}
	// Column norms of the original design, for rank-deficiency checks.
	origNorm := make([]float64, cols)
	for j := 0; j < cols; j++ {
		s := 0.0
		for i := 0; i < n; i++ {
			s += a[j][i] * a[j][i]
		}
		origNorm[j] = math.Sqrt(s)
	}
	for j := 0; j < cols; j++ {
		// Compute the Householder vector for column j (rows j..n-1).
		norm := 0.0
		for i := j; i < n; i++ {
			norm += a[j][i] * a[j][i]
		}
		norm = math.Sqrt(norm)
		if norm <= 1e-10*origNorm[j] || norm == 0 {
			return nil, fmt.Errorf("stats: design matrix column %d is rank deficient", j)
		}
		if a[j][j] > 0 {
			norm = -norm
		}
		v := make([]float64, n)
		for i := j; i < n; i++ {
			v[i] = a[j][i]
		}
		v[j] -= norm
		vNorm2 := 0.0
		for i := j; i < n; i++ {
			vNorm2 += v[i] * v[i]
		}
		if vNorm2 == 0 {
			return nil, fmt.Errorf("stats: degenerate reflection at column %d", j)
		}
		apply := func(col []float64) {
			dot := 0.0
			for i := j; i < n; i++ {
				dot += v[i] * col[i]
			}
			f := 2 * dot / vNorm2
			for i := j; i < n; i++ {
				col[i] -= f * v[i]
			}
		}
		for jj := j; jj < cols; jj++ {
			apply(a[jj])
		}
		apply(yv)
		for i := 0; i <= j; i++ {
			r[j][i] = a[j][i]
		}
	}

	// Back substitution: R·b = Qᵀy (first cols entries of yv).
	coef := make([]float64, cols)
	for i := cols - 1; i >= 0; i-- {
		s := yv[i]
		for j := i + 1; j < cols; j++ {
			s -= r[j][i] * coef[j]
		}
		if r[i][i] == 0 {
			return nil, fmt.Errorf("stats: singular R at %d", i)
		}
		coef[i] = s / r[i][i]
	}

	// Residual sum of squares: the tail of the transformed response.
	rss := 0.0
	for i := cols; i < n; i++ {
		rss += yv[i] * yv[i]
	}

	// (XᵀX)⁻¹ = R⁻¹·R⁻ᵀ for standard errors.
	rInv := invertUpper(r, cols)
	df := float64(n - cols)
	sigma2 := rss / df
	stdErr := make([]float64, cols)
	tStat := make([]float64, cols)
	pVal := make([]float64, cols)
	for i := 0; i < cols; i++ {
		v := 0.0
		for j := i; j < cols; j++ {
			v += rInv[i][j] * rInv[i][j]
		}
		stdErr[i] = math.Sqrt(sigma2 * v)
		if stdErr[i] > 0 {
			tStat[i] = coef[i] / stdErr[i]
			pVal[i] = tTestPValue(tStat[i], df)
		} else {
			tStat[i] = math.Inf(1)
			pVal[i] = 0
		}
	}

	// R², log-likelihood, AIC.
	my := mean(y)
	tss := 0.0
	for _, v := range y {
		d := v - my
		tss += d * d
	}
	r2 := 0.0
	if tss > 0 {
		r2 = 1 - rss/tss
	}
	logLik, aic := gaussianAIC(n, cols, rss)

	return &OLSResult{
		Names:  append([]string{}, names...),
		Coef:   coef,
		StdErr: stdErr,
		TStat:  tStat,
		PValue: pVal,
		R2:     r2,
		RSS:    rss,
		N:      n,
		AIC:    aic,
		LogLik: logLik,
	}, nil
}

// gaussianAIC returns the maximized Gaussian log-likelihood and Akaike's
// information criterion for a linear model with `cols` estimated
// coefficients (intercept included) and the given residual sum of squares
// over n samples; the error variance counts as one more free parameter.
// Shared by the QR and Gram fitting paths so the criterion cannot drift
// between them.
func gaussianAIC(n, cols int, rss float64) (logLik, aic float64) {
	nf := float64(n)
	if rss <= 0 {
		logLik = math.Inf(1)
	} else {
		logLik = -nf/2*(math.Log(2*math.Pi)+math.Log(rss/nf)) - nf/2
	}
	kParams := float64(cols + 1) // coefficients + error variance
	return logLik, 2*kParams - 2*logLik
}

// invertUpper inverts the upper-triangular matrix stored as r[col][row].
// Result is row-major inv[i][j].
func invertUpper(r [][]float64, m int) [][]float64 {
	inv := make([][]float64, m)
	for i := range inv {
		inv[i] = make([]float64, m)
	}
	for j := m - 1; j >= 0; j-- {
		inv[j][j] = 1 / r[j][j]
		for i := j - 1; i >= 0; i-- {
			s := 0.0
			for k := i + 1; k <= j; k++ {
				s += r[k][i] * inv[k][j]
			}
			inv[i][j] = -s / r[i][i]
		}
	}
	return inv
}

// SignificantPredictors returns the predictor names whose p-value is below
// alpha (Algorithm 1's CheckSignificanceLevel; the paper uses alpha 0.05).
// The intercept is never reported.
func (r *OLSResult) SignificantPredictors(alpha float64) []string {
	var out []string
	for i, name := range r.Names {
		if r.PValue[i+1] < alpha {
			out = append(out, name)
		}
	}
	return out
}
