package stats

import (
	"math"

	"github.com/ares-cps/ares/internal/par"
)

// stdSeries is one standardized input series: mean-centered, scaled to
// unit Euclidean norm, so the Pearson coefficient of two series is the dot
// product of their standardized forms.
type stdSeries struct {
	z []float64
	// constant marks a zero-variance series; Pearson defines r = 0 for it
	// (no linear relationship measurable), taking precedence over NaNs in
	// the partner series.
	constant bool
	// short marks a series with fewer than two samples; every pairing is
	// NaN, exactly as Pearson reports it.
	short bool
}

// CorrelationMatrixWorkers computes the pairwise Pearson matrix for the
// given series (rows are variables); series must share a common length. It
// is the single-pass Algorithm 1 correlation kernel. The naive formulation
// recomputes means and variances for every variable pair — O(V²·T) redundant
// passes. This kernel standardizes each series exactly once (mean and
// inverse centered norm, O(V·T)), then fills the matrix with plain dot
// products, fanned out over rows on a bounded worker pool. Every cell is a
// pure function of the standardized inputs and is written to its own slot,
// so the result is bit-identical at any worker count. workers <= 0 uses the
// process budget (GOMAXPROCS).
func CorrelationMatrixWorkers(series [][]float64, workers int) [][]float64 {
	n := len(series)
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
		m[i][i] = 1
	}
	if n < 2 {
		return m
	}

	std := make([]stdSeries, n)
	par.Do(workers, n, func(i int) {
		std[i] = standardize(series[i])
	})

	// Row fan-out over the upper triangle. Rows shrink as i grows; the
	// dynamic index feed of par.Do keeps workers busy regardless.
	par.Do(workers, n-1, func(i int) {
		si := std[i]
		ni := len(series[i])
		for j := i + 1; j < n; j++ {
			r := corrCell(si, std[j], ni, len(series[j]))
			m[i][j], m[j][i] = r, r
		}
	})
	return m
}

// standardize mean-centers one series and scales it by the inverse of its
// centered norm. Constant and too-short series are flagged instead of
// scaled so corrCell can reproduce Pearson's edge-case contract.
func standardize(xs []float64) stdSeries {
	if len(xs) < 2 {
		return stdSeries{short: true}
	}
	m := mean(xs)
	z := make([]float64, len(xs))
	ss := 0.0
	for k, x := range xs {
		d := x - m
		z[k] = d
		ss += d * d
	}
	if ss == 0 {
		return stdSeries{constant: true}
	}
	inv := 1 / math.Sqrt(ss)
	for k := range z {
		z[k] *= inv
	}
	return stdSeries{z: z}
}

// corrCell reproduces Pearson's contract for one pair: NaN for mismatched
// or too-short series, 0 when either side is constant, else the dot product
// of the standardized series.
func corrCell(a, b stdSeries, lenA, lenB int) float64 {
	if a.short || b.short || lenA != lenB {
		return math.NaN()
	}
	if a.constant || b.constant {
		return 0
	}
	return dot(a.z, b.z)
}

// dot is the kernel's inner product, unrolled into four independent
// accumulators so the floating-point adds pipeline instead of serializing
// on one dependency chain (~3× on the V=128 benchmark). The summation
// order is fixed, so results stay bit-identical at any worker count.
func dot(a, b []float64) float64 {
	b = b[:len(a)] // one bounds check, then the loop elides them
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		s0 += a[i] * b[i]
		s1 += a[i+1] * b[i+1]
		s2 += a[i+2] * b[i+2]
		s3 += a[i+3] * b[i+3]
	}
	for ; i < len(a); i++ {
		s0 += a[i] * b[i]
	}
	return (s0 + s1) + (s2 + s3)
}
