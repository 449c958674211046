package stats

import "math"

// mean returns the arithmetic mean; NaN for an empty slice.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// skewness returns the sample skewness (g1).
func skewness(xs []float64) float64 {
	n := float64(len(xs))
	if n < 3 {
		return math.NaN()
	}
	m := mean(xs)
	var m2, m3 float64
	for _, x := range xs {
		d := x - m
		m2 += d * d
		m3 += d * d * d
	}
	m2 /= n
	m3 /= n
	if m2 == 0 {
		return 0
	}
	return m3 / math.Pow(m2, 1.5)
}

// kurtosis returns the sample excess kurtosis (g2).
func kurtosis(xs []float64) float64 {
	n := float64(len(xs))
	if n < 4 {
		return math.NaN()
	}
	m := mean(xs)
	var m2, m4 float64
	for _, x := range xs {
		d := x - m
		m2 += d * d
		m4 += d * d * d * d
	}
	m2 /= n
	m4 /= n
	if m2 == 0 {
		return 0
	}
	return m4/(m2*m2) - 3
}

// isConstant reports whether a series never deviates from its first value
// by more than tol. Constant intermediates (e.g. the paper's v1 KP, v2 KI,
// v3 KD gains) are pruned before correlation analysis.
func isConstant(xs []float64, tol float64) bool {
	if len(xs) == 0 {
		return true
	}
	first := xs[0]
	for _, x := range xs {
		if math.Abs(x-first) > tol {
			return false
		}
	}
	return true
}
