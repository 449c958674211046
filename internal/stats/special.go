// Package stats implements the multivariate statistics behind ARES's target
// state variable identification: Pearson correlation, normality and
// independence pruning, agglomerative hierarchical clustering, ordinary
// least squares regression with significance tests, the Akaike information
// criterion, stepwise model selection, and the complete Algorithm 1
// (GenerateTSVL) of the paper.
package stats

import (
	"errors"
	"math"
)

// errInsufficientData is returned when a computation needs more samples.
var errInsufficientData = errors.New("stats: insufficient data")

// normalCDF returns P(Z ≤ x) for a standard normal variable.
func normalCDF(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
}

// regIncBeta computes the regularized incomplete beta function I_x(a, b)
// via the continued-fraction expansion (Numerical Recipes betacf).
func regIncBeta(a, b, x float64) float64 {
	switch {
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	}
	lbeta, _ := math.Lgamma(a + b)
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	front := math.Exp(lbeta - la - lb + a*math.Log(x) + b*math.Log(1-x))
	if x < (a+1)/(a+b+2) {
		return front * betacf(a, b, x) / a
	}
	return 1 - front*betacf(b, a, 1-x)/b
}

// betacf evaluates the continued fraction for the incomplete beta function
// using the modified Lentz method.
func betacf(a, b, x float64) float64 {
	const (
		maxIter = 300
		eps     = 3e-14
		fpmin   = 1e-300
	)
	qab := a + b
	qap := a + 1
	qam := a - 1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < fpmin {
		d = fpmin
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		m2 := 2 * m
		aa := float64(m) * (b - float64(m)) * x / ((qam + float64(m2)) * (a + float64(m2)))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		h *= d * c
		aa = -(a + float64(m)) * (qab + float64(m)) * x / ((a + float64(m2)) * (qap + float64(m2)))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}

// studentTCDF returns P(T ≤ t) for Student's t distribution with df degrees
// of freedom.
func studentTCDF(t, df float64) float64 {
	if df <= 0 {
		return math.NaN()
	}
	x := df / (df + t*t)
	p := 0.5 * regIncBeta(df/2, 0.5, x)
	if t > 0 {
		return 1 - p
	}
	return p
}

// tTestPValue returns the two-sided p-value for a t statistic with df
// degrees of freedom.
func tTestPValue(t, df float64) float64 {
	if math.IsNaN(t) || df <= 0 {
		return math.NaN()
	}
	return 2 * (1 - studentTCDF(math.Abs(t), df))
}

// lowerIncGamma computes the regularized lower incomplete gamma function
// P(a, x) by series expansion (x < a+1) or continued fraction otherwise.
func lowerIncGamma(a, x float64) float64 {
	switch {
	case x <= 0:
		return 0
	case a <= 0:
		return 1
	}
	lg, _ := math.Lgamma(a)
	if x < a+1 {
		// Series representation.
		sum := 1 / a
		term := sum
		for n := 1; n < 300; n++ {
			term *= x / (a + float64(n))
			sum += term
			if math.Abs(term) < math.Abs(sum)*1e-15 {
				break
			}
		}
		return sum * math.Exp(-x+a*math.Log(x)-lg)
	}
	// Continued fraction for the upper function Q(a, x).
	const fpmin = 1e-300
	b := x + 1 - a
	c := 1 / fpmin
	d := 1 / b
	h := d
	for i := 1; i < 300; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = b + an/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < 1e-15 {
			break
		}
	}
	q := math.Exp(-x+a*math.Log(x)-lg) * h
	return 1 - q
}

// chiSquareCDF returns P(X ≤ x) for a chi-squared variable with k degrees
// of freedom.
func chiSquareCDF(x, k float64) float64 {
	if x < 0 || k <= 0 {
		return 0
	}
	return lowerIncGamma(k/2, x/2)
}
