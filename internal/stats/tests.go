package stats

import (
	"math"
	"math/bits"
	"slices"

	"github.com/ares-cps/ares/internal/par"
)

// jarqueBera runs the Jarque-Bera normality test, returning the statistic
// and its p-value (χ², 2 degrees of freedom). Small p-values reject
// normality. Algorithm 1 prunes state variables that are "not NormDist".
func jarqueBera(xs []float64) (stat, pValue float64) {
	n := float64(len(xs))
	if n < 8 {
		return math.NaN(), math.NaN()
	}
	s := skewness(xs)
	k := kurtosis(xs)
	stat = n / 6 * (s*s + k*k/4)
	pValue = 1 - chiSquareCDF(stat, 2)
	return stat, pValue
}

// runsTest runs the Wald-Wolfowitz runs test for randomness/independence
// about the median, returning the z statistic and two-sided p-value. Small
// p-values reject independence. Algorithm 1 prunes variables that are
// "not iid". A NaN sample makes both results NaN.
func runsTest(xs []float64) (z, pValue float64) {
	if len(xs) < 8 {
		return math.NaN(), math.NaN()
	}
	med := median(xs)
	// Classify each sample above/below the median, dropping ties, and
	// count the runs of equal classes in the same pass.
	var n1, n2, runs float64
	var prev bool
	for _, x := range xs {
		if math.IsNaN(x) {
			return math.NaN(), math.NaN()
		}
		if x == med {
			continue
		}
		above := x > med
		if above {
			n1++
		} else {
			n2++
		}
		if runs == 0 || above != prev {
			runs++
		}
		prev = above
	}
	if n1+n2 < 8 || n1 == 0 || n2 == 0 {
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

// median returns the median of xs without reordering it, by selection on
// a copy: O(n) expected where a sort is O(n log n). Only runsTest reads
// it, through == and >, so which of ±0 lands in the middle never changes
// a result; with a NaN sample the value is unspecified, and runsTest
// returns NaN.
func median(xs []float64) float64 {
	buf := slices.Clone(xs)
	n := len(buf)
	upper := selectKth(buf, n/2)
	if n%2 == 1 {
		return upper
	}
	// selectKth leaves every value below index n/2 ≤ upper, so the lower
	// middle value is the largest of them.
	return 0.5 * (slices.Max(buf[:n/2]) + upper)
}

// selectKth reorders xs so that xs[k] holds the value a sort would put
// there, with no greater value before it and no smaller one after it, and
// returns xs[k]. Each round splits the window around a median-of-three
// pivot into <, neither and > bands and keeps the band holding k; the
// neither band holds the pivot itself, so every round shrinks the window,
// NaN included. The window left after 2·log2(n) rounds is sorted instead,
// which bounds the worst case at O(n log n).
func selectKth(xs []float64, k int) float64 {
	lo, hi := 0, len(xs)
	for rounds := 2 * bits.Len(uint(len(xs))); hi-lo > 1; rounds-- {
		if rounds == 0 {
			slices.Sort(xs[lo:hi])
			break
		}
		a, pivot, c := xs[lo], xs[lo+(hi-lo)/2], xs[hi-1]
		if a > pivot {
			a, pivot = pivot, a
		}
		if pivot > c {
			pivot = max(a, c)
		}
		lt, i, gt := lo, lo, hi
		for i < gt {
			switch x := xs[i]; {
			case x < pivot:
				xs[lt], xs[i] = x, xs[lt]
				lt++
				i++
			case x > pivot:
				gt--
				xs[i], xs[gt] = xs[gt], x
			default:
				i++
			}
		}
		switch {
		case k < lt:
			hi = lt
		case k >= gt:
			lo = gt
		default:
			return xs[k]
		}
	}
	return xs[k]
}

// PruneResult explains why a variable survived or was removed by the
// Algorithm 1 assumption check.
type PruneResult struct {
	Name     string
	Kept     bool
	Reason   string
	JBPValue float64
	RunsP    float64
}

// PruneOptions tunes the assumption checks of Algorithm 1's
// PruneStateVarList.
type PruneOptions struct {
	// ConstTol treats series within this band as constant (pruned).
	ConstTol float64
	// Alpha is the significance level below which normality or
	// independence is rejected. The paper's prerequisite is stated as a
	// hard requirement; in practice controller series are only
	// approximately normal, so a small alpha keeps the test meaningful
	// without pruning everything. Alpha ≤ 0 makes the distributional
	// tests advisory: p-values are still computed and reported, but only
	// constant series are pruned — the working configuration for real
	// flight data, whose maneuver-induced heavy tails fail any exact
	// normality test at mission-scale sample counts.
	Alpha float64
}

// defaultPruneOptions returns the strict exact-test options GenerateTSVL
// applies when TSVLInput.Prune is zero. The evaluation does not use them:
// internal/core passes an advisory set that prunes only constants.
func defaultPruneOptions() PruneOptions {
	return PruneOptions{ConstTol: 1e-12, Alpha: 1e-6}
}

// PruneStateVarsWorkers applies Algorithm 1 lines 1–5: remove constant
// series and series whose *state-by-state updates* (first differences) fail
// the normality (Jarque-Bera) or independence (runs) test at the given
// significance level. A series holding any NaN or ±Inf sample is pruned
// before either test runs.
//
// The tests run on increments rather than levels because raw controller
// series are smooth trajectories — every level series would trivially fail
// an i.i.d. test. The paper analyzes "the state-by-state ESVL updates in the
// sequential cycles of the RAV"; the increments are exactly those updates,
// and noise-driven variables pass while frozen or saturated ones are pruned.
//
// The checks fan out over a bounded worker pool: each variable's assumption
// check (differencing, Jarque-Bera, runs test) is independent and writes
// only its own result slot, so the output is identical at any worker count.
// workers <= 0 uses the process budget.
func PruneStateVarsWorkers(names []string, series [][]float64, opts PruneOptions, workers int) []PruneResult {
	out := make([]PruneResult, len(names))
	par.Do(workers, len(names), func(i int) {
		name := names[i]
		res := PruneResult{Name: name, Kept: true}
		xs := series[i]
		switch {
		case len(xs) < 9:
			res.Kept = false
			res.Reason = "too few samples"
		case !allFinite(xs):
			// The tests below are undefined on NaN and ±Inf, and the
			// runs test's median would depend on where its sort puts NaN.
			res.Kept = false
			res.Reason = "non-finite samples"
		case isConstant(xs, opts.ConstTol):
			res.Kept = false
			res.Reason = "constant value"
		default:
			diffs := diff(xs)
			if isConstant(diffs, opts.ConstTol) {
				res.Kept = false
				res.Reason = "constant increments"
				break
			}
			_, jb := jarqueBera(diffs)
			res.JBPValue = jb
			_, rp := runsTest(diffs)
			res.RunsP = rp
			if opts.Alpha > 0 {
				if !math.IsNaN(jb) && jb < opts.Alpha {
					res.Kept = false
					res.Reason = "not normally distributed"
				} else if !math.IsNaN(rp) && rp < opts.Alpha {
					res.Kept = false
					res.Reason = "not iid"
				}
			}
		}
		out[i] = res
	})
	return out
}

// allFinite reports whether every sample is a finite number.
func allFinite(xs []float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// diff returns the first differences of a series (length n-1).
func diff(xs []float64) []float64 {
	if len(xs) < 2 {
		return nil
	}
	out := make([]float64, len(xs)-1)
	for i := 1; i < len(xs); i++ {
		out[i-1] = xs[i] - xs[i-1]
	}
	return out
}
