package stats

import (
	"math"
	"sort"

	"github.com/ares-cps/ares/internal/par"
)

// StepwiseResult reports the model chosen by stepwise AIC selection.
type StepwiseResult struct {
	// Model is the final fitted regression (nil when nothing beat the
	// intercept-only model).
	Model *OLSResult
	// Selected lists the chosen predictor names in selection order.
	Selected []string
	// Steps counts how many add/remove moves the search made.
	Steps int
	// ModelsFitted counts all candidate regressions evaluated (the cost
	// metric for the clustering ablation).
	ModelsFitted int
}

// StepwiseAICWorkers performs bidirectional stepwise model selection:
// starting from the intercept-only model, it repeatedly applies the single
// add-or-remove move that lowers AIC most, stopping at a local optimum.
// This is Algorithm 1's STEPWISEAIC, run on the Gram kernel with the
// per-step add/remove candidate sweep fanned out over up to `workers`
// goroutines.
// Candidate AICs land in per-move slots and the winning move is chosen by
// a fixed-order scan over them, so the selected model — and every
// AIC-comparison tie — is identical at any worker count. workers <= 0 uses
// the process budget (GOMAXPROCS).
func StepwiseAICWorkers(y []float64, predictors map[string][]float64, workers int) *StepwiseResult {
	res := &StepwiseResult{}
	// Candidates are walked in sorted order so AIC ties resolve
	// deterministically (map iteration order would make the selected
	// model run-dependent).
	names := sortedPredictorNames(predictors)
	v := len(names)
	cols := make([][]float64, v)
	for i, n := range names {
		cols[i] = predictors[n]
	}
	workers = par.Workers(workers)
	kern := newGramKernel(y, names, cols, workers)

	scratch := make([]*gramScratch, workers)
	for i := range scratch {
		scratch[i] = newGramScratch(v)
	}

	interceptAIC := interceptOnlyAIC(y)
	currentAIC := interceptAIC
	var selected []int
	selMask := make([]bool, v)

	moves := make([]activeSet, 0, v)
	aics := make([]float64, v+1)
	oks := make([]bool, v+1)

	for {
		// The move set of one step: add each remaining predictor (in
		// candidate order), then remove each selected one (in selection
		// order) — the exact order the sequential search walked, so the
		// slot scan below reproduces its tie-breaking bit for bit.
		moves = moves[:0]
		for p := 0; p < v; p++ {
			if !selMask[p] {
				moves = append(moves, activeSet{sel: selected, add: p, omit: -1})
			}
		}
		for i := range selected {
			moves = append(moves, activeSet{sel: selected, add: -1, omit: i})
		}
		if len(moves) == 0 {
			break
		}
		if len(moves) > len(aics) {
			aics = make([]float64, len(moves))
			oks = make([]bool, len(moves))
		}

		par.Chunks(workers, len(moves), func(w, lo, hi int) {
			sc := scratch[w]
			for i := lo; i < hi; i++ {
				if moves[i].size() == 0 {
					// Removing the last predictor falls back to the
					// intercept-only model — a closed form, not a fit.
					aics[i], oks[i] = interceptAIC, true
					continue
				}
				aics[i], oks[i] = kern.evalAIC(moves[i], sc)
			}
		})
		for i := range moves {
			if moves[i].size() > 0 {
				res.ModelsFitted++
			}
		}

		best := -1
		bestAIC := currentAIC
		for i := range moves {
			if oks[i] && aics[i] < bestAIC-1e-9 {
				bestAIC = aics[i]
				best = i
			}
		}
		if best < 0 {
			break // local optimum
		}
		if mv := moves[best]; mv.add >= 0 {
			selMask[mv.add] = true
			selected = append(selected, mv.add)
		} else {
			selMask[selected[mv.omit]] = false
			selected = append(selected[:mv.omit], selected[mv.omit+1:]...)
		}
		currentAIC = bestAIC
		res.Steps++
	}

	if len(selected) > 0 {
		// One QR refit of the winner reproduces the pre-kernel output —
		// coefficients, standard errors, p-values — exactly. It is not a
		// search evaluation, so it does not count toward ModelsFitted.
		nm, cs := kern.materialize(activeSet{sel: selected, add: -1, omit: -1})
		if m, err := OLS(y, cs, nm); err == nil {
			res.Model = m
		}
		res.Selected = nm
	}
	return res
}

// exhaustiveBlock bounds how many subset AICs are reduced per Argmin call,
// so the sweep streams over the 2^V mask space in constant memory.
const exhaustiveBlock = 1 << 14

// exhaustiveAICWorkers fits every non-empty subset of predictors and returns
// the AIC-optimal model. Exponential in predictor count; it exists as the
// baseline for the stepwise-selection ablation. It runs on the Gram kernel,
// sweeping the subset masks in ascending-order blocks with a deterministic
// argmin reduction: ties go to the lowest mask, so the selected subset is
// identical at any worker count.
func exhaustiveAICWorkers(y []float64, predictors map[string][]float64, workers int) *StepwiseResult {
	res := &StepwiseResult{}
	names := sortedPredictorNames(predictors)
	v := len(names)
	cols := make([][]float64, v)
	for i, n := range names {
		cols[i] = predictors[n]
	}
	workers = par.Workers(workers)
	kern := newGramKernel(y, names, cols, workers)

	type exScratch struct {
		sc  *gramScratch
		idx []int
	}
	scratch := make([]exScratch, workers)
	for i := range scratch {
		scratch[i] = exScratch{sc: newGramScratch(v), idx: make([]int, 0, v)}
	}

	bestAIC := interceptOnlyAIC(y)
	bestMask := 0
	total := 1 << v
	for lo := 1; lo < total; lo += exhaustiveBlock {
		hi := lo + exhaustiveBlock
		if hi > total {
			hi = total
		}
		idx, val := par.Argmin(workers, hi-lo, func(w, i int) float64 {
			mask := lo + i
			s := &scratch[w]
			s.idx = s.idx[:0]
			for p := 0; p < v; p++ {
				if mask&(1<<p) != 0 {
					s.idx = append(s.idx, p)
				}
			}
			aic, ok := kern.evalAIC(activeSet{sel: s.idx, add: -1, omit: -1}, s.sc)
			if !ok {
				return math.Inf(1)
			}
			return aic
		})
		// Strict < across ascending blocks keeps the lowest tying mask,
		// matching the sequential scan's first-wins rule.
		if idx >= 0 && val < bestAIC {
			bestAIC = val
			bestMask = lo + idx
		}
	}
	res.ModelsFitted = total - 1

	if bestMask != 0 {
		sel := make([]int, 0, v)
		for p := 0; p < v; p++ {
			if bestMask&(1<<p) != 0 {
				sel = append(sel, p)
			}
		}
		nm, cs := kern.materialize(activeSet{sel: sel, add: -1, omit: -1})
		if m, err := OLS(y, cs, nm); err == nil {
			res.Model = m
		}
		res.Selected = nm
	}
	return res
}

// interceptOnlyAIC computes the AIC of the mean-only model.
func interceptOnlyAIC(y []float64) float64 {
	n := float64(len(y))
	if n < 2 {
		return math.Inf(1)
	}
	m := mean(y)
	rss := 0.0
	for _, v := range y {
		d := v - m
		rss += d * d
	}
	if rss <= 0 {
		return math.Inf(-1)
	}
	logLik := -n/2*(math.Log(2*math.Pi)+math.Log(rss/n)) - n/2
	return 2*2 - 2*logLik // intercept + variance
}

func sortedPredictorNames(predictors map[string][]float64) []string {
	names := make([]string, 0, len(predictors))
	for k := range predictors {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}
