package stats

// The per-candidate QR implementations of stepwise and exhaustive AIC
// selection that the Gram kernel replaced. They are the numerical oracles
// of the kernel's equivalence tests, fuzz target and benchmarks.

// stepwiseAICQR is the pre-kernel implementation — every candidate refits
// a fresh Householder QR.
func stepwiseAICQR(y []float64, predictors map[string][]float64) *StepwiseResult {
	res := &StepwiseResult{}
	candidates := sortedPredictorNames(predictors)

	currentAIC := interceptOnlyAIC(y)
	var selected []string

	fit := func(names []string) *OLSResult {
		cols := make([][]float64, len(names))
		for i, n := range names {
			cols[i] = predictors[n]
		}
		res.ModelsFitted++
		m, err := OLS(y, cols, names)
		if err != nil {
			return nil
		}
		return m
	}

	var currentModel *OLSResult
	for {
		bestAIC := currentAIC
		bestNames := selected
		var bestModel *OLSResult

		// Try adding each remaining predictor.
		for _, name := range candidates {
			if contains(selected, name) {
				continue
			}
			cand := append(append([]string{}, selected...), name)
			if m := fit(cand); m != nil && m.AIC < bestAIC-1e-9 {
				bestAIC = m.AIC
				bestNames = cand
				bestModel = m
			}
		}
		// Try removing each selected predictor.
		for i := range selected {
			cand := make([]string, 0, len(selected)-1)
			cand = append(cand, selected[:i]...)
			cand = append(cand, selected[i+1:]...)
			if len(cand) == 0 {
				if a := interceptOnlyAIC(y); a < bestAIC-1e-9 {
					bestAIC = a
					bestNames = nil
					bestModel = nil
				}
				continue
			}
			if m := fit(cand); m != nil && m.AIC < bestAIC-1e-9 {
				bestAIC = m.AIC
				bestNames = cand
				bestModel = m
			}
		}

		if bestAIC >= currentAIC-1e-9 {
			break // local optimum
		}
		currentAIC = bestAIC
		selected = bestNames
		currentModel = bestModel
		res.Steps++
	}
	res.Model = currentModel
	res.Selected = selected
	return res
}

// exhaustiveAICQR is the pre-kernel exhaustive search.
func exhaustiveAICQR(y []float64, predictors map[string][]float64) *StepwiseResult {
	res := &StepwiseResult{}
	names := sortedPredictorNames(predictors)
	bestAIC := interceptOnlyAIC(y)
	var bestModel *OLSResult
	var bestNames []string
	total := 1 << len(names)
	for mask := 1; mask < total; mask++ {
		var cand []string
		for i, n := range names {
			if mask&(1<<i) != 0 {
				cand = append(cand, n)
			}
		}
		cols := make([][]float64, len(cand))
		for i, n := range cand {
			cols[i] = predictors[n]
		}
		res.ModelsFitted++
		m, err := OLS(y, cols, cand)
		if err != nil {
			continue
		}
		if m.AIC < bestAIC {
			bestAIC = m.AIC
			bestModel = m
			bestNames = cand
		}
	}
	res.Model = bestModel
	res.Selected = bestNames
	return res
}

func contains(xs []string, s string) bool {
	for _, x := range xs {
		if x == s {
			return true
		}
	}
	return false
}
