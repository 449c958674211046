package stats

import (
	"fmt"
	"sort"

	"github.com/ares-cps/ares/internal/par"
)

// TSVLInput configures one run of Algorithm 1 (target state variable list
// generation).
type TSVLInput struct {
	// Names and Series hold the ESVL: one time series per state variable.
	Names  []string
	Series [][]float64
	// Responses lists the vehicle dynamics of interest (e.g. "ATT.Roll");
	// each becomes the regression response for its cluster.
	Responses []string
	// Prune tunes the statistical assumption checks.
	Prune PruneOptions
	// ClusterCut is the correlation-distance threshold (1 − |r|) at which
	// agglomeration stops; variables closer than this share a subset.
	ClusterCut float64
	// Alpha is the regression significance level (the paper uses 0.05).
	Alpha float64
	// SkipClustering regresses each response on every surviving variable
	// instead of only its cluster — the no-clustering ablation.
	SkipClustering bool
	// Exhaustive replaces stepwise AIC with exhaustive subset search —
	// the model-selection ablation. Practical only for small clusters.
	Exhaustive bool
	// Parallelism bounds the worker pool for the prune, correlation and
	// model-selection stages; <= 0 uses the process budget (GOMAXPROCS).
	// Output is identical at any value: every parallel unit writes a
	// disjoint slot and merges happen in deterministic input order.
	Parallelism int
}

// TSVLReport is the full output of Algorithm 1.
type TSVLReport struct {
	// Pruned records the assumption-check outcome for every input.
	Pruned []PruneResult
	// Kept lists surviving variable names in input order.
	Kept []string
	// Corr is the pairwise Pearson matrix over Kept.
	Corr [][]float64
	// Dendro is the clustering of Kept (nil when SkipClustering).
	Dendro *Dendrogram
	// Clusters holds the variable-name subsets after the cut.
	Clusters [][]string
	// Models maps each response variable to its selected model.
	Models map[string]*StepwiseResult
	// TSVL is the final target state variable list, sorted by name.
	TSVL []string
	// ModelsFitted totals the regressions evaluated (search cost).
	ModelsFitted int
}

// GenerateTSVL runs Algorithm 1: prune the ESVL on statistical assumptions,
// cluster by correlation, select an optimal model per subset with stepwise
// AIC, and keep the predictors significant at Alpha.
func GenerateTSVL(in TSVLInput) (*TSVLReport, error) {
	if len(in.Names) != len(in.Series) {
		return nil, fmt.Errorf("stats: %d names for %d series", len(in.Names), len(in.Series))
	}
	if len(in.Names) == 0 {
		return nil, errInsufficientData
	}
	if in.Alpha <= 0 {
		in.Alpha = 0.05
	}
	if in.ClusterCut <= 0 {
		in.ClusterCut = 0.5
	}
	if in.Prune == (PruneOptions{}) {
		in.Prune = defaultPruneOptions()
	}

	workers := par.Workers(in.Parallelism)

	rep := &TSVLReport{Models: make(map[string]*StepwiseResult)}

	// Lines 1–5 + 16: assumption check. Response variables are exempt
	// from pruning (they are what we explain, not what we select).
	rep.Pruned = PruneStateVarsWorkers(in.Names, in.Series, in.Prune, workers)
	keptIdx := make([]int, 0, len(in.Names))
	for i, pr := range rep.Pruned {
		if pr.Kept || containsStr(in.Responses, in.Names[i]) {
			keptIdx = append(keptIdx, i)
		}
	}
	if len(keptIdx) < 2 {
		return nil, errInsufficientData
	}
	keptSeries := make([][]float64, len(keptIdx))
	rep.Kept = make([]string, len(keptIdx))
	for i, idx := range keptIdx {
		rep.Kept[i] = in.Names[idx]
		keptSeries[i] = in.Series[idx]
	}

	// Lines 14–15: pairwise correlation matrix.
	rep.Corr = CorrelationMatrixWorkers(keptSeries, workers)

	// Line 17: hierarchical clustering into subsets.
	var clusters [][]int
	if in.SkipClustering {
		all := make([]int, len(rep.Kept))
		for i := range all {
			all[i] = i
		}
		clusters = [][]int{all}
	} else {
		rep.Dendro = hierCluster(correlationDistance(rep.Corr))
		clusters = rep.Dendro.CutAt(in.ClusterCut)
	}
	for _, c := range clusters {
		names := make([]string, len(c))
		for i, idx := range c {
			names[i] = rep.Kept[idx]
		}
		rep.Clusters = append(rep.Clusters, names)
	}

	// Lines 18–21: per-subset model selection + significance check. Every
	// (cluster, response) pair is an independent regression search over its
	// own predictor set; the searches fan out over the worker pool and the
	// results merge afterwards in input order, so the report is identical
	// at any worker count.
	type modelTask struct {
		ci       int
		respName string
		y        []float64
		preds    map[string][]float64
	}
	var tasks []modelTask
	for ci, cluster := range clusters {
		for _, respName := range in.Responses {
			respIdx := -1
			for _, idx := range cluster {
				if rep.Kept[idx] == respName {
					respIdx = idx
					break
				}
			}
			if respIdx < 0 {
				continue // this response lives in another subset
			}
			y := keptSeries[respIdx]
			preds := make(map[string][]float64)
			for _, idx := range cluster {
				name := rep.Kept[idx]
				if name == respName || containsStr(in.Responses, name) {
					continue
				}
				preds[name] = keptSeries[idx]
			}
			if len(preds) == 0 {
				continue
			}
			tasks = append(tasks, modelTask{ci: ci, respName: respName, y: y, preds: preds})
		}
	}
	sels := make([]*StepwiseResult, len(tasks))
	// Split the budget between the task fan-out and each task's candidate
	// sweep: outer × inner ≈ workers. Selection is bit-identical at any
	// inner worker count, so the split affects wall-clock only.
	outer := workers
	if outer > len(tasks) {
		outer = len(tasks)
	}
	inner := par.Inner(workers, outer)
	par.Do(workers, len(tasks), func(ti int) {
		t := tasks[ti]
		if in.Exhaustive {
			sels[ti] = exhaustiveAICWorkers(t.y, t.preds, inner)
		} else {
			sels[ti] = StepwiseAICWorkers(t.y, t.preds, inner)
		}
	})
	tsvlSet := make(map[string]bool)
	for ti, t := range tasks {
		sel := sels[ti]
		rep.ModelsFitted += sel.ModelsFitted
		rep.Models[fmt.Sprintf("%s[c%d]", t.respName, t.ci)] = sel
		if sel.Model == nil {
			continue
		}
		for _, name := range sel.Model.SignificantPredictors(in.Alpha) {
			tsvlSet[name] = true
		}
	}
	rep.TSVL = sortedKeys(tsvlSet)
	return rep, nil
}

func containsStr(xs []string, s string) bool {
	for _, x := range xs {
		if x == s {
			return true
		}
	}
	return false
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
