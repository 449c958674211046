package core

import (
	"fmt"

	"github.com/ares-cps/ares/internal/par"
	"github.com/ares-cps/ares/internal/stats"
)

// AnalysisOptions tunes the Algorithm 1 run. The correlation cut (0.5) and
// the regression significance level (0.05) are stats' defaults.
type AnalysisOptions struct {
	// SkipClustering and Exhaustive select the ablation variants.
	SkipClustering bool
	Exhaustive     bool
	// Parallelism is the concurrency budget for the whole analysis: the
	// controller groups fan out across it and each group's Algorithm 1
	// stages (prune, correlation, model selection) share the remainder, so
	// group workers × in-group workers never exceeds it. <= 0 uses the
	// process budget (GOMAXPROCS). Results are identical at any value.
	Parallelism int
}

// advisoryPrune is the assumption check the analysis runs: constants are
// pruned, distributional p-values are computed for the report but do not
// remove variables. Mission-scale controller series are decisively
// non-Gaussian (maneuvers give their increments heavy tails), so exact-test
// pruning would empty the ESVL — the paper's own 24-variable Figure 5 set
// implies the same leniency in practice.
var advisoryPrune = stats.PruneOptions{ConstTol: 1e-9}

// tsvlInput is the Algorithm 1 input for the traced subset of a variable
// list explaining responses.
func (o AnalysisOptions) tsvlInput(names []string, series [][]float64, responses []string) stats.TSVLInput {
	return stats.TSVLInput{
		Names:          names,
		Series:         series,
		Responses:      responses,
		Prune:          advisoryPrune,
		SkipClustering: o.SkipClustering,
		Exhaustive:     o.Exhaustive,
		Parallelism:    par.Workers(o.Parallelism),
	}
}

// GroupAnalysis is the Table II row for one controller function: the size
// of each variable list at each pipeline stage plus the full statistical
// report.
type GroupAnalysis struct {
	Group      ControllerGroup
	KSVLCount  int
	AddedCount int
	ESVLCount  int
	TSVLCount  int
	// Ratio is TSVL/ESVL, the paper's "Ratio of SV Selection".
	Ratio float64
	// TSVL lists the selected target state variables.
	TSVL []string
	// Report is the complete Algorithm 1 output.
	Report *stats.TSVLReport
	// Missing lists group variables absent from the profile (tracing
	// gaps count against coverage, so they are surfaced, not hidden).
	Missing []string
}

// AnalyzeGroup runs Algorithm 1 for one controller group against profiled
// operation data.
func AnalyzeGroup(p *Profile, g ControllerGroup, opts AnalysisOptions) (*GroupAnalysis, error) {
	names, series, missing := p.SeriesFor(g.ESVL())
	if len(names) < 2 {
		return nil, fmt.Errorf("core: group %s: too few traced variables", g.Name)
	}
	rep, err := stats.GenerateTSVL(opts.tsvlInput(names, series, g.Responses))
	if err != nil {
		return nil, fmt.Errorf("core: group %s: %w", g.Name, err)
	}
	ga := &GroupAnalysis{
		Group:      g,
		KSVLCount:  len(g.KSVL),
		AddedCount: len(g.Added),
		ESVLCount:  len(g.ESVL()),
		TSVLCount:  len(rep.TSVL),
		TSVL:       rep.TSVL,
		Report:     rep,
		Missing:    missing,
	}
	if ga.ESVLCount > 0 {
		ga.Ratio = float64(ga.TSVLCount) / float64(ga.ESVLCount)
	}
	return ga, nil
}

// AnalyzeAllGroups runs Algorithm 1 for every standard controller group —
// the full Table II. Groups fan out across the Parallelism budget and each
// group's internal stages run on its share of the remainder; results land
// in fixed slots and errors surface in group order, so the output (and the
// error, if any) is identical to a sequential run at any worker count.
func AnalyzeAllGroups(p *Profile, opts AnalysisOptions) ([]*GroupAnalysis, error) {
	groups := standardGroups()
	budget := par.Workers(opts.Parallelism)
	outer := budget
	if outer > len(groups) {
		outer = len(groups)
	}
	inner := opts
	inner.Parallelism = par.Inner(budget, outer)

	out := make([]*GroupAnalysis, len(groups))
	errs := make([]error, len(groups))
	par.Do(outer, len(groups), func(i int) {
		out[i], errs[i] = AnalyzeGroup(p, groups[i], inner)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// RollAnalysis is the Figure 3/5 product: the pruned roll-control ESVL,
// its correlation matrix with hierarchically-clustered ordering, and the
// roll TSVL.
type RollAnalysis struct {
	// Names lists the surviving variables in input order.
	Names []string
	// Corr is their Pearson matrix.
	Corr [][]float64
	// Order is the dendrogram leaf ordering for heat-map display.
	Order []int
	// TSVL is the roll-specific target list.
	TSVL []string
	// Report is the full Algorithm 1 output.
	Report *stats.TSVLReport
}

// AnalyzeRoll runs the roll-control analysis of Figures 3 and 5.
func AnalyzeRoll(p *Profile, opts AnalysisOptions) (*RollAnalysis, error) {
	names, series, _ := p.SeriesFor(RollESVL())
	if len(names) < 2 {
		return nil, fmt.Errorf("core: roll ESVL not traced")
	}
	rep, err := stats.GenerateTSVL(opts.tsvlInput(names, series, []string{rollResponse}))
	if err != nil {
		return nil, err
	}
	var order []int
	if rep.Dendro != nil {
		order = rep.Dendro.LeafOrder()
	}
	return &RollAnalysis{
		Names:  rep.Kept,
		Corr:   rep.Corr,
		Order:  order,
		TSVL:   rep.TSVL,
		Report: rep,
	}, nil
}

// CorrelationEdge is one edge of the Figure 3 dependency graph.
type CorrelationEdge struct {
	A, B string
	R    float64
}

// CorrelationEdges lists the pairwise correlations above the magnitude
// threshold, strongest first — the green/red line set of Figure 3.
func (a *RollAnalysis) CorrelationEdges(minAbs float64) []CorrelationEdge {
	var edges []CorrelationEdge
	for i := 0; i < len(a.Names); i++ {
		for j := i + 1; j < len(a.Names); j++ {
			r := a.Corr[i][j]
			if r >= minAbs || r <= -minAbs {
				edges = append(edges, CorrelationEdge{A: a.Names[i], B: a.Names[j], R: r})
			}
		}
	}
	// Sort by |r| descending (insertion sort: edge lists are small).
	for i := 1; i < len(edges); i++ {
		e := edges[i]
		j := i - 1
		for j >= 0 && absf(edges[j].R) < absf(e.R) {
			edges[j+1] = edges[j]
			j--
		}
		edges[j+1] = e
	}
	return edges
}

func absf(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
