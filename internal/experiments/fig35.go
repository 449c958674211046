package experiments

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"github.com/ares-cps/ares/internal/campaign"
	"github.com/ares-cps/ares/internal/core"
)

// Fig3Result reproduces Figure 3: the correlation-based dependency graph of
// the roll-control ESVL — the edge list with sign and strength.
type Fig3Result struct {
	Edges []core.CorrelationEdge
	TSVL  []string
	Kept  int
}

// Name implements Result.
func (*Fig3Result) Name() string { return "fig3" }

// RunFig3 computes the Figure 3 dependency graph.
func RunFig3(s *Suite) (*Fig3Result, error) {
	prof, err := s.Profile()
	if err != nil {
		return nil, err
	}
	roll, err := core.AnalyzeRoll(prof, s.Analysis)
	if err != nil {
		return nil, err
	}
	return &Fig3Result{
		Edges: roll.CorrelationEdges(0.3),
		TSVL:  roll.TSVL,
		Kept:  len(roll.Names),
	}, nil
}

// WriteText implements Result.
func (r *Fig3Result) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintf(w,
		"Figure 3 — roll ESVL dependency graph (%d variables, %d edges with |r| ≥ 0.3)\n",
		r.Kept, len(r.Edges)); err != nil {
		return err
	}
	limit := len(r.Edges)
	if limit > 25 {
		limit = 25
	}
	for _, e := range r.Edges[:limit] {
		sign := "+"
		if e.R < 0 {
			sign = "-"
		}
		bar := strings.Repeat("=", int(absf(e.R)*10))
		if _, err := fmt.Fprintf(w, "  %-14s -- %-14s %s%.2f %s\n",
			e.A, e.B, sign, absf(e.R), bar); err != nil {
			return err
		}
	}
	if limit < len(r.Edges) {
		if _, err := fmt.Fprintf(w, "  … %d more edges\n", len(r.Edges)-limit); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "roll TSVL: %s\n", strings.Join(r.TSVL, ", "))
	return err
}

// WriteCSV implements Result.
func (r *Fig3Result) WriteCSV(dir string) error {
	rows := make([][]string, 0, len(r.Edges))
	for _, e := range r.Edges {
		rows = append(rows, []string{e.A, e.B, strconv.FormatFloat(e.R, 'g', 6, 64)})
	}
	return campaign.WriteCSV(dir, "fig3_edges.csv", []string{"a", "b", "r"}, rows)
}

// Fig5Result reproduces Figure 5: the correlation heat map of the 24
// roll-control state variables with hierarchical-clustering ordering.
type Fig5Result struct {
	Roll *core.RollAnalysis
	// Clusters is the subset partition at the analysis cut.
	Clusters [][]string
}

// Name implements Result.
func (*Fig5Result) Name() string { return "fig5" }

// RunFig5 computes the Figure 5 heat map.
func RunFig5(s *Suite) (*Fig5Result, error) {
	prof, err := s.Profile()
	if err != nil {
		return nil, err
	}
	roll, err := core.AnalyzeRoll(prof, s.Analysis)
	if err != nil {
		return nil, err
	}
	return &Fig5Result{Roll: roll, Clusters: roll.Report.Clusters}, nil
}

// WriteText implements Result.
func (r *Fig5Result) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintf(w,
		"Figure 5 — roll ESVL correlation heat map (%d variables, dendrogram order)\n",
		len(r.Roll.Names)); err != nil {
		return err
	}
	if err := r.Roll.HeatmapText(w); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "clusters at cut:\n"); err != nil {
		return err
	}
	for i, c := range r.Clusters {
		if _, err := fmt.Fprintf(w, "  c%d: %s\n", i, strings.Join(c, ", ")); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "selected TSVL: %s\n", strings.Join(r.Roll.TSVL, ", "))
	return err
}

// WriteCSV implements Result.
func (r *Fig5Result) WriteCSV(dir string) error {
	header := append([]string{"variable"}, r.Roll.Names...)
	rows := make([][]string, 0, len(r.Roll.Names))
	for i, n := range r.Roll.Names {
		row := make([]string, 0, len(header))
		row = append(row, n)
		for j := range r.Roll.Names {
			row = append(row, strconv.FormatFloat(r.Roll.Corr[i][j], 'g', 6, 64))
		}
		rows = append(rows, row)
	}
	return campaign.WriteCSV(dir, "fig5_corr.csv", header, rows)
}

func absf(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
