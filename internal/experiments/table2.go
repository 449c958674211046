package experiments

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"github.com/ares-cps/ares/internal/campaign"
	"github.com/ares-cps/ares/internal/core"
)

// Table2Result reproduces Table II: the per-controller state variable
// counts at every stage of the data-driven search.
type Table2Result struct {
	Rows []*core.GroupAnalysis
	// Samples is the profiled sample count backing the analysis.
	Samples int
}

// Name implements Result.
func (*Table2Result) Name() string { return "table2" }

// RunTable2 runs the full Algorithm 1 pipeline for every controller group.
func RunTable2(s *Suite) (*Table2Result, error) {
	prof, err := s.Profile()
	if err != nil {
		return nil, err
	}
	rows, err := core.AnalyzeAllGroups(prof, s.Analysis)
	if err != nil {
		return nil, err
	}
	return &Table2Result{Rows: rows, Samples: prof.Samples()}, nil
}

// WriteText implements Result.
func (r *Table2Result) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintf(w,
		"Table II — data-driven state variable search (%d samples/variable)\n", r.Samples); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%-10s %6s %10s %6s %6s %10s\n",
		"Controller", "KSVL", "Added SVs", "ESVL", "TSVL", "Ratio"); err != nil {
		return err
	}
	for _, row := range r.Rows {
		if _, err := fmt.Fprintf(w, "%-10s %6d %10d %6d %6d %9.1f%%\n",
			row.Group.Name, row.KSVLCount, row.AddedCount,
			row.ESVLCount, row.TSVLCount, row.Ratio*100); err != nil {
			return err
		}
	}
	for _, row := range r.Rows {
		if _, err := fmt.Fprintf(w, "%s TSVL: %s\n",
			row.Group.Name, strings.Join(row.TSVL, ", ")); err != nil {
			return err
		}
	}
	return nil
}

// WriteCSV implements Result.
func (r *Table2Result) WriteCSV(dir string) error {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Group.Name,
			strconv.Itoa(row.KSVLCount),
			strconv.Itoa(row.AddedCount),
			strconv.Itoa(row.ESVLCount),
			strconv.Itoa(row.TSVLCount),
			strconv.FormatFloat(row.Ratio, 'g', 4, 64),
			strings.Join(row.TSVL, ";"),
		})
	}
	return campaign.WriteCSV(dir, "table2_tsvl.csv",
		[]string{"controller", "ksvl", "added", "esvl", "tsvl", "ratio", "tsvl_vars"}, rows)
}
