package core

import (
	"fmt"
	"io"
	"strings"
)

// Report aggregates a full ARES assessment run.
type Report struct {
	// Profile summarizes the collected operation data.
	ProfileSamples  int
	ProfileMissions int
	// Groups holds the Table II analyses.
	Groups []*GroupAnalysis
	// Roll holds the Figure 3/5 roll-control analysis.
	Roll *RollAnalysis
}

// WriteText renders the report as aligned text tables.
func (r *Report) WriteText(w io.Writer) error {
	fprintf := func(format string, args ...interface{}) error {
		_, err := fmt.Fprintf(w, format, args...)
		return err
	}
	if err := fprintf("ARES vulnerability assessment report\n"); err != nil {
		return err
	}
	if err := fprintf("profile: %d missions, %d samples/variable\n\n",
		r.ProfileMissions, r.ProfileSamples); err != nil {
		return err
	}

	if len(r.Groups) > 0 {
		if err := fprintf("Target state variable search (Table II)\n"); err != nil {
			return err
		}
		if err := fprintf("%-10s %8s %8s %8s %8s %8s\n",
			"Controller", "KSVL", "Added", "ESVL", "TSVL", "Ratio"); err != nil {
			return err
		}
		for _, g := range r.Groups {
			if err := fprintf("%-10s %8d %8d %8d %8d %7.1f%%\n",
				g.Group.Name, g.KSVLCount, g.AddedCount, g.ESVLCount,
				g.TSVLCount, g.Ratio*100); err != nil {
				return err
			}
		}
		if err := fprintf("\n"); err != nil {
			return err
		}
		for _, g := range r.Groups {
			if err := fprintf("%s TSVL: %s\n", g.Group.Name,
				strings.Join(g.TSVL, ", ")); err != nil {
				return err
			}
		}
		if err := fprintf("\n"); err != nil {
			return err
		}
	}

	if r.Roll != nil {
		if err := fprintf("Roll-control ESVL (%d variables kept)\n", len(r.Roll.Names)); err != nil {
			return err
		}
		if err := fprintf("roll TSVL: %s\n\n", strings.Join(r.Roll.TSVL, ", ")); err != nil {
			return err
		}
	}
	return nil
}

// HeatmapText renders the roll correlation matrix as a text heat map in
// dendrogram order (the Figure 5 view). Cell glyphs bucket |r|.
func (r *RollAnalysis) HeatmapText(w io.Writer) error {
	order := r.Order
	if len(order) == 0 {
		order = make([]int, len(r.Names))
		for i := range order {
			order[i] = i
		}
	}
	// Header with short indices.
	if _, err := fmt.Fprintf(w, "%-14s", ""); err != nil {
		return err
	}
	for range order {
		if _, err := fmt.Fprint(w, " "); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}
	for _, i := range order {
		if _, err := fmt.Fprintf(w, "%-14s", trimName(r.Names[i])); err != nil {
			return err
		}
		for _, j := range order {
			if _, err := fmt.Fprint(w, glyph(r.Corr[i][j])); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}

func glyph(r float64) string {
	a := r
	if a < 0 {
		a = -a
	}
	switch {
	case a >= 0.8:
		if r < 0 {
			return "▓"
		}
		return "█"
	case a >= 0.5:
		return "▒"
	case a >= 0.2:
		return "░"
	default:
		return "·"
	}
}

func trimName(n string) string {
	if len(n) > 13 {
		return n[:13]
	}
	return n
}
