package campaign

import (
	"fmt"
	"io"
	"sort"
)

// AxisCell is one row of a per-axis summary: all records sharing one value
// of one sweep axis.
type AxisCell struct {
	// Axis is "mission", "variable", "goal", "attack", "defense" or
	// "cpv"; Value is the axis value the cell aggregates.
	Axis, Value string
	// Jobs counts deduplicated records; OK those with ok status.
	Jobs, OK int
	// SuccessRate and DetectionRate are fractions of the OK jobs.
	SuccessRate   float64
	DetectionRate float64
	// MeanDeviation and MaxDeviation summarize the ok jobs' deviations.
	MeanDeviation float64
	MaxDeviation  float64
}

// Summary aggregates a campaign's records per axis. It satisfies the
// internal/experiments Result shape (Name / WriteText / WriteCSV), so
// campaign outputs drop into the same reporting pipelines as the paper's
// tables and figures.
type Summary struct {
	// Campaign is the spec name (may be empty).
	Campaign string
	// Records is the deduplicated record count; Failures counts records
	// whose latest status is not ok.
	Records  int
	Failures int
	// Cells holds the per-axis rows, grouped axis by axis.
	Cells []AxisCell
}

// Aggregate folds records into a Summary. Records are deduplicated by job
// key keeping the *last* occurrence, so a resumed store where a failed job
// later succeeded reports the success.
func Aggregate(name string, recs []Record) *Summary {
	byKey := make(map[string]Record, len(recs))
	keys := make([]string, 0, len(recs))
	for _, r := range recs {
		if _, seen := byKey[r.Key]; !seen {
			keys = append(keys, r.Key)
		}
		byKey[r.Key] = r
	}
	sort.Strings(keys)

	s := &Summary{Campaign: name, Records: len(keys)}
	axes := []struct {
		name string
		of   func(Record) string
	}{
		{"mission", func(r Record) string { return r.Mission }},
		{"variable", func(r Record) string { return r.Variable }},
		{"goal", func(r Record) string { return r.Goal }},
		// Records written before the attack axis existed carry no attack
		// field; they ran the RL exploit.
		{"attack", func(r Record) string {
			if r.Attack == "" {
				return AttackRL
			}
			return r.Attack
		}},
		{"defense", func(r Record) string { return r.Defense }},
		// CPV groups catalog-compiled records by their originating record
		// ID; hand-written sweeps have none and are skipped for this axis.
		{"cpv", func(r Record) string { return r.CPV }},
	}
	for _, r := range byKey {
		if r.Status != StatusOK {
			s.Failures++
		}
	}
	for _, axis := range axes {
		cells := make(map[string]*AxisCell)
		var order []string
		for _, k := range keys {
			r := byKey[k]
			v := axis.of(r)
			if v == "" {
				continue
			}
			c, ok := cells[v]
			if !ok {
				c = &AxisCell{Axis: axis.name, Value: v}
				cells[v] = c
				order = append(order, v)
			}
			c.Jobs++
			if r.Status != StatusOK || r.Metrics == nil {
				continue
			}
			c.OK++
			m := r.Metrics
			if m.Success {
				c.SuccessRate++
			}
			if m.Detected {
				c.DetectionRate++
			}
			c.MeanDeviation += m.Deviation
			if m.Deviation > c.MaxDeviation {
				c.MaxDeviation = m.Deviation
			}
		}
		sort.Strings(order)
		for _, v := range order {
			c := cells[v]
			if c.OK > 0 {
				n := float64(c.OK)
				c.SuccessRate /= n
				c.DetectionRate /= n
				c.MeanDeviation /= n
			}
			s.Cells = append(s.Cells, *c)
		}
	}
	return s
}

// Name implements the experiments result shape.
func (s *Summary) Name() string { return "campaign" }

// WriteText renders the per-axis table for a terminal.
func (s *Summary) WriteText(w io.Writer) error {
	title := s.Campaign
	if title == "" {
		title = "campaign"
	}
	if _, err := fmt.Fprintf(w, "Campaign %s — %d jobs (%d failed)\n",
		title, s.Records, s.Failures); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%-8s %-16s %5s %5s | %8s %8s | %9s %9s\n",
		"axis", "value", "jobs", "ok", "success", "detect", "mean dev", "max dev"); err != nil {
		return err
	}
	for _, c := range s.Cells {
		if _, err := fmt.Fprintf(w, "%-8s %-16s %5d %5d | %7.0f%% %7.0f%% | %8.2fm %8.2fm\n",
			c.Axis, c.Value, c.Jobs, c.OK,
			c.SuccessRate*100, c.DetectionRate*100,
			c.MeanDeviation, c.MaxDeviation); err != nil {
			return err
		}
	}
	return nil
}

// WriteCSV exports the per-axis table into dir as campaign_summary.csv.
func (s *Summary) WriteCSV(dir string) error {
	header := []string{"axis", "value", "jobs", "ok",
		"success_rate", "detection_rate", "mean_deviation", "max_deviation"}
	rows := make([][]string, 0, len(s.Cells))
	for _, c := range s.Cells {
		rows = append(rows, []string{
			c.Axis, c.Value,
			fmt.Sprint(c.Jobs), fmt.Sprint(c.OK),
			fmt.Sprintf("%g", c.SuccessRate), fmt.Sprintf("%g", c.DetectionRate),
			fmt.Sprintf("%g", c.MeanDeviation), fmt.Sprintf("%g", c.MaxDeviation),
		})
	}
	return WriteCSV(dir, "campaign_summary.csv", header, rows)
}
