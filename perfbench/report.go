package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// steadinessReport runs the untraced benchmark `runs` times, each in a
// fresh process with its own seed (seed, seed+1, …), and prints every
// end-to-end metric's median, quartiles, range and spread — the figures
// the bounds in BENCHMARK.json are set from.
func steadinessReport(ctx context.Context, name string, seed int64, seconds float64, runs int, stdout, stderr io.Writer) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := make(map[string][]float64)
	units := make(map[string]string)
	for i := 0; i < runs; i++ {
		s := seed + int64(i) //areslint:ignore seedarith the report names consecutive workload seeds, not derived streams
		cmd := exec.CommandContext(ctx, self, "--workload", name, "--seed", strconv.FormatInt(s, 10),
			"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0")
		cmd.Stderr = stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("run seed %d: %w", s, err)
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var res output
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			return fmt.Errorf("run seed %d: result line: %w", s, err)
		}
		if !res.Correct || res.Failed > 0 {
			return fmt.Errorf("run seed %d: %d of %d operations failed", s, res.Failed, res.Attempted)
		}
		var diag struct {
			Host map[string]any `json:"host"`
		}
		if len(lines) > 1 {
			_ = json.Unmarshal([]byte(lines[len(lines)-2]), &diag) // diagnostics are informative only
		}
		var line bytes.Buffer
		fmt.Fprintf(&line, "seed %d: speed=%.4g/%.4g", s, diag.Host["speed_start"], diag.Host["speed_end"])
		for _, k := range sortedKeys(res.Metrics) {
			values[k] = append(values[k], res.Metrics[k].Value)
			units[k] = res.Metrics[k].Unit
			fmt.Fprintf(&line, " %s=%.6g", k, res.Metrics[k].Value)
		}
		fmt.Fprintln(stderr, line.String())
	}
	fmt.Fprintf(stdout, "%-16s %-6s %12s %12s %12s %12s %12s %8s\n",
		"metric", "unit", "median", "q1", "q3", "min", "max", "iqr/med")
	summary := make(map[string]map[string]float64)
	for _, k := range sortedKeys(values) {
		v := values[k]
		q1, q3 := quartiles(v)
		lo, hi := v[0], v[0]
		for _, x := range v {
			lo, hi = min(lo, x), max(hi, x)
		}
		fmt.Fprintf(stdout, "%-16s %-6s %12.6g %12.6g %12.6g %12.6g %12.6g %8.4f\n",
			k, units[k], median(v), q1, q3, lo, hi, spread(v))
		summary[k] = map[string]float64{"median": median(v), "q1": q1, "q3": q3,
			"min": lo, "max": hi, "spread": spread(v)}
	}
	data, err := json.Marshal(map[string]any{"workload": name, "runs": runs, "metrics": summary})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", data)
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
