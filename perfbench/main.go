// Command perfbench is the ARES end-to-end benchmark. It drives four
// workloads in-process through the public entry points of the campaign
// runner, the assessment daemon, the coordinator/worker fleet and the
// Algorithm 1 pipeline, checks every output against digests pinned for
// its seeds, and prints one JSON object as its last line of output.
//
// Usage (from the repository root; perfbench/run.sh builds and runs it):
//
//	perfbench --workload NAME --seed N --seconds S --trace 0|1
//	perfbench --workload NAME --seed N --seconds S --report RUNS
//	perfbench --record-digests perfbench/digests.json
//
// --trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
// metrics of a traced run. --report repeats the untraced run in fresh
// processes over consecutive seeds and prints each metric's median,
// quartiles and range. See perfbench/README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// workloads are the benchmark's workloads by name.
var workloads = map[string]workload{
	"sweep-camp":      sweepCamp,
	"catalog-daemon":  catalogDaemon,
	"catalog-fleet":   catalogFleet,
	"profile-analyze": profileAnalyze,
}

// workDir holds everything a run writes; it lives inside the checkout
// next to the build output.
const workDir = ".bench_build"

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Int64("seed", 1, "workload seed; the same seed generates the same inputs")
	seconds := fs.Float64("seconds", 20, "how long to measure")
	trace := fs.Int("trace", 0, "1 runs the traced mode and prints per-layer metrics")
	report := fs.Int("report", 0, "repeat the untraced run this many times (fresh processes, consecutive seeds) and print the spread of every metric")
	record := fs.String("record-digests", "", "recompute the pinned output digests on the scalar local path and write them to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	if *record != "" {
		return recordDigests(ctx, *record, stderr)
	}
	w, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q (have %s)", *name, workloadNames())
	}
	if *seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	if *report > 0 {
		return steadinessReport(ctx, *name, *seed, *seconds, *report, stdout, stderr)
	}
	dig, err := loadDigests()
	if err != nil {
		return err
	}

	dir := filepath.Join(workDir, "work", fmt.Sprintf("%s-%d", *name, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	e := &env{dir: dir, seed: *seed, digests: dig}
	host := startHost()
	budget := time.Duration(*seconds * float64(time.Second))

	var res result
	if *trace == 1 {
		res, err = tracedRun(ctx, w, e, budget, filepath.Join(workDir, "trace", fmt.Sprintf("%s-seed%d", *name, *seed)))
	} else {
		res, err = untracedRun(ctx, w, e, budget)
	}
	if err != nil {
		return err
	}
	// Diagnostics ride beside the result and gate nothing.
	diag, err := json.Marshal(map[string]any{"host": host.finish(), "samples": res.samples})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", diag)
	line, err := json.Marshal(res.out)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return nil
}

// output is the benchmark's final line.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one mode's output plus the sample counts printed beside it.
type result struct {
	out     output
	samples map[string]any
}

func workloadNames() string { return strings.Join(sortedKeys(workloads), ", ") }
