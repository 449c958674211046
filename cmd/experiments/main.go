// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments [-exp id] [-seed S] [-quick] [-csv DIR] [-parallel N]
//	            [-cpuprofile FILE] [-memprofile FILE]
//
// With no -exp it runs every experiment in the paper's order. Experiment ids:
// table1, table2, fig3, fig5, fig6, fig7, fig8, fig9, fig10, fig11, ablation.
// With -parallel N the experiments run on an N-worker pool (the campaign
// subsystem's pool); each result is buffered and printed in the paper's
// order, so the output is identical to a sequential run.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/ares-cps/ares/internal/experiments"
	"github.com/ares-cps/ares/internal/par"
	"github.com/ares-cps/ares/internal/profiling"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) (retErr error) {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	exp := fs.String("exp", "", "run only this experiment id (default: all)")
	seed := fs.Int64("seed", 42, "random seed")
	quick := fs.Bool("quick", false, "reduced trial counts and training budgets")
	csvDir := fs.String("csv", "", "also export CSV data into this directory")
	parallel := fs.Int("parallel", 0, "run experiments on this many workers (0 = sequential)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	if err := fs.Parse(args); err != nil {
		return err
	}

	stopProf, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProf(); perr != nil && retErr == nil {
			retErr = perr
		}
	}()

	// SIGINT/SIGTERM cancel the run between experiments (and stop the
	// parallel pool from starting new ones) — the same graceful path the
	// assessment daemon uses, so profiles still flush on the way out.
	ctx, cancel := signal.NotifyContext(context.Background(),
		os.Interrupt, syscall.SIGTERM)
	defer cancel()

	suite := experiments.NewSuite(*seed, *quick)
	if *parallel > 1 {
		// Split one machine-wide concurrency budget between the experiment
		// pool and the Algorithm 1 stages each experiment runs internally,
		// instead of letting every worker open a full-width analysis pool.
		suite.Analysis.Parallelism = par.Inner(0, *parallel)
	}
	runOne := func(id string, runner experiments.Runner, w io.Writer) error {
		start := time.Now()
		res, err := runner(suite)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		fmt.Fprintf(w, "=== %s (%.1fs) ===\n", id, time.Since(start).Seconds())
		if err := res.WriteText(w); err != nil {
			return err
		}
		fmt.Fprintln(w)
		if *csvDir != "" {
			if err := res.WriteCSV(*csvDir); err != nil {
				return fmt.Errorf("%s csv: %w", id, err)
			}
		}
		return nil
	}

	if *exp != "" {
		runner, err := experiments.Lookup(*exp)
		if err != nil {
			return err
		}
		return runOne(*exp, runner, stdout)
	}
	registry := experiments.Registry()
	if *parallel > 1 {
		// Suite getters are mutex-guarded, so concurrent experiments
		// share the expensive profile/monitor setup safely; per-entry
		// buffers keep the interleaved output readable and ordered.
		bufs := make([]bytes.Buffer, len(registry))
		err := par.ForEach(ctx, *parallel, len(registry), func(i int) error {
			return runOne(registry[i].ID, registry[i].Run, &bufs[i])
		})
		for i := range bufs {
			if _, werr := stdout.Write(bufs[i].Bytes()); werr != nil {
				return werr
			}
		}
		return err
	}
	for _, e := range registry {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := runOne(e.ID, e.Run, stdout); err != nil {
			return err
		}
	}
	return nil
}
