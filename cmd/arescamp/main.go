// Command arescamp runs a sharded, parallel, resumable ARES
// vulnerability-assessment campaign: the cross product of missions ×
// target variables × attack goals × defenses × trial seeds, executed on a
// bounded worker pool with one JSON-lines artifact record per job.
//
// Usage:
//
//	arescamp [-missions L] [-vars L] [-goals L] [-attacks L] [-defenses L]
//	         [-trials N] [-seed S] [-episodes N] [-steps N] [-workers N]
//	         [-cpv ID[,ID...]] [-list-cpvs]
//	         [-out FILE] [-csv DIR] [-q] [-metrics]
//	         [-cpuprofile FILE] [-memprofile FILE]
//
// Re-running with the same -out file resumes the campaign: jobs whose keys
// already have an ok record are skipped, so an interrupted fleet picks up
// where it stopped. `arescamp -out run.jsonl -summary` aggregates an
// existing artifact file without running anything. The exit status is
// non-zero when any job in the sweep failed (after the partial summary is
// printed), so CI pipelines fail loudly; -metrics dumps the shared
// process instrument set (the same counters the aresd daemon serves at
// /metrics) to stderr on exit.
//
// -cpv compiles the named built-in CPV catalog records into the campaign
// instead of assembling axes by hand (the axis flags are then rejected, as
// each record carries its own); -list-cpvs prints the catalog and exits.
// Records produced by a catalog-compiled run carry the originating CPV ID,
// and the -summary aggregation reports a per-CPV axis, so results stay
// traceable back to the catalog entry.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"github.com/ares-cps/ares/internal/campaign"
	"github.com/ares-cps/ares/internal/cpv"
	"github.com/ares-cps/ares/internal/metrics"
	"github.com/ares-cps/ares/internal/profiling"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "arescamp:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) (retErr error) {
	fs := flag.NewFlagSet("arescamp", flag.ContinueOnError)
	fs.SetOutput(stderr)
	missions := fs.String("missions", "line:60", "comma-separated missions (kind:size[:alt])")
	variables := fs.String("vars", "PIDR.INTEG,CMD.Roll", "comma-separated target state variables")
	goals := fs.String("goals", campaign.GoalDeviation, "comma-separated goals (deviation,crash)")
	attacks := fs.String("attacks", campaign.AttackRL, "comma-separated attacks (rl,stealthy)")
	defenses := fs.String("defenses", campaign.DefenseNone, "comma-separated defenses (none,ci,recovery)")
	cpvIDs := fs.String("cpv", "", "compile these CPV catalog record IDs instead of the axis flags")
	listCPVs := fs.Bool("list-cpvs", false, "print the built-in CPV catalog and exit")
	trials := fs.Int("trials", 8, "trial seeds per axis cell")
	seed := fs.Int64("seed", 42, "campaign base seed")
	episodes := fs.Int("episodes", 12, "RL training episodes per job")
	steps := fs.Int("steps", 60, "max steps per episode")
	workers := fs.Int("workers", 0, "worker pool size (0 = all CPUs)")
	out := fs.String("out", "campaign.jsonl", "artifact file (JSON lines); reused for resume")
	csvDir := fs.String("csv", "", "also export the summary as CSV into this directory")
	summaryOnly := fs.Bool("summary", false, "only aggregate the existing -out file; run nothing")
	quiet := fs.Bool("q", false, "suppress per-job progress lines")
	dumpMetrics := fs.Bool("metrics", false, "dump process metrics (Prometheus text) to stderr on exit")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *listCPVs {
		for _, r := range cpv.Catalog() {
			fmt.Fprintf(stdout, "%-14s %s [%s/%s vs %s]\n",
				r.ID, r.Name, r.AttackVector, r.Goal, strings.Join(r.Defenses, ","))
		}
		return nil
	}

	stopProf, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		return err
	}
	if *dumpMetrics {
		// The same instrument set the assessment daemon serves at
		// /metrics, dumped expvar-style for batch runs.
		defer metrics.Default().WritePrometheus(stderr)
	}
	defer func() {
		if perr := stopProf(); perr != nil && retErr == nil {
			retErr = perr
		}
	}()

	if !*summaryOnly {
		var spec campaign.Spec
		if *cpvIDs != "" {
			// Catalog mode: each record carries its own axes, so the axis
			// flags must not also be set.
			explicit := make(map[string]bool)
			fs.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
			for _, name := range []string{"missions", "vars", "goals", "attacks", "defenses"} {
				if explicit[name] {
					return fmt.Errorf("-%s cannot be combined with -cpv (each catalog record carries its own axes)", name)
				}
			}
			spec, err = cpv.CompileIDs(cpv.Options{
				Name:     "arescamp",
				Seed:     *seed,
				Trials:   *trials,
				Episodes: *episodes,
				MaxSteps: *steps,
			}, splitList(*cpvIDs)...)
			if err != nil {
				return err
			}
		} else {
			spec = campaign.Spec{
				Name:     "arescamp",
				Seed:     *seed,
				Trials:   *trials,
				Episodes: *episodes,
				MaxSteps: *steps,
			}
			for _, m := range splitList(*missions) {
				ms, err := campaign.ParseMission(m)
				if err != nil {
					return err
				}
				spec.Missions = append(spec.Missions, ms)
			}
			spec.Variables = splitList(*variables)
			spec.Goals = splitList(*goals)
			spec.Attacks = splitList(*attacks)
			spec.Defenses = splitList(*defenses)
		}
		if err := spec.Validate(); err != nil {
			return err
		}

		store, err := campaign.OpenStore(*out)
		if err != nil {
			return err
		}
		defer store.Close()

		// SIGINT/SIGTERM stop new jobs; in-flight jobs finish and are
		// recorded, so the next run with the same -out resumes cleanly.
		ctx, cancel := signal.NotifyContext(context.Background(),
			os.Interrupt, syscall.SIGTERM)
		defer cancel()

		logw := io.Writer(stderr)
		if *quiet {
			logw = io.Discard
		}
		r := &campaign.Runner{Workers: *workers, Log: logw}
		stats, err := r.Run(ctx, spec, store)
		if err != nil && err != context.Canceled {
			return err
		}
		fmt.Fprintf(stderr,
			"campaign: %d jobs (%d resumed), %d ok, %d errors, %d panics in %.1fs\n",
			stats.Total, stats.Skipped, stats.OK, stats.Errors, stats.Panics,
			stats.Elapsed.Seconds())
		if err == context.Canceled {
			fmt.Fprintf(stderr, "campaign: interrupted — re-run with -out %s to resume\n", *out)
			return nil
		}
		// A sweep with failed jobs must fail the invoking pipeline, but
		// only after the partial summary below is printed.
		if n := stats.Errors + stats.Panics; n > 0 {
			defer func() {
				if retErr == nil {
					retErr = fmt.Errorf("%d of %d jobs failed", n, stats.Total)
				}
			}()
		}
	}

	recs, err := campaign.ReadRecords(*out)
	if err != nil {
		return err
	}
	sum := campaign.Aggregate("arescamp", recs)
	if err := sum.WriteText(stdout); err != nil {
		return err
	}
	if *csvDir != "" {
		return sum.WriteCSV(*csvDir)
	}
	return nil
}

func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
