// Command ares runs the ARES vulnerability assessment pipeline end to end:
// profile benign missions, run the Algorithm 1 analysis, optionally train an
// RL exploit for a selected target state variable, and print the report.
//
// Usage:
//
//	ares [-missions N] [-seed S] [-exploit VAR] [-episodes N] [-heatmap]
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/ares-cps/ares"
	"github.com/ares-cps/ares/internal/core"
	"github.com/ares-cps/ares/internal/dataflash"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ares:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("ares", flag.ContinueOnError)
	missions := fs.Int("missions", 5, "number of benign profiling missions")
	seed := fs.Int64("seed", 1, "random seed for the whole pipeline")
	exploit := fs.String("exploit", "", "train an RL exploit for this target state variable (e.g. PIDR.INTEG)")
	episodes := fs.Int("episodes", 120, "RL training episodes for -exploit")
	heatmap := fs.Bool("heatmap", false, "print the Figure 5 correlation heat map")
	fromLog := fs.String("fromlog", "", "analyze a recorded dataflash log instead of flying (KSVL-only view)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *fromLog != "" {
		return analyzeLog(*fromLog)
	}

	p := ares.NewPipeline(ares.Config{
		Missions: *missions,
		Seed:     *seed,
	})
	fmt.Fprintf(os.Stderr, "profiling %d benign missions…\n", *missions)
	if err := p.Profile(); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "running Algorithm 1 analysis…")
	if err := p.Analyze(); err != nil {
		return err
	}
	if err := p.Report().WriteText(os.Stdout); err != nil {
		return err
	}
	if *heatmap {
		if err := p.Roll().HeatmapText(os.Stdout); err != nil {
			return err
		}
	}
	if *exploit != "" {
		fmt.Fprintf(os.Stderr, "training exploit for %s (%d episodes)…\n", *exploit, *episodes)
		res, err := p.TrainDeviationExploit(*exploit, *episodes)
		if err != nil {
			return err
		}
		fmt.Printf("exploit %s: best return %.2f, eval deviation %.2f m, crashed=%v\n",
			res.Variable, res.Train.BestReturn, res.Replay.Final, res.Replay.Crashed)
	}
	return nil
}

// analyzeLog runs the log-only analysis path: extract the dataflash-visible
// variables from a recorded flight and run Algorithm 1 on the roll subset.
// Intermediate controller variables are not in the log — the output notes
// the visibility gap the full pipeline's memory instrumentation closes.
func analyzeLog(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	log, err := dataflash.Read(f)
	if err != nil {
		return err
	}
	prof, err := core.ProfileFromLog(log, nil)
	if err != nil {
		return err
	}
	fmt.Printf("log: %d variables, %d samples (%.1f Hz)\n",
		len(prof.Names), prof.Samples(), prof.SampleHz)
	_, _, missing := prof.SeriesFor(core.RollESVL())
	roll, err := core.AnalyzeRoll(prof, core.AnalysisOptions{})
	if err != nil {
		return err
	}
	fmt.Printf("log-visible roll variables: %d; memory-only intermediates not in the log: %v\n",
		len(roll.Names), missing)
	fmt.Printf("log-only roll TSVL: %v\n", roll.TSVL)
	return nil
}
