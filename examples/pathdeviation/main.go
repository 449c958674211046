// Case Study I (uncontrolled failure): train the reinforcement-learning
// agent to deviate the vehicle from its mission path by manipulating the
// roll-rate PID integrator inside the compromised stabilizer memory region,
// then replay the learned policy and report the deviation profile.
//
//	go run ./examples/pathdeviation [-episodes 120]
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/ares-cps/ares/internal/core"
	"github.com/ares-cps/ares/internal/firmware"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "pathdeviation:", err)
		os.Exit(1)
	}
}

func run() error {
	episodes := flag.Int("episodes", 120, "training episodes")
	flag.Parse()

	env, err := core.NewDeviationEnv(core.EnvConfig{
		Variable: "PIDR.INTEG", // from the roll TSVL
		Mission:  firmware.LineMission(60, 10),
		Seed:     7,
	})
	if err != nil {
		return err
	}

	_, hi := env.ActionBounds()
	fmt.Printf("training %d episodes (action: ±%.2f on PIDR.INTEG every 0.3 s)…\n",
		*episodes, hi)
	res, err := core.TrainExploit(env, core.ExploitConfig{Episodes: *episodes, MaxSteps: 100, Seed: 1})
	if err != nil {
		return err
	}

	train := res.Train
	fifth := *episodes / 5
	if fifth < 1 {
		fifth = 1
	}
	early, late := mean(train.Returns[:fifth]), train.MeanLastN(fifth)
	fmt.Printf("learning curve: first-fifth mean return %.2f → last-fifth %.2f (best %.2f @ episode %d)\n",
		early, late, train.BestReturn, train.BestEpisode)

	fmt.Println("\nreplaying the greedy policy:")
	replay := res.Replay
	for step, st := range replay.Steps {
		if step%10 == 0 {
			fmt.Printf("  t=%4.1fs action=%+.3f deviation=%6.2f m\n",
				float64(step)*core.ActionInterval, st.Action, st.Distance)
		}
	}
	fmt.Printf("final deviation: %.2f m", replay.Final)
	if replay.Crashed {
		fmt.Printf(" (vehicle crashed: %s)", replay.CrashReason)
	}
	fmt.Println()
	return nil
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
