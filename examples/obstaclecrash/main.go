// Case Study II (controlled failure): train the reinforcement-learning
// agent to steer the vehicle into a forbidden zone by offsetting the
// navigator→stabilizer roll command, then replay the learned policy.
//
//	go run ./examples/obstaclecrash [-episodes 120]
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"github.com/ares-cps/ares/internal/core"
	"github.com/ares-cps/ares/internal/firmware"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "obstaclecrash:", err)
		os.Exit(1)
	}
}

func run() error {
	episodes := flag.Int("episodes", 120, "training episodes")
	flag.Parse()

	// The forbidden zone beside the mission's final loiter point.
	env, err := core.NewCrashEnv(core.EnvConfig{
		Variable:  "CMD.Roll", // a standing offset on the per-cycle command cell
		MaxAction: 0.6,
		Mission:   firmware.LineMission(40, 10),
		Seed:      9,
	}, core.ForbiddenZone(40, 10))
	if err != nil {
		return err
	}

	_, hi := env.ActionBounds()
	fmt.Printf("training %d episodes (standing roll-command offsets up to ±%.1f rad)…\n",
		*episodes, hi)
	res, err := core.TrainExploit(env, core.ExploitConfig{Episodes: *episodes, MaxSteps: 120, Seed: 2})
	if err != nil {
		return err
	}
	fmt.Printf("best return %.2f at episode %d\n\n", res.Train.BestReturn, res.Train.BestEpisode)

	fmt.Println("replaying the greedy policy:")
	replay := res.Replay
	for step, st := range replay.Steps {
		if step%10 == 0 {
			fmt.Printf("  t=%5.1fs offset=%+.2f rad dist-to-zone=%6.2f m\n",
				float64(step)*core.ActionInterval, st.Action, st.Distance)
		}
	}
	if math.IsInf(replay.Terminal, 1) {
		fmt.Println("  >>> contact with the forbidden zone")
	}
	fmt.Printf("closest approach: %.2f m", replay.Closest)
	if replay.Crashed {
		fmt.Printf(" — vehicle lost (%s)", replay.CrashReason)
	}
	fmt.Println()
	return nil
}
