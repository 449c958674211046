package experiments

import (
	"fmt"
	"io"
	"math"
	"math/rand"

	"github.com/ares-cps/ares/internal/attack"
	"github.com/ares-cps/ares/internal/core"
	"github.com/ares-cps/ares/internal/firmware"
)

// Fig10Scenario is one uncontrolled-failure exploit scenario: a policy
// (trained or baseline) evaluated on the path-following mission.
type Fig10Scenario struct {
	Name string
	// DevTrace is the deviation distance at each 0.3 s action step.
	DevTrace []float64
	// Accumulated is the running sum of deviation (the Figure 10c view).
	Accumulated []float64
	// FinalDev and MaxDev summarize the rollout.
	FinalDev, MaxDev float64
	// Detected reports whether the in-loop detector fired during the
	// evaluation rollout (only meaningful for the detector scenario).
	Detected bool
	// LearnFirst and LearnLast bracket the training curve (mean return
	// over the first and last fifth of episodes); zero for baselines.
	LearnFirst, LearnLast float64
	Crashed               bool
}

// Fig10Result reproduces Figure 10: the RL-based uncontrolled failure,
// deviating the vehicle from the A→B leg by manipulating PIDR.INTEG.
type Fig10Result struct {
	Scenarios []Fig10Scenario
	Episodes  int
}

// Name implements Result.
func (*Fig10Result) Name() string { return "fig10" }

// fig10Env builds the Case Study I environment.
func fig10Env(seed int64) (*core.DeviationEnv, error) {
	return core.NewDeviationEnv(core.EnvConfig{
		Variable: "PIDR.INTEG",
		Mission:  firmware.LineMission(60, 10),
		Seed:     seed,
	})
}

// fig10Scenario summarizes a replay as a named scenario.
func fig10Scenario(name string, r *core.Rollout) Fig10Scenario {
	sc := Fig10Scenario{
		Name:     name,
		FinalDev: r.Final,
		MaxDev:   r.Peak,
		Detected: r.Detected,
		Crashed:  r.Crashed,
	}
	acc := 0.0
	for _, st := range r.Steps {
		acc += st.Distance
		sc.DevTrace = append(sc.DevTrace, st.Distance)
		sc.Accumulated = append(sc.Accumulated, acc)
	}
	return sc
}

// RunFig10 trains the uncontrolled-failure agent and evaluates it against
// baselines.
func RunFig10(s *Suite) (*Fig10Result, error) {
	episodes := s.episodes()
	steps := 100
	if s.Quick {
		steps = 30
	}
	res := &Fig10Result{Episodes: episodes}
	fifth := episodes / 5
	if fifth < 1 {
		fifth = 1
	}

	// Trained agent.
	env, err := fig10Env(s.Seed + 500) //areslint:ignore seedarith golden-pinned
	if err != nil {
		return nil, err
	}
	agent, err := core.TrainExploit(env, core.ExploitConfig{Episodes: episodes, MaxSteps: steps, Seed: s.Seed})
	if err != nil {
		return nil, err
	}
	trained := fig10Scenario("RL-trained", agent.Replay)
	trained.LearnFirst = meanOf(agent.Train.Returns[:fifth])
	trained.LearnLast = agent.Train.MeanLastN(fifth)
	res.Scenarios = append(res.Scenarios, trained)

	// Trained with the CI detector in the reward loop (Section V-C): the
	// agent explores "areas of the state space which do not trigger an
	// alarm, but still lead the RAV toward the desired attacker goal".
	ci, err := s.CI()
	if err != nil {
		return nil, err
	}
	// The detector-constrained agent uses the command-offset lever: the
	// integrator pump cannot deviate the vehicle without tripping the
	// invariant (Fig. 6), so stealthy deviation requires the cell whose
	// manipulation the monitor implicitly trusts (see EXPERIMENTS.md).
	envD, err := core.NewDeviationEnv(core.EnvConfig{
		Variable:  "CMD.Roll",
		MaxAction: 0.6,
		Mission:   firmware.LineMission(60, 10),
		Seed:      s.Seed + 550, //areslint:ignore seedarith golden-pinned
		Monitors:  attack.Monitors{CI: ci},
	})
	if err != nil {
		return nil, err
	}
	agentD, err := core.TrainExploit(envD, core.ExploitConfig{
		Episodes: episodes, MaxSteps: steps, Seed: s.Seed + 1, //areslint:ignore seedarith golden-pinned
	})
	if err != nil {
		return nil, err
	}
	withDet := fig10Scenario("RL+detector", agentD.Replay)
	returnsD := agentD.Train.Returns
	withDet.LearnFirst = clippedMean(returnsD[:fifth])
	withDet.LearnLast = clippedMean(returnsD[len(returnsD)-fifth:])
	res.Scenarios = append(res.Scenarios, withDet)

	// Random-policy baseline.
	envR, err := fig10Env(s.Seed + 600) //areslint:ignore seedarith golden-pinned
	if err != nil {
		return nil, err
	}
	lo, hi := envR.ActionBounds()
	rng := rand.New(rand.NewSource(s.Seed + 9)) //areslint:ignore seedarith golden-pinned
	random := core.Replay(envR, func([]float64) float64 {
		return lo + rng.Float64()*(hi-lo)
	}, steps)
	res.Scenarios = append(res.Scenarios, fig10Scenario("random", random))

	// Benign baseline (no manipulation).
	envB, err := fig10Env(s.Seed + 700) //areslint:ignore seedarith golden-pinned
	if err != nil {
		return nil, err
	}
	benign := core.Replay(envB, func([]float64) float64 { return 0 }, steps)
	res.Scenarios = append(res.Scenarios, fig10Scenario("benign", benign))
	return res, nil
}

// WriteText implements Result.
func (r *Fig10Result) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintf(w,
		"Figure 10 — RL-based uncontrolled failure (PIDR.INTEG, %d training episodes)\n",
		r.Episodes); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%-12s %10s %10s %12s %10s %10s %8s %9s\n",
		"scenario", "maxDev(m)", "finalDev", "accumDev", "learn@0", "learn@end", "crashed", "detected"); err != nil {
		return err
	}
	for _, sc := range r.Scenarios {
		acc := 0.0
		if n := len(sc.Accumulated); n > 0 {
			acc = sc.Accumulated[n-1]
		}
		if _, err := fmt.Fprintf(w, "%-12s %10.2f %10.2f %12.1f %10.2f %10.2f %8v %9v\n",
			sc.Name, sc.MaxDev, sc.FinalDev, acc,
			sc.LearnFirst, sc.LearnLast, sc.Crashed, sc.Detected); err != nil {
			return err
		}
	}
	return nil
}

// WriteCSV implements Result.
func (r *Fig10Result) WriteCSV(dir string) error {
	for _, sc := range r.Scenarios {
		rows := make([][]float64, 0, len(sc.DevTrace))
		for i := range sc.DevTrace {
			rows = append(rows, []float64{
				float64(i) * 0.3, sc.DevTrace[i], sc.Accumulated[i],
			})
		}
		name := fmt.Sprintf("fig10_%s.csv", sc.Name)
		if err := writeCSVFile(dir, name,
			[]string{"t", "deviation", "accumulated"}, rows); err != nil {
			return err
		}
	}
	return nil
}

// clippedMean averages returns with ±∞ terminal rewards saturated at ±100
// (the learner's own surrogate), keeping learning-curve summaries finite.
func clippedMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		switch {
		case math.IsInf(x, 1):
			x = 100
		case math.IsInf(x, -1):
			x = -100
		}
		s += x
	}
	return s / float64(len(xs))
}

func meanOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
