package experiments

import (
	"fmt"
	"io"
	"math"
	"math/rand"

	"github.com/ares-cps/ares/internal/core"
	"github.com/ares-cps/ares/internal/firmware"
	"github.com/ares-cps/ares/internal/sim"
)

// Fig11Scenario is one controlled-failure scenario: a policy evaluated
// against the forbidden-zone world.
type Fig11Scenario struct {
	Name string
	// DistTrace is the distance to the forbidden zone per 0.3 s step.
	DistTrace []float64
	// MinDist is the closest approach; Reached reports contact.
	MinDist float64
	Reached bool
	Crashed bool
	// HitFirst/HitLast are the goal-contact rates over the first and
	// last fifth of training episodes (returns include ±∞ terminal
	// rewards, so rates describe the curve better than means).
	HitFirst, HitLast float64
}

// Fig11Result reproduces Figure 11: the RL-based controlled failure
// steering the vehicle into a forbidden zone beside its loiter point.
type Fig11Result struct {
	Scenarios []Fig11Scenario
	Episodes  int
	Obstacle  sim.Obstacle
}

// Name implements Result.
func (*Fig11Result) Name() string { return "fig11" }

// hitRate counts the fraction of episodes that ended at the goal (+∞
// return).
func hitRate(returns []float64) float64 {
	if len(returns) == 0 {
		return 0
	}
	hits := 0
	for _, r := range returns {
		if math.IsInf(r, 1) {
			hits++
		}
	}
	return float64(hits) / float64(len(returns))
}

// fig11Size and fig11Alt define the Case Study II flight: a 40 m line at
// 10 m altitude.
const fig11Size, fig11Alt = 40, 10

func fig11Env(seed int64) (*core.CrashEnv, error) {
	return core.NewCrashEnv(core.EnvConfig{
		Variable:  "CMD.Roll",
		MaxAction: 0.6,
		Mission:   firmware.LineMission(fig11Size, fig11Alt),
		Seed:      seed,
	}, core.ForbiddenZone(fig11Size, fig11Alt))
}

// fig11Scenario summarizes a replay as a named scenario: contact is a +∞
// terminal reward (Equation 5), which also zeroes the closest approach.
func fig11Scenario(name string, r *core.Rollout) Fig11Scenario {
	sc := Fig11Scenario{
		Name:    name,
		MinDist: r.Closest,
		Reached: math.IsInf(r.Terminal, 1),
		Crashed: r.Crashed,
	}
	if sc.Reached {
		sc.MinDist = 0
	}
	for _, st := range r.Steps {
		sc.DistTrace = append(sc.DistTrace, st.Distance)
	}
	return sc
}

// RunFig11 trains the controlled-failure agent and evaluates it against
// baselines.
func RunFig11(s *Suite) (*Fig11Result, error) {
	episodes := s.episodes()
	steps := 120
	if s.Quick {
		steps = 40
	}
	res := &Fig11Result{Episodes: episodes, Obstacle: core.ForbiddenZone(fig11Size, fig11Alt)}

	env, err := fig11Env(s.Seed + 800) //areslint:ignore seedarith golden-pinned
	if err != nil {
		return nil, err
	}
	agent, err := core.TrainExploit(env, core.ExploitConfig{
		Episodes: episodes, MaxSteps: steps, Seed: s.Seed + 1, //areslint:ignore seedarith golden-pinned
	})
	if err != nil {
		return nil, err
	}
	fifth := episodes / 5
	if fifth < 1 {
		fifth = 1
	}
	returns := agent.Train.Returns
	trained := fig11Scenario("RL-trained", agent.Replay)
	trained.HitFirst = hitRate(returns[:fifth])
	trained.HitLast = hitRate(returns[len(returns)-fifth:])
	res.Scenarios = append(res.Scenarios, trained)
	lo, hi := env.ActionBounds()

	// Constant maximum push (open-loop).
	envC, err := fig11Env(s.Seed + 900) //areslint:ignore seedarith golden-pinned
	if err != nil {
		return nil, err
	}
	constant := core.Replay(envC, func([]float64) float64 { return hi }, steps)
	res.Scenarios = append(res.Scenarios, fig11Scenario("constant-push", constant))

	// Random policy.
	envR, err := fig11Env(s.Seed + 1000) //areslint:ignore seedarith golden-pinned
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(s.Seed + 11)) //areslint:ignore seedarith golden-pinned
	random := core.Replay(envR, func([]float64) float64 {
		return lo + rng.Float64()*(hi-lo)
	}, steps)
	res.Scenarios = append(res.Scenarios, fig11Scenario("random", random))

	// Benign (no manipulation).
	envB, err := fig11Env(s.Seed + 1100) //areslint:ignore seedarith golden-pinned
	if err != nil {
		return nil, err
	}
	benign := core.Replay(envB, func([]float64) float64 { return 0 }, steps)
	res.Scenarios = append(res.Scenarios, fig11Scenario("benign", benign))
	return res, nil
}

// WriteText implements Result.
func (r *Fig11Result) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintf(w,
		"Figure 11 — RL-based controlled failure (CMD.Roll offsets, %d episodes)\n",
		r.Episodes); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w,
		"forbidden zone: x∈[%.0f,%.0f] y∈[%.0f,%.0f]\n",
		r.Obstacle.Box.Min.X, r.Obstacle.Box.Max.X,
		r.Obstacle.Box.Min.Y, r.Obstacle.Box.Max.Y); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%-14s %10s %8s %8s %10s %10s\n",
		"scenario", "minDist(m)", "reached", "crashed", "hit@0", "hit@end"); err != nil {
		return err
	}
	for _, sc := range r.Scenarios {
		if _, err := fmt.Fprintf(w, "%-14s %10.2f %8v %8v %9.0f%% %9.0f%%\n",
			sc.Name, sc.MinDist, sc.Reached, sc.Crashed,
			sc.HitFirst*100, sc.HitLast*100); err != nil {
			return err
		}
	}
	return nil
}

// WriteCSV implements Result.
func (r *Fig11Result) WriteCSV(dir string) error {
	for _, sc := range r.Scenarios {
		rows := make([][]float64, 0, len(sc.DistTrace))
		for i, d := range sc.DistTrace {
			rows = append(rows, []float64{float64(i) * 0.3, d})
		}
		name := fmt.Sprintf("fig11_%s.csv", sc.Name)
		if err := writeCSVFile(dir, name, []string{"t", "distance"}, rows); err != nil {
			return err
		}
	}
	return nil
}
