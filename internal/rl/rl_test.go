package rl

import (
	"math"
	"testing"
)

// driftEnv is a minimal continuous-control task: state x starts at 0, the
// action a ∈ [−1, 1] shifts it by a/10, and the Equation 4 reward pays for
// increasing |x| (distance from the "path" at the origin). The optimal
// policy pushes consistently in one direction.
type driftEnv struct {
	x      float64
	reward *UncontrolledReward
}

func newDriftEnv() *driftEnv { return &driftEnv{reward: NewUncontrolledReward()} }

func (e *driftEnv) Reset() []float64 {
	e.x = 0
	e.reward.Reset()
	e.reward.Step(0, false)
	return []float64{0}
}

func (e *driftEnv) Step(a float64) ([]float64, float64, bool) {
	e.x += a / 10
	r, done := e.reward.Step(math.Abs(e.x), false)
	return []float64{e.x}, r, done
}

func (e *driftEnv) ObservationSize() int             { return 1 }
func (e *driftEnv) ActionBounds() (float64, float64) { return -1, 1 }

// goalEnv rewards approaching a goal at x = 5 (Equation 5) and terminates
// on contact.
type goalEnv struct {
	x      float64
	reward *ControlledReward
}

func newGoalEnv() *goalEnv {
	r := NewControlledReward()
	// Contact radius must exceed the per-step travel (0.1) or the agent
	// could step across the goal without touching it — the same reason
	// the attack environments use the vehicle's physical radius.
	r.Epsilon = 0.15
	return &goalEnv{reward: r}
}

func (e *goalEnv) Reset() []float64 {
	e.x = 0
	e.reward.Reset()
	e.reward.Step(5, false)
	return []float64{0}
}

func (e *goalEnv) Step(a float64) ([]float64, float64, bool) {
	e.x += a / 10
	dist := math.Abs(5 - e.x)
	r, done := e.reward.Step(dist, false)
	return []float64{e.x}, r, done
}

func (e *goalEnv) ObservationSize() int             { return 1 }
func (e *goalEnv) ActionBounds() (float64, float64) { return -1, 1 }

func TestReinforceLearnsDrift(t *testing.T) {
	env := newDriftEnv()
	agent := NewReinforce(env.ObservationSize(), -1, 1, 7)
	res := agent.Train(env, 300, 50)
	if res.Episodes != 300 {
		t.Fatalf("episodes = %d", res.Episodes)
	}
	// Learning curve: the last 50 episodes far outperform the first 50.
	early := mean(res.Returns[:50])
	late := res.MeanLastN(50)
	if late <= early {
		t.Errorf("no learning: early %v, late %v", early, late)
	}
	// Near-optimal: max |x| growth is 0.1/step × 50 steps = 5.
	if late < 3 {
		t.Errorf("late mean return = %v, want ≥ 3 (max 5)", late)
	}
}

func TestReinforceLearnsGoal(t *testing.T) {
	env := newGoalEnv()
	agent := NewReinforce(env.ObservationSize(), -1, 1, 8)
	res := agent.Train(env, 400, 100)
	// The trained greedy policy must reach the goal.
	ep := Rollout(env, agent.Policy.Mean, 100)
	last := ep.Transitions[len(ep.Transitions)-1]
	if !math.IsInf(last.Reward, 1) {
		t.Errorf("greedy policy did not reach goal; final x=%v, best return %v",
			env.x, res.BestReturn)
	}
}

func TestQLearnerLearnsDrift(t *testing.T) {
	env := newDriftEnv()
	q := NewQLearner([]float64{-5}, []float64{5}, 5, -1, 1, 9)
	res := q.Train(env, 500, 50)
	late := res.MeanLastN(50)
	if late < 2 {
		t.Errorf("Q-learning late mean return = %v, want ≥ 2", late)
	}
	if q.TableSize() == 0 {
		t.Error("empty Q table after training")
	}
	// A greedy rollout escapes the origin (the task is symmetric, so
	// only the achieved distance matters, not the direction).
	ep := Rollout(env, q.Greedy, 50)
	if ep.Return < 2 {
		t.Errorf("greedy rollout return = %v, want ≥ 2", ep.Return)
	}
}

func TestGaussianPolicyBoundsAndDeterminism(t *testing.T) {
	p := NewGaussianPolicy(1, -2, 3, 1)
	p.W = []float64{10, 0} // latent mean far beyond the bound
	if got := p.Mean([]float64{0}); got < -2 || got > 3 {
		t.Errorf("mean out of bounds: %v", got)
	}
	if got := p.Mean([]float64{0}); got < 2.99 {
		t.Errorf("saturated mean = %v, want ≈3", got)
	}
	// unsquash inverts squash across the interior of the interval.
	for _, a := range []float64{-1.9, 0, 1.5, 2.9} {
		back := p.squash(p.unsquash(a))
		if math.Abs(back-a) > 1e-9 {
			t.Errorf("squash/unsquash(%v) = %v", a, back)
		}
	}
	for i := 0; i < 1000; i++ {
		a := p.Sample([]float64{0.5})
		if a < -2 || a > 3 {
			t.Fatalf("sample %v out of bounds", a)
		}
	}
	// Same seed, same samples.
	a := NewGaussianPolicy(1, -1, 1, 42)
	b := NewGaussianPolicy(1, -1, 1, 42)
	for i := 0; i < 10; i++ {
		if a.Sample([]float64{0}) != b.Sample([]float64{0}) {
			t.Fatal("same-seed policies diverged")
		}
	}
}

func TestReinforceSigmaDecays(t *testing.T) {
	env := newDriftEnv()
	agent := NewReinforce(1, -1, 1, 10)
	before := agent.Policy.Sigma
	agent.Train(env, 100, 10)
	if agent.Policy.Sigma >= before {
		t.Errorf("sigma did not decay: %v -> %v", before, agent.Policy.Sigma)
	}
	if agent.Policy.Sigma < agent.Policy.SigmaMin {
		t.Errorf("sigma below floor: %v", agent.Policy.Sigma)
	}
}

func TestReinforceEmptyEpisodeNoOp(t *testing.T) {
	agent := NewReinforce(1, -1, 1, 11)
	w := append([]float64{}, agent.Policy.W...)
	agent.Update(Episode{})
	for i := range w {
		if agent.Policy.W[i] != w[i] {
			t.Fatal("empty episode changed weights")
		}
	}
}

func TestUncontrolledRewardShape(t *testing.T) {
	r := NewUncontrolledReward()
	r.Reset()
	if rew, done := r.Step(1.0, false); rew != 0 || done {
		t.Errorf("first step: %v, %v", rew, done)
	}
	// Moving away from the path: positive.
	if rew, _ := r.Step(1.5, false); rew != 0.5 {
		t.Errorf("away reward = %v, want +0.5", rew)
	}
	// Moving back: negative.
	if rew, _ := r.Step(1.2, false); math.Abs(rew-(-0.3)) > 1e-12 {
		t.Errorf("toward reward = %v, want -0.3", rew)
	}
	// Detection: −∞ and done.
	rew, done := r.Step(2, true)
	if !math.IsInf(rew, -1) || !done {
		t.Errorf("detection: %v, %v", rew, done)
	}
	// Inside epsilon: negative even if "increasing".
	r2 := NewUncontrolledReward()
	r2.Reset()
	r2.Step(0.001, false)
	if rew, _ := r2.Step(0.005, false); rew >= 0 {
		t.Errorf("within-epsilon reward = %v, want negative", rew)
	}
}

func TestControlledRewardShape(t *testing.T) {
	c := NewControlledReward()
	c.Reset()
	c.Step(10, false)
	// Approaching: positive.
	if rew, done := c.Step(8, false); rew != 2 || done {
		t.Errorf("approach: %v, %v", rew, done)
	}
	// Retreating: negative.
	if rew, _ := c.Step(9, false); rew != -1 {
		t.Errorf("retreat reward = %v", rew)
	}
	// Contact: +∞ and done.
	rew, done := c.Step(0.005, false)
	if !math.IsInf(rew, 1) || !done {
		t.Errorf("contact: %v, %v", rew, done)
	}
	// Detection dominates.
	c2 := NewControlledReward()
	c2.Reset()
	rew, done = c2.Step(0.001, true)
	if !math.IsInf(rew, -1) || !done {
		t.Errorf("detection: %v, %v", rew, done)
	}
}

func TestRolloutRespectsMaxSteps(t *testing.T) {
	env := newDriftEnv()
	ep := Rollout(env, func([]float64) float64 { return 1 }, 7)
	if ep.Steps != 7 || len(ep.Transitions) != 7 {
		t.Errorf("steps = %d", ep.Steps)
	}
}

func TestTrainResultMeanLastN(t *testing.T) {
	res := &TrainResult{Returns: []float64{1, 2, 3, 4}}
	if got := res.MeanLastN(2); got != 3.5 {
		t.Errorf("MeanLastN(2) = %v", got)
	}
	if got := res.MeanLastN(100); got != 2.5 {
		t.Errorf("MeanLastN(100) = %v", got)
	}
	empty := &TrainResult{}
	if !math.IsNaN(empty.MeanLastN(5)) {
		t.Error("empty MeanLastN not NaN")
	}
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
