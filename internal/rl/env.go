// Package rl implements the reinforcement-learning machinery ARES uses to
// generate adversarial state-variable values: a Gym-style environment
// interface, a REINFORCE policy-gradient learner with a Gaussian policy
// over the continuous manipulation amount (the paper opts for "a policy
// gradient method over the conventional Q-learning algorithm ... to handle
// the continuous action space"), a tabular Q-learning comparator for the
// ablation bench, and the Equation 4/5 reward functions.
package rl

// Env is the episodic environment interface (modeled on OpenAI Gym). The
// ARES attack environments wrap the simulated firmware: Reset lands,
// disarms and re-arms the vehicle; Step injects one state-variable
// manipulation and advances the simulation by the action interval (0.3 s in
// the paper's setup).
type Env interface {
	// Reset starts a new episode and returns the initial observation.
	Reset() []float64
	// Step applies an action and returns the next observation, the
	// reward, and whether the episode has terminated.
	Step(action float64) (obs []float64, reward float64, done bool)
	// ObservationSize returns the dimension of observations.
	ObservationSize() int
	// ActionBounds returns the valid action interval [lo, hi].
	ActionBounds() (lo, hi float64)
}

// Transition is one (s, a, r) step of an episode.
type Transition struct {
	Obs    []float64
	Action float64
	Reward float64
}

// Episode is one rollout.
type Episode struct {
	Transitions []Transition
	// Return is the undiscounted reward sum.
	Return float64
	// Steps is the episode length.
	Steps int
}

// rollout runs a single episode of at most maxSteps using the given action
// chooser.
func rollout(env Env, choose func(obs []float64) float64, maxSteps int) Episode {
	var ep Episode
	obs := env.Reset()
	for step := 0; step < maxSteps; step++ {
		action := choose(obs)
		next, reward, done := env.Step(action)
		ep.Transitions = append(ep.Transitions, Transition{
			Obs:    append([]float64{}, obs...),
			Action: action,
			Reward: reward,
		})
		ep.Return += reward
		ep.Steps++
		obs = next
		if done {
			break
		}
	}
	return ep
}
