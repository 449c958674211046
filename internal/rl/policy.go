package rl

import (
	"math"
	"math/rand"

	"github.com/ares-cps/ares/internal/mathx"
)

// GaussianPolicy is a squashed linear-Gaussian policy for a continuous
// scalar action: a latent z ~ N(w·φ(s), σ²) with φ(s) = [1, s₁ … s_d] is
// mapped through tanh onto the action bounds. Squashing (rather than
// clamping) keeps the policy gradient unbiased at the boundaries: a
// hard-clamped Gaussian near a bound produces one-sided (a − μ) residuals
// that systematically drag the mean off the optimum.
type GaussianPolicy struct {
	// W holds the latent mean weights (bias first).
	W []float64
	// Sigma is the latent exploration standard deviation.
	Sigma float64
	// SigmaDecay multiplies Sigma after each update (1 = constant).
	SigmaDecay float64
	// SigmaMin floors the exploration noise.
	SigmaMin float64
	// Lo and Hi bound the action.
	Lo, Hi float64

	rng *rand.Rand
}

// newGaussianPolicy creates a zero-initialized policy for obsSize-dim
// observations with the given action bounds.
func newGaussianPolicy(obsSize int, lo, hi float64, seed int64) *GaussianPolicy {
	return &GaussianPolicy{
		W:          make([]float64, obsSize+1),
		Sigma:      1,
		SigmaDecay: 0.999,
		SigmaMin:   0.05,
		Lo:         lo,
		Hi:         hi,
		rng:        rand.New(rand.NewSource(seed)),
	}
}

// latentMean computes the unsquashed policy mean z(s) = w·φ(s).
func (p *GaussianPolicy) latentMean(obs []float64) float64 {
	m := p.W[0]
	for i, o := range obs {
		m += p.W[i+1] * o
	}
	return m
}

// squash maps a latent value onto the action interval.
func (p *GaussianPolicy) squash(z float64) float64 {
	return p.Lo + (p.Hi-p.Lo)*(math.Tanh(z)+1)/2
}

// unsquash inverts squash; actions at the exact boundary are nudged inward
// so atanh stays finite.
func (p *GaussianPolicy) unsquash(a float64) float64 {
	u := (a-p.Lo)/(p.Hi-p.Lo)*2 - 1
	u = mathx.Clamp(u, -1+1e-9, 1-1e-9)
	return math.Atanh(u)
}

// Mean returns the deterministic (greedy) action for an observation.
func (p *GaussianPolicy) Mean(obs []float64) float64 {
	return p.squash(p.latentMean(obs))
}

// Sample draws an exploratory action.
func (p *GaussianPolicy) Sample(obs []float64) float64 {
	return p.squash(p.latentMean(obs) + p.rng.NormFloat64()*p.Sigma)
}

// Baseline is a linear state-value estimator used to reduce gradient
// variance.
type Baseline struct {
	W []float64
}

// newBaseline creates a zero value function for obsSize-dim observations.
func newBaseline(obsSize int) *Baseline {
	return &Baseline{W: make([]float64, obsSize+1)}
}

// Value predicts the return from an observation.
func (b *Baseline) Value(obs []float64) float64 {
	v := b.W[0]
	for i, o := range obs {
		v += b.W[i+1] * o
	}
	return v
}

// update nudges the value estimate toward target.
func (b *Baseline) update(obs []float64, target, lr float64) {
	err := target - b.Value(obs)
	b.W[0] += lr * err
	for i, o := range obs {
		b.W[i+1] += lr * err * o
	}
}

// Reinforce is the REINFORCE policy-gradient learner with baseline.
type Reinforce struct {
	Policy   *GaussianPolicy
	Baseline *Baseline
	// Gamma is the discount factor (0 < γ < 1 per the paper).
	Gamma float64
	// LR is the policy learning rate; BaselineLR the critic's.
	LR         float64
	BaselineLR float64
	// InfSurrogate replaces ±∞ terminal rewards during return
	// computation.
	InfSurrogate float64
	// MaxGradNorm clips per-episode gradient norm (0 disables).
	MaxGradNorm float64
}

// NewReinforce builds a learner with sensible defaults for the attack
// environments.
func NewReinforce(obsSize int, lo, hi float64, seed int64) *Reinforce {
	p := newGaussianPolicy(obsSize, lo, hi, seed)
	p.SigmaDecay = 0.995
	return &Reinforce{
		Policy:       p,
		Baseline:     newBaseline(obsSize),
		Gamma:        0.99,
		LR:           0.2,
		BaselineLR:   0.02,
		InfSurrogate: 100,
		MaxGradNorm:  10,
	}
}

// Update performs one REINFORCE update from a completed episode and decays
// the exploration noise.
func (r *Reinforce) Update(ep Episode) {
	if len(ep.Transitions) == 0 {
		return
	}
	// One-step TD advantages: adv_t = r_t + γ·V(s_{t+1}) − V(s_t). TD
	// advantages avoid the Monte-Carlo confound where reward-to-go
	// shrinks with episode progress and late-episode states get
	// systematically negative advantages no matter what the agent did.
	// They are then standardized across the episode so the step size is
	// scale-free.
	adv := make([]float64, len(ep.Transitions))
	for t, tr := range ep.Transitions {
		rew := tr.Reward
		if math.IsInf(rew, 1) {
			rew = r.InfSurrogate
		} else if math.IsInf(rew, -1) {
			rew = -r.InfSurrogate
		}
		target := rew
		if t+1 < len(ep.Transitions) {
			target += r.Gamma * r.Baseline.Value(ep.Transitions[t+1].Obs)
		}
		adv[t] = target - r.Baseline.Value(tr.Obs)
		r.Baseline.update(tr.Obs, target, r.BaselineLR)
	}
	var advMean, advVar float64
	for _, a := range adv {
		advMean += a
	}
	advMean /= float64(len(adv))
	for _, a := range adv {
		d := a - advMean
		advVar += d * d
	}
	advStd := math.Sqrt(advVar/float64(len(adv))) + 1e-8
	grad := make([]float64, len(r.Policy.W))
	sigma2 := r.Policy.Sigma * r.Policy.Sigma
	for t, tr := range ep.Transitions {
		a := (adv[t] - advMean) / advStd
		// ∇w log π = (z − μz)/σ² · φ(s), in the latent (pre-squash) space.
		z := r.Policy.unsquash(tr.Action)
		coeff := (z - r.Policy.latentMean(tr.Obs)) / sigma2 * a
		grad[0] += coeff
		for i, o := range tr.Obs {
			grad[i+1] += coeff * o
		}
	}
	// Normalize by episode length and clip.
	scale := 1 / float64(len(ep.Transitions))
	norm := 0.0
	for i := range grad {
		grad[i] *= scale
		norm += grad[i] * grad[i]
	}
	norm = math.Sqrt(norm)
	if r.MaxGradNorm > 0 && norm > r.MaxGradNorm {
		for i := range grad {
			grad[i] *= r.MaxGradNorm / norm
		}
	}
	for i := range r.Policy.W {
		r.Policy.W[i] += r.LR * grad[i]
	}
	// Decay exploration.
	r.Policy.Sigma = math.Max(r.Policy.SigmaMin, r.Policy.Sigma*r.Policy.SigmaDecay)
}

// TrainResult summarizes a training run.
type TrainResult struct {
	// Returns holds the per-episode returns in order.
	Returns []float64
	// BestReturn and BestEpisode identify the best rollout.
	BestReturn  float64
	BestEpisode int
	// Episodes is the number of episodes actually run.
	Episodes int
}

// MeanLastN averages the last n returns (learning-curve convergence
// metric).
func (t *TrainResult) MeanLastN(n int) float64 {
	if len(t.Returns) == 0 {
		return math.NaN()
	}
	if n > len(t.Returns) {
		n = len(t.Returns)
	}
	s := 0.0
	for _, r := range t.Returns[len(t.Returns)-n:] {
		s += r
	}
	return s / float64(n)
}

// Train runs episodes of REINFORCE against the environment. The paper's
// setup caps training at 5000 episodes of at most 300 steps; callers pass
// smaller budgets for unit tests.
func (r *Reinforce) Train(env Env, episodes, maxSteps int) *TrainResult {
	res := &TrainResult{BestReturn: math.Inf(-1), BestEpisode: -1}
	for e := 0; e < episodes; e++ {
		ep := rollout(env, r.Policy.Sample, maxSteps)
		r.Update(ep)
		res.Returns = append(res.Returns, ep.Return)
		if ep.Return > res.BestReturn {
			res.BestReturn = ep.Return
			res.BestEpisode = e
		}
		res.Episodes++
	}
	return res
}
