package rl

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"

	"github.com/ares-cps/ares/internal/mathx"
)

// QLearner is a tabular Q-learning agent over a discretized observation and
// action space. The paper rejects Q-learning for the continuous action
// space of RAV exploits; this implementation exists as the comparison
// baseline for that design-choice ablation.
type QLearner struct {
	// ObsBins discretizes each observation dimension into this many bins.
	ObsBins int
	// ObsLo and ObsHi bound each observation dimension for binning.
	ObsLo, ObsHi []float64
	// Actions holds the discrete action levels.
	Actions []float64
	// Alpha is the learning rate, Gamma the discount, Epsilon the
	// exploration rate (decayed per episode).
	Alpha, Gamma  float64
	Epsilon       float64
	EpsilonDecay  float64
	EpsilonMin    float64
	InfSurrogate  float64
	table         map[uint64][]float64
	rng           *rand.Rand
	episodesSoFar int
}

// NewQLearner builds a Q-learning agent with nActions evenly spaced action
// levels over [lo, hi].
func NewQLearner(obsLo, obsHi []float64, nActions int, lo, hi float64, seed int64) *QLearner {
	if nActions < 2 {
		nActions = 2
	}
	actions := make([]float64, nActions)
	for i := range actions {
		actions[i] = lo + (hi-lo)*float64(i)/float64(nActions-1)
	}
	return &QLearner{
		ObsBins:      8,
		ObsLo:        append([]float64{}, obsLo...),
		ObsHi:        append([]float64{}, obsHi...),
		Actions:      actions,
		Alpha:        0.2,
		Gamma:        0.99,
		Epsilon:      0.5,
		EpsilonDecay: 0.995,
		EpsilonMin:   0.02,
		InfSurrogate: 100,
		table:        make(map[uint64][]float64),
		rng:          rand.New(rand.NewSource(seed)),
	}
}

// key discretizes an observation into a packed table key: each dimension's
// bin occupies its own bit field of ceil(log2(ObsBins)) bits, so distinct
// bin vectors always map to distinct keys for any ObsBins — the earlier
// one-byte-per-dimension string key silently wrapped once 'a'+bin
// overflowed a byte — and the key is a plain integer, so the hot training
// loop allocates nothing per step. Panics when the observation cannot fit
// in 64 bits (dimensions × bits-per-bin > 64): a silently colliding table
// would corrupt learning, which is strictly worse than failing loudly.
func (q *QLearner) key(obs []float64) uint64 {
	nb := q.ObsBins
	if nb < 1 {
		nb = 1
	}
	width := uint(bits.Len(uint(nb - 1)))
	if uint(len(obs))*width > 64 {
		panic(fmt.Sprintf("rl: observation space too large to pack: %d dims × %d bins needs %d bits",
			len(obs), nb, uint(len(obs))*width))
	}
	var k uint64
	for i, o := range obs {
		lo, hi := -1.0, 1.0
		if i < len(q.ObsLo) {
			lo = q.ObsLo[i]
		}
		if i < len(q.ObsHi) {
			hi = q.ObsHi[i]
		}
		frac := 0.0
		if hi > lo {
			frac = (mathx.Clamp(o, lo, hi) - lo) / (hi - lo)
		}
		bin := int(frac * float64(nb))
		if bin >= nb {
			bin = nb - 1
		}
		k = k<<width | uint64(bin)
	}
	return k
}

func (q *QLearner) values(key uint64) []float64 {
	v, ok := q.table[key]
	if !ok {
		v = make([]float64, len(q.Actions))
		q.table[key] = v
	}
	return v
}

// Greedy returns the current best action for an observation.
func (q *QLearner) Greedy(obs []float64) float64 {
	vals := q.values(q.key(obs))
	best := 0
	for i, v := range vals {
		if v > vals[best] {
			best = i
		}
	}
	return q.Actions[best]
}

func (q *QLearner) sampleIndex(obs []float64) int {
	if q.rng.Float64() < q.Epsilon {
		return q.rng.Intn(len(q.Actions))
	}
	vals := q.values(q.key(obs))
	best := 0
	for i, v := range vals {
		if v > vals[best] {
			best = i
		}
	}
	return best
}

// Train runs episodes of ε-greedy Q-learning against the environment.
// The per-step path (key packing, table lookup, value update) allocates
// nothing once a state's action-value row exists; an allocation-regression
// test pins that contract.
func (q *QLearner) Train(env Env, episodes, maxSteps int) *TrainResult {
	res := &TrainResult{BestReturn: math.Inf(-1), BestEpisode: -1}
	if episodes > 0 {
		res.Returns = make([]float64, 0, episodes)
	}
	for e := 0; e < episodes; e++ {
		obs := env.Reset()
		ret := 0.0
		for step := 0; step < maxSteps; step++ {
			ai := q.sampleIndex(obs)
			next, reward, done := env.Step(q.Actions[ai])
			ret += reward
			r := reward
			if math.IsInf(r, 1) {
				r = q.InfSurrogate
			} else if math.IsInf(r, -1) {
				r = -q.InfSurrogate
			}
			cur := q.values(q.key(obs))
			target := r
			if !done {
				nv := q.values(q.key(next))
				best := nv[0]
				for _, v := range nv {
					if v > best {
						best = v
					}
				}
				target += q.Gamma * best
			}
			cur[ai] += q.Alpha * (target - cur[ai])
			obs = next
			if done {
				break
			}
		}
		q.Epsilon = math.Max(q.EpsilonMin, q.Epsilon*q.EpsilonDecay)
		res.Returns = append(res.Returns, ret)
		if ret > res.BestReturn {
			res.BestReturn = ret
			res.BestEpisode = e
		}
		res.Episodes++
		q.episodesSoFar++
	}
	return res
}
