package rl

import (
	"math"
	"testing"
)

// TestQLearnerKeyDistinctBins pins the packed-key contract the old string
// key ('a'+bin per dimension, one byte each) could not honour for large
// ObsBins: at ObsBins = 64 every bin of every dimension must map to its
// own key, with no wrapping or collisions.
func TestQLearnerKeyDistinctBins(t *testing.T) {
	q := NewQLearner([]float64{0, 0}, []float64{1, 1}, 3, -1, 1, 1)
	q.ObsBins = 64
	seen := make(map[uint64][2]int)
	for b0 := 0; b0 < 64; b0++ {
		for b1 := 0; b1 < 64; b1++ {
			// Observation landing exactly in (b0, b1): bin centers.
			obs := []float64{(float64(b0) + 0.5) / 64, (float64(b1) + 0.5) / 64}
			k := q.key(obs)
			if prev, dup := seen[k]; dup {
				t.Fatalf("key collision: bins (%d,%d) and %v share key %#x", b0, b1, prev, k)
			}
			seen[k] = [2]int{b0, b1}
		}
	}
	if len(seen) != 64*64 {
		t.Fatalf("distinct keys = %d, want %d", len(seen), 64*64)
	}
}

// TestQLearnerKeyNonPowerOfTwoBins: the bit width rounds up, so bins that
// are not a power of two still pack without collision.
func TestQLearnerKeyNonPowerOfTwoBins(t *testing.T) {
	q := NewQLearner([]float64{0}, []float64{1}, 2, -1, 1, 1)
	q.ObsBins = 27 // the first count the old byte key mangled into symbols
	seen := make(map[uint64]bool)
	for b := 0; b < 27; b++ {
		k := q.key([]float64{(float64(b) + 0.5) / 27})
		if seen[k] {
			t.Fatalf("bin %d collides", b)
		}
		seen[k] = true
	}
}

// TestQLearnerKeyCapacityPanics: an observation space that cannot pack
// into 64 bits must fail loudly instead of silently colliding.
func TestQLearnerKeyCapacityPanics(t *testing.T) {
	q := NewQLearner(nil, nil, 2, -1, 1, 1)
	q.ObsBins = 256           // 8 bits per dimension
	obs := make([]float64, 9) // 72 bits > 64
	defer func() {
		if recover() == nil {
			t.Fatal("oversized observation space did not panic")
		}
	}()
	q.key(obs)
}

// TestQLearnerStepAllocsZero gates the training hot path: once a state's
// action-value row exists, key packing, lookup, greedy selection and the
// Q-update allocate nothing per step.
func TestQLearnerStepAllocsZero(t *testing.T) {
	q := NewQLearner([]float64{-5}, []float64{5}, 5, -1, 1, 3)
	obs := []float64{0.7}
	next := []float64{0.8}
	q.values(q.key(obs)) // warm the visited rows
	q.values(q.key(next))

	if a := testing.AllocsPerRun(100, func() { q.Greedy(obs) }); a != 0 {
		t.Errorf("Greedy allocs/op = %v, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() { q.sampleIndex(obs) }); a != 0 {
		t.Errorf("sampleIndex allocs/op = %v, want 0", a)
	}
	// One full Q-update step on visited states.
	if a := testing.AllocsPerRun(100, func() {
		ai := q.sampleIndex(obs)
		cur := q.values(q.key(obs))
		nv := q.values(q.key(next))
		best := nv[0]
		for _, v := range nv {
			if v > best {
				best = v
			}
		}
		cur[ai] += q.Alpha * (0.5 + q.Gamma*best - cur[ai])
	}); a != 0 {
		t.Errorf("Q-update step allocs/op = %v, want 0", a)
	}
}

// staticEnv is an allocation-free environment: Step reuses one observation
// slice, so any allocation measured in Train below belongs to the learner.
type staticEnv struct {
	x   float64
	obs []float64
}

func (e *staticEnv) Reset() []float64 {
	e.x = 0
	e.obs[0] = 0
	return e.obs
}

func (e *staticEnv) Step(a float64) ([]float64, float64, bool) {
	e.x += a / 10
	if e.x > 1 {
		e.x = 1
	} else if e.x < -1 {
		e.x = -1
	}
	e.obs[0] = e.x
	return e.obs, math.Abs(e.x), false
}

func (e *staticEnv) ObservationSize() int             { return 1 }
func (e *staticEnv) ActionBounds() (float64, float64) { return -1, 1 }

// TestQLearnerTrainAllocsBounded: a whole training episode over visited
// states costs a small constant number of allocations (the result struct
// and its preallocated returns slice), independent of step count.
func TestQLearnerTrainAllocsBounded(t *testing.T) {
	env := &staticEnv{obs: make([]float64, 1)}
	q := NewQLearner([]float64{-1}, []float64{1}, 5, -1, 1, 4)
	q.Train(env, 5, 200) // visit the whole reachable table
	allocs := testing.AllocsPerRun(10, func() {
		q.Train(env, 1, 1000)
	})
	if allocs > 4 {
		t.Errorf("Train(1 episode × 1000 steps) allocs/run = %v, want ≤ 4 "+
			"(per-step path must be allocation-free)", allocs)
	}
}

// TestQLearnerTableGrowth: the packed key is a pure representation change
// — binning, rng draws and update order are untouched — so the table
// holds one row per reachable discretized state, no more.
func TestQLearnerTableGrowth(t *testing.T) {
	env := newDriftEnv()
	q := NewQLearner([]float64{-5}, []float64{5}, 5, -1, 1, 9)
	q.Train(env, 50, 50)
	if len(q.table) == 0 {
		t.Fatal("no states visited")
	}
	if len(q.table) > q.ObsBins {
		t.Fatalf("table size %d exceeds the %d reachable 1-D bins", len(q.table), q.ObsBins)
	}
}
