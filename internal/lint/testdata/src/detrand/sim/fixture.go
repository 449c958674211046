// Package sim is an areslint fixture: nondeterminism sources inside
// multi-lane structure-of-arrays code (the import path ends in /sim, so
// detrand applies). Any such kernel must stay lane-for-lane
// bit-identical to a serial run, which wall clocks, global random
// state and map-ordered lane iteration all silently break.
package sim

import (
	"math/rand"
	"sort"
	"time"
)

// batch is a miniature SoA state: one slice per field, one index per lane.
type batch struct {
	pos   []float64
	vel   []float64
	seeds []int64
}

// Bad: stamping lanes from the wall clock diverges identical reruns.
func (b *batch) stampLanes() []int64 {
	out := make([]int64, len(b.pos))
	for k := range out {
		out[k] = time.Now().UnixNano()
	}
	return out
}

// Bad: per-lane noise from the unseeded global source ties lane k's
// stream to whatever every other goroutine consumed first.
func (b *batch) jitterLanes() {
	for k := range b.vel {
		b.vel[k] += rand.NormFloat64()
	}
}

// Good: each lane draws from its own seeded source, so lane k's stream
// is a pure function of its seed regardless of batch size or order.
func (b *batch) seededJitter() {
	for k := range b.vel {
		rng := rand.New(rand.NewSource(b.seeds[k]))
		b.vel[k] += rng.NormFloat64()
	}
}

// Bad: retiring lanes by ranging a map emits them in random order.
func retireOrder(retired map[int]bool) []int {
	var lanes []int
	for k := range retired {
		lanes = append(lanes, k)
	}
	return lanes
}

// Bad: reducing per-lane residuals in map order changes the float sum
// between runs.
func residualSum(residuals map[int]float64) float64 {
	total := 0.0
	for _, r := range residuals {
		total += r
	}
	return total
}

// Good: collect lanes, then sort before folding.
func sortedRetireOrder(retired map[int]bool) []int {
	lanes := make([]int, 0, len(retired))
	for k := range retired {
		lanes = append(lanes, k)
	}
	sort.Ints(lanes)
	return lanes
}
