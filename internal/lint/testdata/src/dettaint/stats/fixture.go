// Package stats is an areslint fixture: nondeterminism sources inside an
// analysis-scope package (the import path ends in /stats, so dettaint's
// scope rule applies).
package stats

import (
	"math/rand"
	"sort"
	"time"
)

// Bad: wall clock in an analysis path.
func wallClockSeed() int64 {
	return time.Now().UnixNano()
}

// Bad: unseeded global source.
func globalRand() int {
	return rand.Intn(10)
}

// Good: seeded local source.
func seededRand(seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	return rng.Float64()
}

// Bad: output order follows random map order.
func orderedFromMap(m map[string]float64) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

// Bad: float summation order follows random map order.
func sumFromMap(m map[string]float64) float64 {
	total := 0.0
	for _, v := range m {
		total += v
	}
	return total
}

// Good: collect keys, then sort before use.
func sortedFromMap(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Suppressed: a reasoned marker on the line above silences the finding.
func suppressedClock() int64 {
	//areslint:ignore dettaint fixture demonstrating suppression
	return time.Now().UnixNano()
}

// Bad, once: a seeded function reading the wall clock breaks the scope
// rule and seeded purity at the same call, which is one finding.
func seededClock(seed int64) (int64, int64) {
	return seed, time.Now().UnixNano()
}
