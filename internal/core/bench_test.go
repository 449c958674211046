package core

import (
	"fmt"
	"sync"
	"testing"

	"github.com/ares-cps/ares/internal/firmware"
)

// benchProfile collects one small benign profile shared by the analysis
// benchmarks, so per-iteration cost is the analysis alone.
var benchProfile = sync.OnceValues(func() (*Profile, error) {
	return CollectProfile(ProfileConfig{
		Mission:  firmware.SquareMission(25, 10),
		Missions: 2,
		Seed:     100,
	})
})

// BenchmarkCollectProfile measures the profiling stage itself: flying the
// benign mission on the 400 Hz firmware stack while tracing every
// registered state variable at 16 Hz. The five-mission cases are the
// pipeline's default profile, flown one at a time (w1) and on a pool the
// width of the process budget (wmax).
func BenchmarkCollectProfile(b *testing.B) {
	for _, c := range []struct {
		name               string
		missions, parallel int
	}{
		{"missions=1", 1, 1},
		{"missions=5/w1", 5, 1},
		{"missions=5/wmax", 5, 0},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				prof, err := CollectProfile(ProfileConfig{
					Mission:     firmware.SquareMission(25, 10),
					Missions:    c.missions,
					Seed:        100,
					Parallelism: c.parallel,
				})
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(float64(prof.Samples()), "samples")
					b.ReportMetric(float64(len(prof.Names)), "variables")
				}
			}
		})
	}
}

// BenchmarkAnalyzeAllGroups measures the full Table II analysis (three
// controller groups through Algorithm 1) at several worker budgets.
func BenchmarkAnalyzeAllGroups(b *testing.B) {
	prof, err := benchProfile()
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("w%d", workers), func(b *testing.B) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				groups, err := AnalyzeAllGroups(prof, AnalysisOptions{Parallelism: workers})
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					total := 0
					for _, g := range groups {
						total += g.TSVLCount
					}
					b.ReportMetric(float64(total), "TSVL-vars")
				}
			}
		})
	}
}

// BenchmarkAnalyzeRoll measures the Figure 3/5 roll-control analysis.
func BenchmarkAnalyzeRoll(b *testing.B) {
	prof, err := benchProfile()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		roll, err := AnalyzeRoll(prof, AnalysisOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(len(roll.Names)), "kept-vars")
		}
	}
}
