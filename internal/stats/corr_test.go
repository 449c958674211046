package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// pearsonMatrixNaive is the seed implementation of the correlation
// matrix: the textbook per-pair Pearson, recomputing means and variances
// for every pair. It stays here as the oracle the single-pass kernel is
// checked (and benchmarked) against.
func pearsonMatrixNaive(series [][]float64) [][]float64 {
	n := len(series)
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
		m[i][i] = 1
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			r := pearson(series[i], series[j])
			m[i][j], m[j][i] = r, r
		}
	}
	return m
}

// TestPropertyCorrelationKernelAgreesWithPearson: for random series, the
// single-pass standardize-then-dot kernel is symmetric, has a unit
// diagonal, and agrees with the naive per-pair Pearson within 1e-12 — at
// worker counts 1 and 8 (which must themselves be bit-identical).
func TestPropertyCorrelationKernelAgreesWithPearson(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		k := 2 + r.Intn(10)
		n := 16 + r.Intn(200)
		series := make([][]float64, k)
		base := gaussianSeries(r, n)
		for i := range series {
			s := gaussianSeries(r, n)
			for j := range s {
				s[j] += base[j] * r.Float64() * 2
			}
			series[i] = s
		}
		// One constant series exercises the r = 0 contract.
		if k > 2 && r.Intn(2) == 0 {
			c := make([]float64, n)
			for j := range c {
				c[j] = 3.25
			}
			series[k-1] = c
		}

		want := pearsonMatrixNaive(series)
		seq := CorrelationMatrixWorkers(series, 1)
		par8 := CorrelationMatrixWorkers(series, 8)
		for i := 0; i < k; i++ {
			if seq[i][i] != 1 || par8[i][i] != 1 {
				return false
			}
			for j := 0; j < k; j++ {
				if seq[i][j] != seq[j][i] {
					return false
				}
				// Parallel fan-out must be bit-identical to one worker.
				if seq[i][j] != par8[i][j] {
					return false
				}
				if math.Abs(seq[i][j]-want[i][j]) > 1e-12 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestCorrelationKernelEdgeCases pins the Pearson edge-case contract the
// kernel must reproduce: NaN for short or mismatched series, 0 against a
// constant series, NaN propagation from NaN samples.
func TestCorrelationKernelEdgeCases(t *testing.T) {
	lin := []float64{1, 2, 3, 4, 5}
	flat := []float64{7, 7, 7, 7, 7}
	withNaN := []float64{1, math.NaN(), 3, 4, 5}
	short := []float64{1}

	for _, workers := range []int{1, 4} {
		m := CorrelationMatrixWorkers([][]float64{lin, flat, withNaN}, workers)
		if m[0][1] != 0 || m[1][0] != 0 {
			t.Errorf("workers=%d: constant pairing r = %v, want 0", workers, m[0][1])
		}
		// Constant beats NaN, as in Pearson's sxx==0||syy==0 check.
		if m[1][2] != 0 {
			t.Errorf("workers=%d: constant×NaN r = %v, want 0", workers, m[1][2])
		}
		if !math.IsNaN(m[0][2]) {
			t.Errorf("workers=%d: NaN series r = %v, want NaN", workers, m[0][2])
		}
		if m[0][0] != 1 || m[1][1] != 1 || m[2][2] != 1 {
			t.Errorf("workers=%d: diagonal not 1", workers)
		}

		m = CorrelationMatrixWorkers([][]float64{lin, short}, workers)
		if !math.IsNaN(m[0][1]) {
			t.Errorf("workers=%d: short series r = %v, want NaN", workers, m[0][1])
		}

		m = CorrelationMatrixWorkers([][]float64{lin, lin[:4]}, workers)
		if !math.IsNaN(m[0][1]) {
			t.Errorf("workers=%d: mismatched lengths r = %v, want NaN", workers, m[0][1])
		}

		neg := []float64{5, 4, 3, 2, 1}
		m = CorrelationMatrixWorkers([][]float64{lin, neg}, workers)
		if math.Abs(m[0][1]+1) > 1e-12 {
			t.Errorf("workers=%d: anti-correlated r = %v, want -1", workers, m[0][1])
		}
	}

	// Degenerate matrix sizes.
	if m := CorrelationMatrixWorkers(nil, 4); len(m) != 0 {
		t.Errorf("nil input gave %d rows", len(m))
	}
	if m := CorrelationMatrixWorkers([][]float64{lin}, 4); m[0][0] != 1 {
		t.Error("single series diagonal not 1")
	}
}

// TestPruneStateVarsWorkersEquivalence: the fanned-out prune returns the
// same results as the sequential one at every worker count.
func TestPruneStateVarsWorkersEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	names := []string{"a", "b", "c", "d", "e", "f"}
	series := [][]float64{
		gaussianSeries(r, 300),
		gaussianSeries(r, 300),
		make([]float64, 300), // constant
		gaussianSeries(r, 300),
		{1, 2, 3}, // too few samples
		gaussianSeries(r, 300),
	}
	opts := defaultPruneOptions()
	want := PruneStateVarsWorkers(names, series, opts, 1)
	for _, workers := range []int{1, 2, 8} {
		got := PruneStateVarsWorkers(names, series, opts, workers)
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d results", workers, len(got))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("workers=%d: result[%d] = %+v, want %+v", workers, i, got[i], want[i])
			}
		}
	}
}

// TestGenerateTSVLParallelismEquivalence: the full Algorithm 1 run emits
// identical reports at worker counts 1, 2 and 8.
func TestGenerateTSVLParallelismEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	n := 400
	k := 12
	names := make([]string, k)
	series := make([][]float64, k)
	base := gaussianSeries(r, n)
	for i := range series {
		s := gaussianSeries(r, n)
		for j := range s {
			s[j] += base[j] * float64(i%3)
		}
		series[i] = s
		names[i] = string(rune('A' + i))
	}
	run := func(workers int) *TSVLReport {
		rep, err := GenerateTSVL(TSVLInput{
			Names:       names,
			Series:      series,
			Responses:   []string{"A", "E"},
			Parallelism: workers,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return rep
	}
	want := run(1)
	for _, workers := range []int{2, 8} {
		got := run(workers)
		if len(got.TSVL) != len(want.TSVL) {
			t.Fatalf("workers=%d: TSVL %v, want %v", workers, got.TSVL, want.TSVL)
		}
		for i := range got.TSVL {
			if got.TSVL[i] != want.TSVL[i] {
				t.Errorf("workers=%d: TSVL %v, want %v", workers, got.TSVL, want.TSVL)
				break
			}
		}
		if got.ModelsFitted != want.ModelsFitted {
			t.Errorf("workers=%d: ModelsFitted %d, want %d", workers, got.ModelsFitted, want.ModelsFitted)
		}
		for i := range want.Corr {
			for j := range want.Corr[i] {
				if got.Corr[i][j] != want.Corr[i][j] {
					t.Fatalf("workers=%d: corr[%d][%d] differs", workers, i, j)
				}
			}
		}
		if len(got.Clusters) != len(want.Clusters) {
			t.Fatalf("workers=%d: %d clusters, want %d", workers, len(got.Clusters), len(want.Clusters))
		}
		for ci := range want.Clusters {
			if len(got.Clusters[ci]) != len(want.Clusters[ci]) {
				t.Fatalf("workers=%d: cluster %d size differs", workers, ci)
			}
			for vi := range want.Clusters[ci] {
				if got.Clusters[ci][vi] != want.Clusters[ci][vi] {
					t.Fatalf("workers=%d: cluster %d differs", workers, ci)
				}
			}
		}
	}
}
