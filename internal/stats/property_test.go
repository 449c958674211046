package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func gaussianSeries(r *rand.Rand, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = r.NormFloat64() * (1 + r.Float64()*5)
	}
	return xs
}

// TestPropertyPearsonInvariances: Pearson correlation is symmetric, bounded,
// and invariant under positive affine transforms (sign-flipped by negative
// scaling).
func TestPropertyPearsonInvariances(t *testing.T) {
	f := func(seed int64, scale float64, shift float64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 16 + r.Intn(200)
		x := gaussianSeries(r, n)
		y := gaussianSeries(r, n)
		rxy := pearson(x, y)
		if math.IsNaN(rxy) || rxy < -1-1e-12 || rxy > 1+1e-12 {
			return false
		}
		if math.Abs(rxy-pearson(y, x)) > 1e-12 {
			return false
		}
		// Affine invariance: r(a·x + b, y) = sign(a)·r(x, y).
		a := math.Mod(math.Abs(scale), 10) + 0.1
		b := math.Mod(shift, 100)
		scaled := make([]float64, n)
		for i := range scaled {
			scaled[i] = a*x[i] + b
		}
		if math.Abs(pearson(scaled, y)-rxy) > 1e-9 {
			return false
		}
		for i := range scaled {
			scaled[i] = -a*x[i] + b
		}
		return math.Abs(pearson(scaled, y)+rxy) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestPropertyCorrelationMatrixPSDish: every correlation matrix has a unit
// diagonal, is symmetric, and all 2×2 principal minors are non-negative
// (|r| ≤ 1 pairwise consistency).
func TestPropertyCorrelationMatrix(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		k := 2 + r.Intn(6)
		n := 32 + r.Intn(100)
		series := make([][]float64, k)
		base := gaussianSeries(r, n)
		for i := range series {
			s := gaussianSeries(r, n)
			// Mix in a common component so correlations are non-trivial.
			for j := range s {
				s[j] += base[j] * r.Float64() * 2
			}
			series[i] = s
		}
		m := CorrelationMatrixWorkers(series, 0)
		for i := 0; i < k; i++ {
			if math.Abs(m[i][i]-1) > 1e-12 {
				return false
			}
			for j := 0; j < k; j++ {
				if math.Abs(m[i][j]-m[j][i]) > 1e-12 {
					return false
				}
				if m[i][j] < -1-1e-12 || m[i][j] > 1+1e-12 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestPropertyOLSResiduals: fitted OLS residuals are orthogonal to every
// predictor and sum to ~zero (intercept present), and R² ∈ [0, 1].
func TestPropertyOLSResiduals(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 64 + r.Intn(200)
		k := 1 + r.Intn(4)
		preds := make([][]float64, k)
		names := make([]string, k)
		for i := range preds {
			preds[i] = gaussianSeries(r, n)
			names[i] = string(rune('a' + i))
		}
		y := make([]float64, n)
		for i := range y {
			y[i] = r.NormFloat64()
			for j := range preds {
				y[i] += preds[j][i] * (r.Float64() - 0.5)
			}
		}
		res, err := OLS(y, preds, names)
		if err != nil {
			return true // degenerate draw
		}
		if res.R2 < -1e-9 || res.R2 > 1+1e-9 {
			return false
		}
		// Reconstruct residuals and check orthogonality.
		resid := make([]float64, n)
		for i := range resid {
			fit := res.Coef[0]
			for j := range preds {
				fit += res.Coef[j+1] * preds[j][i]
			}
			resid[i] = y[i] - fit
		}
		sum := 0.0
		for _, v := range resid {
			sum += v
		}
		scale := math.Sqrt(res.RSS) + 1e-9
		if math.Abs(sum)/scale > 1e-6 {
			return false
		}
		for j := range preds {
			dot := 0.0
			norm := 0.0
			for i := range resid {
				dot += resid[i] * preds[j][i]
				norm += preds[j][i] * preds[j][i]
			}
			if math.Abs(dot)/(math.Sqrt(norm)*scale+1e-9) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestPropertyClusterPartition: CutAt always yields a partition — disjoint
// clusters that cover every leaf exactly once — at any threshold.
func TestPropertyClusterPartition(t *testing.T) {
	f := func(seed int64, threshold float64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(12)
		dist := make([][]float64, n)
		for i := range dist {
			dist[i] = make([]float64, n)
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				d := r.Float64()
				dist[i][j], dist[j][i] = d, d
			}
		}
		dend := hierCluster(dist)
		th := math.Mod(math.Abs(threshold), 1.2)
		clusters := dend.CutAt(th)
		seen := make(map[int]bool)
		for _, c := range clusters {
			if len(c) == 0 {
				return false
			}
			for _, leaf := range c {
				if leaf < 0 || leaf >= n || seen[leaf] {
					return false
				}
				seen[leaf] = true
			}
		}
		return len(seen) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestPropertyDendrogramMonotoneMerges: average-linkage merge distances
// never decrease (no inversions).
func TestPropertyDendrogramMonotoneMerges(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(10)
		dist := make([][]float64, n)
		for i := range dist {
			dist[i] = make([]float64, n)
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				d := r.Float64()
				dist[i][j], dist[j][i] = d, d
			}
		}
		dend := hierCluster(dist)
		for i := 1; i < len(dend.Merges); i++ {
			// Average linkage is monotone in exact arithmetic; allow an
			// epsilon for rounding in the pairwise means.
			if dend.Merges[i].Distance < dend.Merges[i-1].Distance-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestPropertyStudentTCDFMonotone: the t CDF is monotone in t and maps onto
// (0, 1) for any df.
func TestPropertyStudentTCDF(t *testing.T) {
	f := func(dfRaw float64) bool {
		df := math.Mod(math.Abs(dfRaw), 200) + 0.5
		prev := -1.0
		for x := -8.0; x <= 8.0; x += 0.25 {
			p := studentTCDF(x, df)
			if p < 0 || p > 1 || p < prev-1e-12 {
				return false
			}
			prev = p
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
