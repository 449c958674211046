package stats

import (
	"math/rand"
	"reflect"
	"testing"
)

// twoGroupDistance builds a distance matrix with two tight groups
// {0,1,2} and {3,4} far apart.
func twoGroupDistance() [][]float64 {
	const far, near = 0.9, 0.1
	d := make([][]float64, 5)
	for i := range d {
		d[i] = make([]float64, 5)
		for j := range d[i] {
			if i == j {
				continue
			}
			sameGroup := (i < 3) == (j < 3)
			if sameGroup {
				d[i][j] = near
			} else {
				d[i][j] = far
			}
		}
	}
	return d
}

func TestHierClusterTwoGroups(t *testing.T) {
	dend := hierCluster(twoGroupDistance())
	if len(dend.Merges) != 4 {
		t.Fatalf("merges = %d, want 4", len(dend.Merges))
	}
	clusters := dend.CutAt(0.5)
	want := [][]int{{0, 1, 2}, {3, 4}}
	if !reflect.DeepEqual(clusters, want) {
		t.Errorf("clusters = %v, want %v", clusters, want)
	}
}

func TestDendrogramLeafOrderGroupsNeighbors(t *testing.T) {
	dend := hierCluster(twoGroupDistance())
	order := dend.LeafOrder()
	if len(order) != 5 {
		t.Fatalf("leaf order = %v", order)
	}
	// Members of the same group must be contiguous.
	pos := make(map[int]int)
	for i, leaf := range order {
		pos[leaf] = i
	}
	groupA := []int{pos[0], pos[1], pos[2]}
	min, max := groupA[0], groupA[0]
	for _, p := range groupA {
		if p < min {
			min = p
		}
		if p > max {
			max = p
		}
	}
	if max-min != 2 {
		t.Errorf("group {0,1,2} not contiguous in order %v", order)
	}
}

func TestHierClusterEmptyAndSingle(t *testing.T) {
	dend := hierCluster(nil)
	if len(dend.Merges) != 0 || len(dend.CutAt(0.5)) != 0 {
		t.Error("empty input mishandled")
	}
	single := hierCluster([][]float64{{0}})
	if got := single.CutAt(0.5); len(got) != 1 {
		t.Errorf("single leaf clusters = %v", got)
	}
	if got := single.LeafOrder(); len(got) != 1 || got[0] != 0 {
		t.Errorf("single leaf order = %v", got)
	}
}

func TestCorrelationDistance(t *testing.T) {
	corr := [][]float64{
		{1, -0.8},
		{-0.8, 1},
	}
	d := correlationDistance(corr)
	approx(t, "diag", d[0][0], 0, 1e-12)
	// Strong negative correlation is also "close" (|r|).
	approx(t, "negcorr", d[0][1], 0.2, 1e-12)
}

func TestClusteringRecoversCorrelatedVariables(t *testing.T) {
	// Integration: generate three correlated series plus two independent
	// ones and verify the pipeline groups them.
	rng := rand.New(rand.NewSource(21))
	n := 3000
	base := make([]float64, n)
	series := make([][]float64, 5)
	for i := range series {
		series[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		base[i] = rng.NormFloat64()
		series[0][i] = base[i]
		series[1][i] = 2*base[i] + 0.1*rng.NormFloat64()
		series[2][i] = -base[i] + 0.1*rng.NormFloat64()
		series[3][i] = rng.NormFloat64()
		series[4][i] = rng.NormFloat64()
	}
	corr := CorrelationMatrixWorkers(series, 0)
	dend := hierCluster(correlationDistance(corr))
	clusters := dend.CutAt(0.5)
	// The first cluster must contain exactly {0,1,2}.
	if !reflect.DeepEqual(clusters[0], []int{0, 1, 2}) {
		t.Errorf("clusters = %v", clusters)
	}
}
