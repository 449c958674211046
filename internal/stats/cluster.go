package stats

import (
	"math"
	"sort"
)

// Dendrogram records an agglomerative clustering run.
type Dendrogram struct {
	// Merges lists each merge in order: the two cluster ids joined and
	// the distance at which they joined. Leaf ids are 0..n-1; merge i
	// creates cluster id n+i.
	Merges []Merge
	n      int
}

// Merge is one agglomeration step.
type Merge struct {
	A, B     int
	Distance float64
}

// correlationDistance converts a correlation matrix into the dissimilarity
// the paper's heat-map clustering uses: d = 1 − |r|, so strongly correlated
// variables (either sign) are close.
func correlationDistance(corr [][]float64) [][]float64 {
	n := len(corr)
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
		for j := range d[i] {
			r := corr[i][j]
			if math.IsNaN(r) {
				r = 0
			}
			d[i][j] = 1 - math.Abs(r)
		}
		d[i][i] = 0
	}
	return d
}

// hierCluster performs average-linkage (UPGMA) agglomerative clustering
// over a distance matrix.
func hierCluster(dist [][]float64) *Dendrogram {
	n := len(dist)
	dend := &Dendrogram{n: n}
	if n == 0 {
		return dend
	}
	// active[id] = member leaf indices of the cluster with that id.
	active := make(map[int][]int, n)
	for i := 0; i < n; i++ {
		active[i] = []int{i}
	}
	nextID := n
	for len(active) > 1 {
		bestA, bestB := -1, -1
		bestD := math.Inf(1)
		ids := make([]int, 0, len(active))
		for id := range active {
			ids = append(ids, id)
		}
		sort.Ints(ids) // deterministic tie-breaking
		for i := 0; i < len(ids); i++ {
			for j := i + 1; j < len(ids); j++ {
				d := clusterDistance(active[ids[i]], active[ids[j]], dist)
				if d < bestD {
					bestD, bestA, bestB = d, ids[i], ids[j]
				}
			}
		}
		merged := append(append([]int{}, active[bestA]...), active[bestB]...)
		delete(active, bestA)
		delete(active, bestB)
		active[nextID] = merged
		dend.Merges = append(dend.Merges, Merge{A: bestA, B: bestB, Distance: bestD})
		nextID++
	}
	return dend
}

// clusterDistance is the mean pairwise distance between clusters a and b.
func clusterDistance(a, b []int, dist [][]float64) float64 {
	sum := 0.0
	for _, i := range a {
		for _, j := range b {
			sum += dist[i][j]
		}
	}
	return sum / float64(len(a)*len(b))
}

// CutAt returns the clusters obtained by stopping agglomeration at merges
// with distance ≥ threshold: groups of leaf indices, each sorted, ordered
// by their smallest member. This is how ARES forms ESVL subsets without a
// pre-specified cluster count (the paper's stated reason for preferring
// hierarchical clustering over K-means).
func (d *Dendrogram) CutAt(threshold float64) [][]int {
	parent := make(map[int]int)
	find := func(x int) int {
		for {
			p, ok := parent[x]
			if !ok {
				return x
			}
			x = p
		}
	}
	nextID := d.n
	for _, m := range d.Merges {
		if m.Distance < threshold {
			parent[find(m.A)] = nextID
			parent[find(m.B)] = nextID
		}
		nextID++
	}
	groups := make(map[int][]int)
	for leaf := 0; leaf < d.n; leaf++ {
		root := find(leaf)
		groups[root] = append(groups[root], leaf)
	}
	out := make([][]int, 0, len(groups))
	for _, g := range groups {
		sort.Ints(g)
		out = append(out, g)
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// LeafOrder returns the dendrogram's leaf ordering (the order a heat map
// displays rows so correlated blocks sit together).
func (d *Dendrogram) LeafOrder() []int {
	if d.n == 0 {
		return nil
	}
	members := make(map[int][]int, d.n)
	for i := 0; i < d.n; i++ {
		members[i] = []int{i}
	}
	nextID := d.n
	for _, m := range d.Merges {
		members[nextID] = append(append([]int{}, members[m.A]...), members[m.B]...)
		delete(members, m.A)
		delete(members, m.B)
		nextID++
	}
	// The last surviving cluster holds every leaf in dendrogram order.
	for _, v := range members {
		if len(v) == d.n {
			return v
		}
	}
	// Unmerged leaves (n==1 case).
	out := make([]int, d.n)
	for i := range out {
		out[i] = i
	}
	return out
}
