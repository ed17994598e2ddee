package cluster

import (
	"fmt"
	"math"

	"perspector/internal/mat"
)

// Linkage selects how inter-cluster distance is computed during
// agglomerative clustering.
type Linkage int

const (
	// SingleLinkage merges on the minimum pairwise distance.
	SingleLinkage Linkage = iota
	// CompleteLinkage merges on the maximum pairwise distance.
	CompleteLinkage
	// AverageLinkage merges on the mean pairwise distance (UPGMA).
	AverageLinkage
)

// String returns the linkage name.
func (l Linkage) String() string {
	switch l {
	case SingleLinkage:
		return "single"
	case CompleteLinkage:
		return "complete"
	case AverageLinkage:
		return "average"
	default:
		return fmt.Sprintf("Linkage(%d)", int(l))
	}
}

// Merge records one agglomeration step of the dendrogram. Cluster ids
// 0..n−1 are the original points; id n+i is the cluster created by the
// i-th merge.
type Merge struct {
	A, B     int
	Distance float64
}

// Dendrogram is the full merge history of a hierarchical clustering run.
type Dendrogram struct {
	n      int
	Merges []Merge
}

// Hierarchical performs agglomerative clustering over the rows of x with
// the given linkage, using the Lance–Williams update. This reproduces the
// pipeline of the prior work in Table I (normalize → PCA → hierarchical
// clustering) that Perspector argues lacks a cluster-quality metric.
func Hierarchical(x *mat.Matrix, linkage Linkage) (*Dendrogram, error) {
	n := x.Rows()
	if n == 0 {
		return nil, fmt.Errorf("cluster: Hierarchical with no points")
	}
	// active cluster id -> current distance row index; we keep a dense
	// distance matrix over "slots" and retire slots as clusters merge.
	type slot struct {
		id   int // cluster id (points: 0..n-1; merged: n, n+1, ...)
		size int
	}
	slots := make([]slot, n)
	for i := range slots {
		slots[i] = slot{id: i, size: 1}
	}
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			dd := mat.Dist(x.RowView(i), x.RowView(j))
			d[i][j] = dd
			d[j][i] = dd
		}
	}
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}

	dg := &Dendrogram{n: n}
	nextID := n
	for step := 0; step < n-1; step++ {
		// Find the closest live pair.
		bi, bj, bd := -1, -1, math.Inf(1)
		for i := 0; i < n; i++ {
			if !alive[i] {
				continue
			}
			for j := i + 1; j < n; j++ {
				if !alive[j] {
					continue
				}
				if d[i][j] < bd {
					bd = d[i][j]
					bi, bj = i, j
				}
			}
		}
		dg.Merges = append(dg.Merges, Merge{A: slots[bi].id, B: slots[bj].id, Distance: bd})

		// Lance–Williams update into slot bi; retire slot bj.
		si, sj := float64(slots[bi].size), float64(slots[bj].size)
		for k := 0; k < n; k++ {
			if !alive[k] || k == bi || k == bj {
				continue
			}
			var nd float64
			switch linkage {
			case SingleLinkage:
				nd = math.Min(d[bi][k], d[bj][k])
			case CompleteLinkage:
				nd = math.Max(d[bi][k], d[bj][k])
			case AverageLinkage:
				nd = (si*d[bi][k] + sj*d[bj][k]) / (si + sj)
			default:
				return nil, fmt.Errorf("cluster: unknown linkage %v", linkage)
			}
			d[bi][k] = nd
			d[k][bi] = nd
		}
		slots[bi] = slot{id: nextID, size: slots[bi].size + slots[bj].size}
		nextID++
		alive[bj] = false
	}
	return dg, nil
}

// Cut returns flat cluster labels obtained by stopping the agglomeration
// once k clusters remain. Labels are renumbered to the range [0,k) in order
// of first appearance. It returns an error if k is out of range.
func (dg *Dendrogram) Cut(k int) ([]int, error) {
	if k < 1 || k > dg.n {
		return nil, fmt.Errorf("cluster: Cut k=%d out of range for %d points", k, dg.n)
	}
	// Union-find over the first n−k merges.
	parent := make([]int, dg.n+len(dg.Merges))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(v int) int {
		for parent[v] != v {
			parent[v] = parent[parent[v]]
			v = parent[v]
		}
		return v
	}
	for i := 0; i < dg.n-k; i++ {
		m := dg.Merges[i]
		newID := dg.n + i
		parent[find(m.A)] = newID
		parent[find(m.B)] = newID
	}
	labels := make([]int, dg.n)
	next := 0
	seen := map[int]int{}
	for i := 0; i < dg.n; i++ {
		root := find(i)
		id, ok := seen[root]
		if !ok {
			id = next
			seen[root] = id
			next++
		}
		labels[i] = id
	}
	return labels, nil
}
