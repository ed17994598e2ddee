package cluster

import (
	"fmt"
	"math"

	"perspector/internal/mat"
)

// SqDistances returns the n×n matrix of squared Euclidean distances
// between the rows of x, accumulated in sqDist's order. Every consumer of
// one point set shares it: k-means++ seeding and the first Lloyd pass
// look distances up instead of recomputing them, and Distances turns it
// into the silhouette's matrix. sq[i][j] and sq[j][i] are one value: a
// difference and its negation square to the same bits.
func SqDistances(x *mat.Matrix) [][]float64 {
	n := x.Rows()
	flat := make([]float64, n*n)
	sq := make([][]float64, n)
	for i := range sq {
		sq[i] = flat[i*n : (i+1)*n : (i+1)*n]
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := sqDist(x.RowView(i), x.RowView(j))
			sq[i][j] = d
			sq[j][i] = d
		}
	}
	return sq
}

// Distances returns the Euclidean distance matrix for a squared-distance
// matrix from SqDistances. math.Sqrt is correctly rounded, so each entry
// has the bits mat.Dist returns for the pair.
func Distances(sq [][]float64) [][]float64 {
	n := len(sq)
	flat := make([]float64, n*n)
	dist := make([][]float64, n)
	for i, row := range sq {
		dist[i] = flat[i*n : (i+1)*n : (i+1)*n]
		for j, v := range row {
			dist[i][j] = math.Sqrt(v)
		}
	}
	return dist
}

// Silhouette computes the paper's Eq. 1–5 exactly:
//
//	η(p)   — mean distance from p to the other members of its own cluster,
//	λ(p)   — the minimum over other clusters of the mean distance to them,
//	S(p)   — (λ−η)/max(λ,η), zero when only one cluster exists,
//	S(C)   — mean of S(p) over the cluster's points,
//	S(W)_k — mean of S(C) over the k clusters.
//
// Note the paper averages per-cluster then across clusters (Eq. 4–5), which
// differs from the common "average over all points" convention when cluster
// sizes are unbalanced; we follow the paper.
//
// labels must assign every point to a cluster in [0,k); every cluster index
// must be non-empty.
//
// Silhouette recomputes the pairwise distances on every call; sweeps over
// k should build the matrix once with Distances and call SilhouetteDist.
func Silhouette(x *mat.Matrix, labels []int, k int) (float64, error) {
	s, _, err := SilhouetteDist(Distances(SqDistances(x)), labels, k)
	return s, err
}

// SilhouetteDist is Silhouette on a precomputed pairwise distance matrix
// (e.g. from Distances): dist[i][j] is the distance between points i
// and j. This is the form the over-k sweep uses so the O(n²) distance
// work happens once per sweep instead of once per k. pairs counts the
// distances it read: n−1 for each point outside a singleton cluster.
func SilhouetteDist(dist [][]float64, labels []int, k int) (s float64, pairs int, err error) {
	return new(SilhouetteScratch).SilhouetteDist(dist, labels, k)
}

// SilhouetteScratch holds the per-cluster member lists of SilhouetteDist
// calls, reused from one call to the next: the ClusterScore sweep on one
// scratch allocates them once, not once per k. The zero value is ready
// to use. A SilhouetteScratch is not safe for concurrent use.
type SilhouetteScratch struct {
	members [][]int
}

// SilhouetteDist is the package-level SilhouetteDist on the scratch's
// member lists.
func (ss *SilhouetteScratch) SilhouetteDist(dist [][]float64, labels []int, k int) (s float64, pairs int, err error) {
	n := len(dist)
	if len(labels) != n {
		return 0, 0, fmt.Errorf("cluster: Silhouette got %d labels for %d points", len(labels), n)
	}
	if k < 1 {
		return 0, 0, fmt.Errorf("cluster: Silhouette with k=%d", k)
	}
	if k == 1 {
		// Eq. 3: S(p) = 0 when k = 1.
		return 0, 0, nil
	}
	for len(ss.members) < k {
		ss.members = append(ss.members, nil)
	}
	members := ss.members[:k]
	for c := range members {
		members[c] = members[c][:0]
	}
	for i, c := range labels {
		if c < 0 || c >= k {
			return 0, 0, fmt.Errorf("cluster: label %d out of range [0,%d)", c, k)
		}
		members[c] = append(members[c], i)
	}
	for c, m := range members {
		if len(m) == 0 {
			return 0, 0, fmt.Errorf("cluster: cluster %d is empty", c)
		}
	}

	pointScore := func(p int) float64 {
		own := labels[p]
		// η(p): singleton clusters get η = 0 by the standard convention
		// (Eq. 1 is undefined for |C|=1; Rousseeuw sets S(p)=0 there).
		if len(members[own]) == 1 {
			return 0
		}
		// η and λ below read p's distance to every other point once.
		pairs += n - 1
		eta := 0.0
		for _, q := range members[own] {
			if q != p {
				eta += dist[p][q]
			}
		}
		eta /= float64(len(members[own]) - 1)

		// λ(p): Eq. 2, minimized over the other clusters.
		lambda := 0.0
		first := true
		for c := 0; c < k; c++ {
			if c == own {
				continue
			}
			cost := 0.0
			for _, q := range members[c] {
				cost += dist[p][q]
			}
			cost /= float64(len(members[c]))
			if first || cost < lambda {
				lambda = cost
				first = false
			}
		}

		den := eta
		if lambda > den {
			den = lambda
		}
		if den == 0 {
			return 0
		}
		return (lambda - eta) / den
	}

	// Eq. 4–5: per-cluster means, then the mean across clusters.
	total := 0.0
	for c := 0; c < k; c++ {
		clusterSum := 0.0
		for _, p := range members[c] {
			clusterSum += pointScore(p)
		}
		total += clusterSum / float64(len(members[c]))
	}
	return total / float64(k), pairs, nil
}
