// Package cluster implements the clustering machinery behind Perspector's
// ClusterScore: k-means with k-means++ seeding and multiple restarts, the
// Rousseeuw silhouette score (Eq. 1–6 of the paper), and agglomerative
// hierarchical clustering — the prior-work baseline (Table I) that
// Perspector's §II critiques.
package cluster

import (
	"fmt"
	"math"

	"perspector/internal/mat"
	"perspector/internal/rng"
)

// KMeansResult holds the outcome of a k-means run.
type KMeansResult struct {
	// Labels[i] is the cluster index of point i, in [0,k).
	Labels []int
	// Centroids[c] is the centre of cluster c.
	Centroids [][]float64
	// Inertia is the total within-cluster sum of squared distances.
	Inertia float64
	// Iterations is the number of Lloyd iterations of the best restart,
	// counting the ones a cycle fast-forward skipped.
	Iterations int
	// Work counts the call's work over all its restarts.
	Work KMeansWork
}

// KMeansWork is the exact work of one KMeans call.
type KMeansWork struct {
	// Restarts is the number of k-means++ initializations run.
	Restarts int
	// Iters counts the Lloyd iterations actually run.
	Iters int
	// ItersSkipped counts the iterations a cycle fast-forward jumped
	// over; Iters+ItersSkipped is what the plain loop would run.
	ItersSkipped int
}

// KMeansOptions configures KMeans. The zero value is not valid; use
// DefaultKMeansOptions.
type KMeansOptions struct {
	// MaxIter bounds Lloyd iterations per restart.
	MaxIter int
	// Restarts is the number of independent k-means++ initializations;
	// the restart with the lowest inertia wins.
	Restarts int
	// Tol stops iteration when no centroid moves more than Tol.
	Tol float64
	// Seed makes the run deterministic.
	Seed uint64
}

// DefaultKMeansOptions returns the options used throughout Perspector.
func DefaultKMeansOptions(seed uint64) KMeansOptions {
	return KMeansOptions{MaxIter: 100, Restarts: 8, Tol: 1e-9, Seed: seed}
}

// KMeans clusters the rows of x into k clusters. It returns an error when
// k is out of range (k < 1 or k > number of rows) or x holds a NaN or an
// infinity. Callers that cluster the same points many times should build
// the squared-distance matrix once and call KMeansSq.
func KMeans(x *mat.Matrix, k int, opts KMeansOptions) (*KMeansResult, error) {
	return KMeansSq(x, SqDistances(x), k, opts)
}

// KMeansSq is KMeans on x with its squared-distance matrix sq, as built
// by SqDistances. The restarts run serially on one scratch buffer, and a
// restart is copied out only when its inertia is strictly lower than the
// best so far, so the earliest restart with the minimal inertia wins.
// Callers parallelize across calls: the ClusterScore sweep runs one call
// per k on the worker pool, each worker on its own KMeansScratch.
func KMeansSq(x *mat.Matrix, sq [][]float64, k int, opts KMeansOptions) (*KMeansResult, error) {
	return new(KMeansScratch).KMeansSq(x, sq, k, opts)
}

// KMeansScratch holds the buffers of KMeansSq calls, reused from one
// call to the next: a sweep over k on one scratch allocates them once,
// not once per k. The zero value is ready to use. A KMeansScratch is not
// safe for concurrent use.
type KMeansScratch struct {
	s        kmeansScratch
	best     KMeansResult
	bestCent []float64
}

// KMeansSq is the package-level KMeansSq on the scratch's buffers. The
// result is the scratch's own: it is valid until the next call.
func (ks *KMeansScratch) KMeansSq(x *mat.Matrix, sq [][]float64, k int, opts KMeansOptions) (*KMeansResult, error) {
	n, d := x.Rows(), x.Cols()
	if k < 1 || k > n {
		return nil, fmt.Errorf("cluster: KMeans k=%d out of range for %d points", k, n)
	}
	if opts.MaxIter <= 0 || opts.Restarts <= 0 {
		return nil, fmt.Errorf("cluster: KMeans needs positive MaxIter and Restarts")
	}
	if len(sq) != n {
		return nil, fmt.Errorf("cluster: KMeans got a %d-row distance matrix for %d points", len(sq), n)
	}
	// The lookups into sq decide exactly as the bounded distances they
	// replace only when no distance is NaN, which finite points guarantee.
	for i := 0; i < n; i++ {
		for _, v := range x.RowView(i) {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("cluster: KMeans point %d has a non-finite coordinate", i)
			}
		}
	}
	// Buffers sized by k get room for k = n, the largest valid k, so a
	// sweep over k on one point set allocates them once.
	s := &ks.s
	s.x, s.sq, s.k, s.d, s.opts = x, sq, k, d, opts
	s.labels = resize(s.labels, n, n)
	s.counts = resize(s.counts, k, n)
	s.seeds = resize(s.seeds, k, n)
	s.minDist = resize(s.minDist, n, n)
	s.cent = resize(s.cent, k*d, n*d)
	s.next = resize(s.next, k*d, n*d)
	s.snap = resize(s.snap, k*d, n*d)
	s.iters, s.skipped = 0, 0

	best := &ks.best
	best.Labels = resize(best.Labels, n, n)
	best.Centroids = resize(best.Centroids, k, n)
	ks.bestCent = resize(ks.bestCent, k*d, n*d)
	bestCent := ks.bestCent
	for c := range best.Centroids {
		best.Centroids[c] = bestCent[c*d : (c+1)*d : (c+1)*d]
	}
	src := rng.New(opts.Seed)
	for r := 0; r < opts.Restarts; r++ {
		inertia, iters := s.run(src.Split())
		if r == 0 || inertia < best.Inertia {
			copy(best.Labels, s.labels)
			copy(bestCent, s.cent)
			best.Inertia, best.Iterations = inertia, iters
		}
	}
	best.Work = KMeansWork{Restarts: opts.Restarts, Iters: s.iters, ItersSkipped: s.skipped}
	return best, nil
}

// resize returns buf resliced to length n, reallocated with capacity
// c >= n only when its capacity is short. Every caller overwrites or
// clears the contents.
func resize[T any](buf []T, n, c int) []T {
	if cap(buf) < n {
		return make([]T, n, c)
	}
	return buf[:n]
}

// kmeansScratch is one KMeansSq call's state, reused by every restart
// (and, through KMeansScratch, by later calls).
// Centroid c is cent[c*d:(c+1)*d].
type kmeansScratch struct {
	x    *mat.Matrix
	sq   [][]float64
	k, d int
	opts KMeansOptions

	labels  []int
	counts  []int
	seeds   []int     // the k-means++ centers, as point indices
	minDist []float64 // k-means++ squared distance to the nearest center
	cent    []float64 // centroids at the start of an iteration
	next    []float64 // centroids the iteration computes
	snap    []float64 // cycle-detection snapshot of cent

	iters, skipped int
}

func (s *kmeansScratch) centroid(c int) []float64 { return s.cent[c*s.d : (c+1)*s.d] }

// run performs one restart and returns its inertia and iteration count;
// its labels and centroids are left in s.labels and s.cent.
//
// An iteration's result is a function of the centroid bits at its start
// alone: it rewrites every label, count and new centroid. So once those
// bits repeat without the Tol break firing, the loop is periodic and can
// never converge. The loop snapshots the centroids at iterations 0, 1, 2,
// 4, 8, … (Brent's cycle detection) and compares each later start with
// the snapshot; on a match it skips whole periods, leaving at least one
// iteration to run, so the final labels and centroids and the iteration
// count are those of the plain loop.
func (s *kmeansScratch) run(src *rng.Source) (inertia float64, iterations int) {
	x, k, d, n := s.x, s.k, s.d, s.x.Rows()
	s.seedPlusPlus(src)
	for c, p := range s.seeds {
		copy(s.centroid(c), x.RowView(p))
	}
	labels, counts, cent, next := s.labels, s.counts, s.cent, s.next

	snapAt := 0
	for iter := 0; iter < s.opts.MaxIter; iter++ {
		if iter > 0 && sameBits(cent, s.snap) {
			period := iter - snapAt
			jump := (s.opts.MaxIter - iter - 1) / period * period
			iter += jump
			s.skipped += jump
		} else if iter&(iter-1) == 0 { // iter is 0 or a power of two
			copy(s.snap, cent)
			snapAt = iter
		}
		iterations = iter + 1
		s.iters++
		// Assignment step. On the first pass every centroid is still the
		// data point it was seeded at, so the squared distances are
		// lookups. Later passes use the bounded distance, which bails out
		// as soon as the partial sum reaches the incumbent best: squares
		// are non-negative and float addition of non-negatives is
		// monotone, so a bailed candidate could never have won the strict
		// `<`. Either way the labels are bit-identical to the exhaustive
		// scan.
		if iter == 0 {
			for i := 0; i < n; i++ {
				row := s.sq[i]
				bestC, bestD := 0, math.Inf(1)
				for c, p := range s.seeds {
					if dd := row[p]; dd < bestD {
						bestD = dd
						bestC = c
					}
				}
				labels[i] = bestC
			}
		} else {
			for i := 0; i < n; i++ {
				row := x.RowView(i)
				bestC, bestD := 0, math.Inf(1)
				for c := 0; c < k; c++ {
					if dd, ok := sqDistBounded(row, s.centroid(c), bestD); ok {
						bestD = dd
						bestC = c
					}
				}
				labels[i] = bestC
			}
		}
		// Update step.
		clear(counts)
		clear(next)
		for i := 0; i < n; i++ {
			c := labels[i]
			counts[c]++
			nc := next[c*d : (c+1)*d]
			for j, v := range x.RowView(i) {
				nc[j] += v
			}
		}
		for c := 0; c < k; c++ {
			nc := next[c*d : (c+1)*d]
			if counts[c] == 0 {
				// Re-seed an empty cluster at the point farthest from its
				// centroid, the standard fix that keeps k clusters alive.
				far, farD := 0, -1.0
				for i := 0; i < n; i++ {
					if dd := sqDist(x.RowView(i), s.centroid(labels[i])); dd > farD {
						farD = dd
						far = i
					}
				}
				copy(nc, x.RowView(far))
				counts[c] = 1
				labels[far] = c
				continue
			}
			inv := 1 / float64(counts[c])
			for j := range nc {
				nc[j] *= inv
			}
		}
		// Convergence check.
		maxMove := 0.0
		for c := 0; c < k; c++ {
			if mv := math.Sqrt(sqDist(s.centroid(c), next[c*d:(c+1)*d])); mv > maxMove {
				maxMove = mv
			}
		}
		copy(cent, next)
		if maxMove <= s.opts.Tol {
			break
		}
	}

	// The loop's final assignment pass may have drained a cluster that the
	// update-step repair had refilled. Guarantee every cluster is
	// non-empty: silhouette (and any sane consumer) requires it.
	clear(counts)
	for _, l := range labels {
		counts[l]++
	}
	for c := 0; c < k; c++ {
		if counts[c] > 0 {
			continue
		}
		far, farD := -1, -1.0
		for i := 0; i < n; i++ {
			if counts[labels[i]] <= 1 {
				continue
			}
			if dd := sqDist(x.RowView(i), s.centroid(labels[i])); dd > farD {
				farD = dd
				far = i
			}
		}
		if far < 0 {
			break // fewer distinct points than clusters; nothing to move
		}
		counts[labels[far]]--
		labels[far] = c
		counts[c] = 1
		copy(s.centroid(c), x.RowView(far))
	}

	for i := 0; i < n; i++ {
		inertia += sqDist(x.RowView(i), s.centroid(labels[i]))
	}
	return inertia, iterations
}

// seedPlusPlus implements k-means++ initialization, choosing s.seeds.
// Every center is a data point, so the distance to it is a lookup into
// s.sq; sq[i][p] < minDist[i] holds exactly when the bounded distance
// to a copy of point p completes below minDist[i] (see sqDistBounded).
func (s *kmeansScratch) seedPlusPlus(src *rng.Source) {
	n := len(s.sq)
	minDist := s.minDist
	first := src.Intn(n)
	s.seeds[0] = first
	copy(minDist, s.sq[first])
	for m := 1; m < s.k; m++ {
		total := 0.0
		for _, dd := range minDist {
			total += dd
		}
		var chosen int
		if total == 0 {
			// All remaining points coincide with existing centroids.
			chosen = src.Intn(n)
		} else {
			target := src.Float64() * total
			acc := 0.0
			chosen = n - 1
			for i, dd := range minDist {
				acc += dd
				if acc >= target {
					chosen = i
					break
				}
			}
		}
		s.seeds[m] = chosen
		for i, dd := range s.sq[chosen] {
			if dd < minDist[i] {
				minDist[i] = dd
			}
		}
	}
}

// sameBits reports whether a and b hold the same float64 bit patterns.
func sameBits(a, b []float64) bool {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func sqDist(a, b []float64) float64 {
	sum := 0.0
	for i := range a {
		diff := a[i] - b[i]
		sum += diff * diff
	}
	return sum
}

// sqDistBounded is sqDist with partial-distance pruning: it accumulates
// in the same order as sqDist and stops as soon as the partial sum
// reaches bound. Every term is a square (non-negative) and rounding a
// non-negative addend never moves the sum below its previous value, so
// partial sums are monotone: a pruned pair is guaranteed to satisfy
// sqDist(a, b) >= bound. ok reports that the full distance was computed
// and is strictly below bound — when true, d is bit-identical to
// sqDist(a, b). So for a pair without NaN, ok is exactly
// sqDist(a, b) < bound, the comparison the k-means lookups make.
func sqDistBounded(a, b []float64, bound float64) (d float64, ok bool) {
	sum := 0.0
	for i := range a {
		diff := a[i] - b[i]
		sum += diff * diff
		if sum >= bound {
			return sum, false
		}
	}
	return sum, true
}
