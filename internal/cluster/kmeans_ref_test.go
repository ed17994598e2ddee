package cluster

import (
	"fmt"
	"math"
	"testing"

	"perspector/internal/mat"
	"perspector/internal/rng"
)

// KMeansReference exports the reference k-means to the external stock
// test in this directory.
var KMeansReference = kmeansReference

// SameKMeansResult exports sameKMeansResult likewise.
var SameKMeansResult = sameKMeansResult

// kmeansReference is k-means without the squared-distance lookups, the
// cycle fast-forward or the shared restart scratch: every restart seeds
// with computed distances, runs all its Lloyd iterations on buffers of
// its own, and the earliest restart with the minimal inertia wins.
// KMeans must return its labels, centroids, inertia and iteration count
// bit for bit. The reference's Work.Iters counts every iteration of every
// restart, which KMeans must either run or skip.
func kmeansReference(x *mat.Matrix, k int, opts KMeansOptions) *KMeansResult {
	src := rng.New(opts.Seed)
	var best *KMeansResult
	iters := 0
	for r := 0; r < opts.Restarts; r++ {
		res := kmeansOnceReference(x, k, opts, src.Split())
		iters += res.Iterations
		if best == nil || res.Inertia < best.Inertia {
			best = res
		}
	}
	best.Work = KMeansWork{Restarts: opts.Restarts, Iters: iters}
	return best
}

func kmeansOnceReference(x *mat.Matrix, k int, opts KMeansOptions, src *rng.Source) *KMeansResult {
	n, d := x.Rows(), x.Cols()
	centroids := seedPlusPlusReference(x, k, src)
	labels := make([]int, n)
	counts := make([]int, k)
	newCentroids := make([][]float64, k)
	for c := range newCentroids {
		newCentroids[c] = make([]float64, d)
	}

	iterations := 0
	for iter := 0; iter < opts.MaxIter; iter++ {
		iterations = iter + 1
		for i := 0; i < n; i++ {
			row := x.RowView(i)
			bestC, bestD := 0, math.Inf(1)
			for c := 0; c < k; c++ {
				if dd := sqDist(row, centroids[c]); dd < bestD {
					bestD = dd
					bestC = c
				}
			}
			labels[i] = bestC
		}
		for c := 0; c < k; c++ {
			counts[c] = 0
			for j := 0; j < d; j++ {
				newCentroids[c][j] = 0
			}
		}
		for i := 0; i < n; i++ {
			c := labels[i]
			counts[c]++
			row := x.RowView(i)
			for j := 0; j < d; j++ {
				newCentroids[c][j] += row[j]
			}
		}
		for c := 0; c < k; c++ {
			if counts[c] == 0 {
				far, farD := 0, -1.0
				for i := 0; i < n; i++ {
					if dd := sqDist(x.RowView(i), centroids[labels[i]]); dd > farD {
						farD = dd
						far = i
					}
				}
				copy(newCentroids[c], x.RowView(far))
				counts[c] = 1
				labels[far] = c
				continue
			}
			inv := 1 / float64(counts[c])
			for j := 0; j < d; j++ {
				newCentroids[c][j] *= inv
			}
		}
		maxMove := 0.0
		for c := 0; c < k; c++ {
			if mv := math.Sqrt(sqDist(centroids[c], newCentroids[c])); mv > maxMove {
				maxMove = mv
			}
			copy(centroids[c], newCentroids[c])
		}
		if maxMove <= opts.Tol {
			break
		}
	}

	for c := 0; c < k; c++ {
		counts[c] = 0
	}
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
			if dd := sqDist(x.RowView(i), centroids[labels[i]]); dd > farD {
				farD = dd
				far = i
			}
		}
		if far < 0 {
			break
		}
		counts[labels[far]]--
		labels[far] = c
		counts[c] = 1
		copy(centroids[c], x.RowView(far))
	}

	inertia := 0.0
	for i := 0; i < n; i++ {
		inertia += sqDist(x.RowView(i), centroids[labels[i]])
	}
	return &KMeansResult{Labels: labels, Centroids: centroids, Inertia: inertia, Iterations: iterations}
}

func seedPlusPlusReference(x *mat.Matrix, k int, src *rng.Source) [][]float64 {
	n := x.Rows()
	centroids := make([][]float64, 0, k)
	first := src.Intn(n)
	centroids = append(centroids, append([]float64(nil), x.RowView(first)...))
	minDist := make([]float64, n)
	for i := range minDist {
		minDist[i] = sqDist(x.RowView(i), centroids[0])
	}
	for len(centroids) < k {
		total := 0.0
		for _, dd := range minDist {
			total += dd
		}
		var chosen int
		if total == 0 {
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
		c := append([]float64(nil), x.RowView(chosen)...)
		centroids = append(centroids, c)
		for i := 0; i < n; i++ {
			if dd := sqDist(x.RowView(i), c); dd < minDist[i] {
				minDist[i] = dd
			}
		}
	}
	return centroids
}

// sameKMeansResult reports the first difference between got and want in
// labels, centroid bits, inertia bits, iteration count, or the restarts
// and iterations run or skipped over all restarts.
func sameKMeansResult(got, want *KMeansResult) error {
	for i := range want.Labels {
		if got.Labels[i] != want.Labels[i] {
			return fmt.Errorf("label %d = %d, reference %d", i, got.Labels[i], want.Labels[i])
		}
	}
	for c := range want.Centroids {
		for j := range want.Centroids[c] {
			if g, w := got.Centroids[c][j], want.Centroids[c][j]; math.Float64bits(g) != math.Float64bits(w) {
				return fmt.Errorf("centroid %d[%d] = %x, reference %x", c, j, g, w)
			}
		}
	}
	if math.Float64bits(got.Inertia) != math.Float64bits(want.Inertia) {
		return fmt.Errorf("inertia %x, reference %x", got.Inertia, want.Inertia)
	}
	if got.Iterations != want.Iterations {
		return fmt.Errorf("%d iterations, reference %d", got.Iterations, want.Iterations)
	}
	if w := got.Work; w.Restarts != want.Work.Restarts || w.Iters+w.ItersSkipped != want.Work.Iters {
		return fmt.Errorf("work %+v, reference %+v", w, want.Work)
	}
	return nil
}

// kmeansCase builds a small point set with repeated coordinates and
// forced duplicate rows, the inputs on which k-means cycles and repairs
// empty clusters. levels == 0 draws uniform coordinates; otherwise each
// coordinate is one of levels+1 grid values.
func kmeansCase(seed uint64, n, d, levels int) *mat.Matrix {
	src := rng.New(seed)
	rows := make([][]float64, n)
	for i := range rows {
		if i > 0 && src.Intn(3) == 0 {
			rows[i] = append([]float64(nil), rows[src.Intn(i)]...)
			continue
		}
		rows[i] = make([]float64, d)
		for j := range rows[i] {
			if levels == 0 {
				rows[i][j] = src.Float64()
			} else {
				rows[i][j] = float64(src.Intn(levels+1)) / float64(levels)
			}
		}
	}
	return mat.FromRows(rows)
}

// checkKMeansVsReference runs KMeans and the reference on one input and
// returns KMeans's work.
func checkKMeansVsReference(t *testing.T, x *mat.Matrix, k int, opts KMeansOptions) KMeansWork {
	t.Helper()
	got, err := KMeans(x, k, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameKMeansResult(got, kmeansReference(x, k, opts)); err != nil {
		t.Fatalf("n=%d d=%d k=%d %+v: %v", x.Rows(), x.Cols(), k, opts, err)
	}
	return got.Work
}

// TestKMeansMatchesReferenceRandom holds KMeans to the reference on small
// point sets with duplicate rows, every k up to n and short and long
// iteration budgets. The inputs must exercise the fast-forward: some runs
// skip cycling iterations.
func TestKMeansMatchesReferenceRandom(t *testing.T) {
	var work KMeansWork
	for seed := uint64(1); seed <= 60; seed++ {
		n, d := 4+int(seed%9), 1+int(seed%3)
		x := kmeansCase(seed, n, d, int(seed%4))
		for k := 1; k <= n; k++ {
			for _, maxIter := range []int{1, 2, 7, 100} {
				opts := KMeansOptions{MaxIter: maxIter, Restarts: 1 + int(seed%8), Tol: 1e-9, Seed: seed*31 + uint64(k)}
				w := checkKMeansVsReference(t, x, k, opts)
				work.Iters += w.Iters
				work.ItersSkipped += w.ItersSkipped
			}
		}
	}
	if work.ItersSkipped == 0 {
		t.Fatalf("work %+v: no run skipped a cycle, so the fast-forward went untested", work)
	}
}

// TestKMeansScratchReuse runs one KMeansScratch over a sequence of calls
// whose point counts, dimensions and k rise and fall, so every buffer is
// reused both larger and smaller than its last use: each result must be
// the reference's.
func TestKMeansScratchReuse(t *testing.T) {
	var ks KMeansScratch
	for seed := uint64(1); seed <= 40; seed++ {
		n, d := 3+int(seed*7%14), 1+int(seed%4)
		x := kmeansCase(seed, n, d, int(seed%3))
		k := 1 + int(seed*5)%n
		opts := KMeansOptions{MaxIter: 100, Restarts: 1 + int(seed%5), Tol: 1e-9, Seed: seed}
		got, err := ks.KMeansSq(x, SqDistances(x), k, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameKMeansResult(got, kmeansReference(x, k, opts)); err != nil {
			t.Fatalf("call %d (n=%d d=%d k=%d): %v", seed, n, d, k, err)
		}
	}
}

// FuzzKMeansVsReference holds KMeans to the reference on fuzzed small
// point sets with duplicate rows, k up to n, and random iteration and
// restart budgets.
func FuzzKMeansVsReference(f *testing.F) {
	f.Add(uint64(1), uint8(8), uint8(2), uint8(6), uint8(100), uint8(8), uint8(1))
	f.Add(uint64(7), uint8(12), uint8(1), uint8(11), uint8(37), uint8(3), uint8(2))
	f.Add(uint64(9), uint8(5), uint8(3), uint8(5), uint8(1), uint8(1), uint8(0))
	f.Fuzz(func(t *testing.T, seed uint64, nRaw, dRaw, kRaw, iterRaw, restartsRaw, levels uint8) {
		n := 1 + int(nRaw%16)
		d := 1 + int(dRaw%4)
		k := 1 + int(kRaw)%n
		opts := KMeansOptions{
			MaxIter:  1 + int(iterRaw)%150,
			Restarts: 1 + int(restartsRaw%8),
			Tol:      1e-9,
			Seed:     seed,
		}
		checkKMeansVsReference(t, kmeansCase(seed, n, d, int(levels%5)), k, opts)
	})
}

// TestKMeansRejectsNonFinite: the squared-distance lookups match the
// bounded distances only on finite points, so KMeans refuses the rest.
func TestKMeansRejectsNonFinite(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		x := mat.FromRows([][]float64{{0, 1}, {v, 2}, {3, 4}})
		if _, err := KMeans(x, 2, DefaultKMeansOptions(1)); err == nil {
			t.Errorf("KMeans accepted a point with %v", v)
		}
	}
}

// TestDistancesMatchDist: the silhouette's distances from SqDistances are
// mat.Dist bit for bit, and the squared matrix is symmetric with a zero
// diagonal.
func TestDistancesMatchDist(t *testing.T) {
	x := kmeansCase(3, 17, 5, 0)
	sq := SqDistances(x)
	dist := Distances(sq)
	for i := 0; i < x.Rows(); i++ {
		for j := 0; j < x.Rows(); j++ {
			if want := mat.Dist(x.RowView(i), x.RowView(j)); math.Float64bits(dist[i][j]) != math.Float64bits(want) {
				t.Fatalf("dist[%d][%d] = %x, mat.Dist %x", i, j, dist[i][j], want)
			}
			if want := sqDist(x.RowView(i), x.RowView(j)); math.Float64bits(sq[i][j]) != math.Float64bits(want) {
				t.Fatalf("sq[%d][%d] = %x, sqDist %x", i, j, sq[i][j], want)
			}
		}
	}
}
