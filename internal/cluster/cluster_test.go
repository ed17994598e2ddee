package cluster

import (
	"math"
	"testing"
	"testing/quick"

	"perspector/internal/mat"
	"perspector/internal/rng"
)

// twoBlobs builds two well-separated Gaussian blobs of size each.
func twoBlobs(seed uint64, each int) (*mat.Matrix, []int) {
	src := rng.New(seed)
	rows := make([][]float64, 0, 2*each)
	truth := make([]int, 0, 2*each)
	for i := 0; i < each; i++ {
		rows = append(rows, []float64{src.Norm(0, 0.1), src.Norm(0, 0.1)})
		truth = append(truth, 0)
	}
	for i := 0; i < each; i++ {
		rows = append(rows, []float64{src.Norm(5, 0.1), src.Norm(5, 0.1)})
		truth = append(truth, 1)
	}
	return mat.FromRows(rows), truth
}

func TestKMeansTwoBlobs(t *testing.T) {
	x, truth := twoBlobs(1, 20)
	res, err := KMeans(x, 2, DefaultKMeansOptions(7))
	if err != nil {
		t.Fatal(err)
	}
	// All points in the same truth group must share a label.
	for i := 1; i < 20; i++ {
		if res.Labels[i] != res.Labels[0] {
			t.Fatalf("blob 0 split: labels %v", res.Labels[:20])
		}
	}
	for i := 21; i < 40; i++ {
		if res.Labels[i] != res.Labels[20] {
			t.Fatalf("blob 1 split")
		}
	}
	if res.Labels[0] == res.Labels[20] {
		t.Fatal("blobs merged")
	}
	_ = truth
}

func TestKMeansDeterministic(t *testing.T) {
	x, _ := twoBlobs(2, 15)
	a, _ := KMeans(x, 3, DefaultKMeansOptions(42))
	b, _ := KMeans(x, 3, DefaultKMeansOptions(42))
	for i := range a.Labels {
		if a.Labels[i] != b.Labels[i] {
			t.Fatal("same seed produced different clusterings")
		}
	}
	if a.Inertia != b.Inertia {
		t.Fatal("same seed produced different inertia")
	}
}

func TestKMeansKEqualsN(t *testing.T) {
	x := mat.FromRows([][]float64{{0, 0}, {1, 1}, {2, 2}})
	res, err := KMeans(x, 3, DefaultKMeansOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Inertia > 1e-9 {
		t.Fatalf("k=n inertia = %v, want 0", res.Inertia)
	}
	seen := map[int]bool{}
	for _, l := range res.Labels {
		seen[l] = true
	}
	if len(seen) != 3 {
		t.Fatalf("k=n produced %d distinct labels", len(seen))
	}
}

func TestKMeansK1(t *testing.T) {
	x := mat.FromRows([][]float64{{0, 0}, {2, 0}})
	res, err := KMeans(x, 1, DefaultKMeansOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Centroids[0][0]-1) > 1e-9 {
		t.Fatalf("k=1 centroid = %v", res.Centroids[0])
	}
}

func TestKMeansErrors(t *testing.T) {
	x := mat.FromRows([][]float64{{0}, {1}})
	if _, err := KMeans(x, 0, DefaultKMeansOptions(1)); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := KMeans(x, 3, DefaultKMeansOptions(1)); err == nil {
		t.Fatal("k>n accepted")
	}
	if _, err := KMeans(x, 1, KMeansOptions{Seed: 1}); err == nil {
		t.Fatal("zero MaxIter accepted")
	}
}

func TestKMeansInertiaMonotoneInK(t *testing.T) {
	// Best inertia should not increase as k grows (with enough restarts).
	src := rng.New(9)
	rows := make([][]float64, 30)
	for i := range rows {
		rows[i] = []float64{src.Float64() * 10, src.Float64() * 10}
	}
	x := mat.FromRows(rows)
	prev := math.Inf(1)
	for k := 1; k <= 6; k++ {
		res, err := KMeans(x, k, DefaultKMeansOptions(3))
		if err != nil {
			t.Fatal(err)
		}
		if res.Inertia > prev*1.02 { // small slack: restarts are heuristic
			t.Fatalf("inertia rose at k=%d: %v > %v", k, res.Inertia, prev)
		}
		prev = res.Inertia
	}
}

func TestKMeansIdenticalPoints(t *testing.T) {
	// Degenerate data: more clusters than distinct points must not hang.
	x := mat.FromRows([][]float64{{1, 1}, {1, 1}, {1, 1}, {1, 1}})
	res, err := KMeans(x, 3, DefaultKMeansOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Inertia > 1e-9 {
		t.Fatalf("identical points inertia = %v", res.Inertia)
	}
}

func TestSilhouetteWellSeparated(t *testing.T) {
	x, truth := twoBlobs(3, 10)
	s, err := Silhouette(x, truth, 2)
	if err != nil {
		t.Fatal(err)
	}
	if s < 0.9 {
		t.Fatalf("well-separated silhouette = %v, want > 0.9", s)
	}
}

func TestSilhouetteK1IsZero(t *testing.T) {
	x, _ := twoBlobs(4, 5)
	labels := make([]int, 10)
	s, err := Silhouette(x, labels, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s != 0 {
		t.Fatalf("k=1 silhouette = %v, want 0 (Eq. 3)", s)
	}
}

func TestSilhouetteBadSplit(t *testing.T) {
	// Splitting a single tight blob in half gives a poor (near-zero or
	// negative) silhouette.
	src := rng.New(5)
	rows := make([][]float64, 20)
	labels := make([]int, 20)
	for i := range rows {
		rows[i] = []float64{src.Norm(0, 1), src.Norm(0, 1)}
		labels[i] = i % 2
	}
	s, err := Silhouette(mat.FromRows(rows), labels, 2)
	if err != nil {
		t.Fatal(err)
	}
	if s > 0.3 {
		t.Fatalf("random split silhouette = %v, want small", s)
	}
}

func TestSilhouetteBounds(t *testing.T) {
	f := func(seed uint64, kRaw uint8) bool {
		src := rng.New(seed)
		n := 12
		rows := make([][]float64, n)
		for i := range rows {
			rows[i] = []float64{src.Float64(), src.Float64(), src.Float64()}
		}
		k := int(kRaw%4) + 2 // 2..5
		x := mat.FromRows(rows)
		res, err := KMeans(x, k, DefaultKMeansOptions(seed))
		if err != nil {
			return false
		}
		// Renumber labels to a dense range (KMeans already does), compute k
		// as the observed number of clusters.
		maxL := 0
		for _, l := range res.Labels {
			if l > maxL {
				maxL = l
			}
		}
		s, err := Silhouette(x, res.Labels, maxL+1)
		if err != nil {
			return false
		}
		return s >= -1-1e-9 && s <= 1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSilhouetteErrors(t *testing.T) {
	x := mat.FromRows([][]float64{{0}, {1}})
	if _, err := Silhouette(x, []int{0}, 2); err == nil {
		t.Fatal("label count mismatch accepted")
	}
	if _, err := Silhouette(x, []int{0, 5}, 2); err == nil {
		t.Fatal("out-of-range label accepted")
	}
	if _, err := Silhouette(x, []int{0, 0}, 2); err == nil {
		t.Fatal("empty cluster accepted")
	}
	if _, err := Silhouette(x, []int{0, 0}, 0); err == nil {
		t.Fatal("k=0 accepted")
	}
}

func TestSilhouetteSingletonClusters(t *testing.T) {
	x := mat.FromRows([][]float64{{0, 0}, {10, 10}})
	s, err := Silhouette(x, []int{0, 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Both clusters are singletons: S(p) = 0 by convention.
	if s != 0 {
		t.Fatalf("singleton silhouette = %v", s)
	}
}

// TestSilhouetteDistPairs checks the distance reads SilhouetteDist
// reports: n−1 for each point outside a singleton cluster, none at k=1.
func TestSilhouetteDistPairs(t *testing.T) {
	x, _ := twoBlobs(5, 4) // 8 points
	dist := Distances(SqDistances(x))
	for _, tc := range []struct {
		labels []int
		k      int
		want   int
	}{
		{[]int{0, 0, 0, 0, 0, 0, 0, 0}, 1, 0},
		{[]int{0, 0, 0, 0, 1, 1, 1, 1}, 2, 8 * 7},
		{[]int{0, 1, 1, 1, 1, 1, 1, 2}, 3, 6 * 7},
		{[]int{0, 1, 2, 3, 4, 5, 6, 6}, 7, 2 * 7},
	} {
		if _, got, err := SilhouetteDist(dist, tc.labels, tc.k); err != nil || got != tc.want {
			t.Errorf("labels %v: %d pairs (err %v), want %d", tc.labels, got, err, tc.want)
		}
	}
}

func TestSilhouetteLabelRenumberingInvariant(t *testing.T) {
	// Swapping cluster ids must not change the score.
	x, truth := twoBlobs(11, 8)
	swapped := make([]int, len(truth))
	for i, l := range truth {
		swapped[i] = 1 - l
	}
	a, err := Silhouette(x, truth, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Silhouette(x, swapped, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a-b) > 1e-12 {
		t.Fatalf("silhouette changed under relabeling: %v vs %v", a, b)
	}
}

func TestKMeansLabelsDense(t *testing.T) {
	// Every label in [0,k) must be used (no gaps) for k <= distinct points.
	src := rng.New(13)
	rows := make([][]float64, 24)
	for i := range rows {
		rows[i] = []float64{src.Float64() * 10, src.Float64() * 10}
	}
	x := mat.FromRows(rows)
	for k := 2; k <= 6; k++ {
		res, err := KMeans(x, k, DefaultKMeansOptions(5))
		if err != nil {
			t.Fatal(err)
		}
		seen := make([]bool, k)
		for _, l := range res.Labels {
			if l < 0 || l >= k {
				t.Fatalf("k=%d: label %d out of range", k, l)
			}
			seen[l] = true
		}
		for c, s := range seen {
			if !s {
				t.Fatalf("k=%d: cluster %d empty", k, c)
			}
		}
	}
}

func TestHierarchicalTwoBlobs(t *testing.T) {
	x, truth := twoBlobs(6, 8)
	for _, link := range []Linkage{SingleLinkage, CompleteLinkage, AverageLinkage} {
		dg, err := Hierarchical(x, link)
		if err != nil {
			t.Fatal(err)
		}
		labels, err := dg.Cut(2)
		if err != nil {
			t.Fatal(err)
		}
		// Check agreement with truth up to label swap.
		agree, swap := 0, 0
		for i := range labels {
			if labels[i] == truth[i] {
				agree++
			} else {
				swap++
			}
		}
		if agree != len(labels) && swap != len(labels) {
			t.Fatalf("%v linkage mislabelled blobs: %v", link, labels)
		}
	}
}

func TestHierarchicalMergeCount(t *testing.T) {
	x, _ := twoBlobs(7, 5)
	dg, err := Hierarchical(x, AverageLinkage)
	if err != nil {
		t.Fatal(err)
	}
	if len(dg.Merges) != x.Rows()-1 {
		t.Fatalf("merges = %d, want %d", len(dg.Merges), x.Rows()-1)
	}
	if dg.NumPoints() != x.Rows() {
		t.Fatalf("NumPoints = %d", dg.NumPoints())
	}
}

func TestHierarchicalCutEdges(t *testing.T) {
	x := mat.FromRows([][]float64{{0}, {1}, {2}, {3}})
	dg, err := Hierarchical(x, SingleLinkage)
	if err != nil {
		t.Fatal(err)
	}
	labels, err := dg.Cut(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range labels {
		if l != 0 {
			t.Fatalf("k=1 cut = %v", labels)
		}
	}
	labels, err = dg.Cut(4)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, l := range labels {
		seen[l] = true
	}
	if len(seen) != 4 {
		t.Fatalf("k=n cut = %v", labels)
	}
	if _, err := dg.Cut(0); err == nil {
		t.Fatal("Cut(0) accepted")
	}
	if _, err := dg.Cut(5); err == nil {
		t.Fatal("Cut(n+1) accepted")
	}
}

func TestHierarchicalSingleLinkageChain(t *testing.T) {
	// Single linkage on a chain 0-1-2-10: first merges are the unit gaps.
	x := mat.FromRows([][]float64{{0}, {1}, {2}, {10}})
	dg, err := Hierarchical(x, SingleLinkage)
	if err != nil {
		t.Fatal(err)
	}
	if dg.Merges[0].Distance != 1 || dg.Merges[1].Distance != 1 {
		t.Fatalf("first merges = %+v", dg.Merges[:2])
	}
	if dg.Merges[2].Distance != 8 {
		t.Fatalf("last merge distance = %v, want 8", dg.Merges[2].Distance)
	}
}

func TestHierarchicalCompleteVsSingle(t *testing.T) {
	// Complete linkage's final merge distance >= single linkage's on the
	// same data (max vs min aggregation).
	x, _ := twoBlobs(8, 6)
	dgS, _ := Hierarchical(x, SingleLinkage)
	dgC, _ := Hierarchical(x, CompleteLinkage)
	last := len(dgS.Merges) - 1
	if dgC.Merges[last].Distance < dgS.Merges[last].Distance {
		t.Fatal("complete linkage final distance < single linkage")
	}
}

func TestHierarchicalEmpty(t *testing.T) {
	if _, err := Hierarchical(mat.New(0, 2), SingleLinkage); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestLinkageString(t *testing.T) {
	if SingleLinkage.String() != "single" || CompleteLinkage.String() != "complete" ||
		AverageLinkage.String() != "average" {
		t.Fatal("linkage names wrong")
	}
	if Linkage(99).String() == "" {
		t.Fatal("unknown linkage should still format")
	}
}

func BenchmarkKMeans43Workloads(b *testing.B) {
	// The SPEC'17-sized clustering problem: 43 points, 14 dims.
	src := rng.New(1)
	rows := make([][]float64, 43)
	for i := range rows {
		row := make([]float64, 14)
		for j := range row {
			row[j] = src.Float64()
		}
		rows[i] = row
	}
	x := mat.FromRows(rows)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := KMeans(x, 5, DefaultKMeansOptions(2)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSilhouette43(b *testing.B) {
	src := rng.New(1)
	rows := make([][]float64, 43)
	labels := make([]int, 43)
	for i := range rows {
		row := make([]float64, 14)
		for j := range row {
			row[j] = src.Float64()
		}
		rows[i] = row
		labels[i] = i % 5
	}
	x := mat.FromRows(rows)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Silhouette(x, labels, 5); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHierarchical43(b *testing.B) {
	src := rng.New(1)
	rows := make([][]float64, 43)
	for i := range rows {
		row := make([]float64, 14)
		for j := range row {
			row[j] = src.Float64()
		}
		rows[i] = row
	}
	x := mat.FromRows(rows)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Hierarchical(x, AverageLinkage); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSqDistBoundedMatchesExact: the pruned distance must make exactly
// the decisions the exhaustive scan makes — ok iff the full distance is
// strictly below the bound, and a completed sum bit-identical to sqDist
// (same accumulation order). KMeans correctness rests on this.
func TestSqDistBoundedMatchesExact(t *testing.T) {
	src := rng.New(42)
	for trial := 0; trial < 2000; trial++ {
		d := 1 + src.Intn(20)
		a := make([]float64, d)
		b := make([]float64, d)
		for i := 0; i < d; i++ {
			a[i] = src.Norm(0, 1)
			b[i] = src.Norm(0, 1)
		}
		exact := sqDist(a, b)
		var bound float64
		switch trial % 4 {
		case 0:
			bound = math.Inf(1)
		case 1:
			bound = exact // boundary: dd < bound is false, prune must agree
		case 2:
			bound = exact * (0.25 + src.Float64())
		default:
			bound = src.Float64() * float64(d)
		}
		got, ok := sqDistBounded(a, b, bound)
		if want := exact < bound; ok != want {
			t.Fatalf("trial %d: ok=%v, want %v (exact=%g bound=%g)", trial, ok, want, exact, bound)
		}
		if ok && got != exact {
			t.Fatalf("trial %d: completed sum %x diverges from sqDist %x", trial, got, exact)
		}
	}
}

// TestKMeansPrunedMatchesReference pins the full KMeans pipeline against
// a reference assignment pass without pruning: for a sweep of k the
// labels and inertia must be identical.
func TestKMeansPrunedMatchesReference(t *testing.T) {
	src := rng.New(9)
	rows := make([][]float64, 48)
	for i := range rows {
		row := make([]float64, 14)
		for j := range row {
			row[j] = src.Float64()
		}
		rows[i] = row
	}
	x := mat.FromRows(rows)
	for k := 2; k < 12; k++ {
		res, err := KMeans(x, k, DefaultKMeansOptions(uint64(k)))
		if err != nil {
			t.Fatal(err)
		}
		// Reference assignment: every point must sit on its nearest
		// centroid by the exhaustive strict-< scan.
		for i := 0; i < x.Rows(); i++ {
			bestC, bestD := 0, math.Inf(1)
			for c := range res.Centroids {
				if dd := sqDist(x.RowView(i), res.Centroids[c]); dd < bestD {
					bestD = dd
					bestC = c
				}
			}
			// Empty-cluster repair may move a point off its nearest
			// centroid legitimately; accept only exact matches or repairs.
			if res.Labels[i] != bestC {
				if dd := sqDist(x.RowView(i), res.Centroids[res.Labels[i]]); dd < bestD {
					t.Fatalf("k=%d point %d: label %d closer than reference %d?", k, i, res.Labels[i], bestC)
				}
			}
		}
		inertia := 0.0
		for i := 0; i < x.Rows(); i++ {
			inertia += sqDist(x.RowView(i), res.Centroids[res.Labels[i]])
		}
		if inertia != res.Inertia {
			t.Fatalf("k=%d: inertia %x, recomputed %x", k, res.Inertia, inertia)
		}
	}
}
