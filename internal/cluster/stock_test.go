package cluster_test

import (
	"math"
	"testing"

	"perspector/internal/cluster"
	"perspector/internal/mat"
	"perspector/internal/metric"
	"perspector/internal/perf"
	"perspector/internal/rng"
	"perspector/internal/suites"
)

// TestKMeansMatchesReferenceStock holds KMeansSq, fed the artifacts'
// shared squared-distance matrix, to the reference k-means on the data
// the ClusterScore sweep clusters: every stock suite at the default
// config, under each event group, for every k in [2, n−1], at the
// sweep's own seed and five more. The artifacts' silhouette distances
// must be mat.Dist bit for bit.
func TestKMeansMatchesReferenceStock(t *testing.T) {
	if testing.Short() {
		t.Skip("measures the six stock suites at the default config")
	}
	sms, err := suites.RunAll(suites.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	skipped := 0
	for _, name := range []string{"all", "llc", "tlb"} {
		g, err := perf.GroupByName(name)
		if err != nil {
			t.Fatal(err)
		}
		opts := metric.DefaultOptions()
		opts.Counters = g.Counters
		for _, sm := range sms {
			a := metric.NewArtifacts(sm, opts)
			x, sq, dist := a.OwnNorm(), a.SqDist(), a.Dist()
			for i := 0; i < x.Rows(); i++ {
				for j := 0; j < x.Rows(); j++ {
					if want := mat.Dist(x.RowView(i), x.RowView(j)); math.Float64bits(dist[i][j]) != math.Float64bits(want) {
						t.Fatalf("%s %s: dist[%d][%d] = %x, mat.Dist %x", name, sm.Suite, i, j, dist[i][j], want)
					}
				}
			}
			for k := 2; k < x.Rows(); k++ {
				seeds := []uint64{rng.ChildSeed(opts.KMeansSeed, k), 1, 2, 3, 4, 5}
				for _, seed := range seeds {
					km := cluster.DefaultKMeansOptions(seed)
					km.Restarts = opts.KMeansRestarts
					got, err := cluster.KMeansSq(x, sq, k, km)
					if err != nil {
						t.Fatal(err)
					}
					if err := cluster.SameKMeansResult(got, cluster.KMeansReference(x, k, km)); err != nil {
						t.Fatalf("%s %s k=%d seed %d: %v", name, sm.Suite, k, seed, err)
					}
					skipped += got.Work.ItersSkipped
				}
			}
		}
	}
	if skipped == 0 {
		t.Fatal("no stock run skipped a cycle, so the fast-forward went untested")
	}
}
