package core

import (
	"testing"

	"perspector/internal/cluster"
	"perspector/internal/metric"
	"perspector/internal/perf"
	"perspector/internal/rng"
)

func TestHierarchicalBaselineTwoGroups(t *testing.T) {
	// Two distinct workload families: the baseline pipeline must separate
	// them and report a high silhouette at k=2.
	src := rng.New(1)
	var vecs [][]float64
	for i := 0; i < 6; i++ {
		vecs = append(vecs, fullVec(100, src))
	}
	for i := 0; i < 6; i++ {
		vecs = append(vecs, fullVec(1e6, src))
	}
	sm := synthSuite("base", vecs, nil)
	res, err := HierarchicalBaseline(sm, metric.DefaultOptions(), cluster.AverageLinkage, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.K != 2 {
		t.Fatalf("K = %d", res.K)
	}
	// Each truth group must be pure.
	for i := 1; i < 6; i++ {
		if res.Labels[i] != res.Labels[0] {
			t.Fatalf("group A split: %v", res.Labels)
		}
	}
	for i := 7; i < 12; i++ {
		if res.Labels[i] != res.Labels[6] {
			t.Fatalf("group B split: %v", res.Labels)
		}
	}
	if res.Labels[0] == res.Labels[6] {
		t.Fatal("groups merged")
	}
	if res.Silhouette < 0.6 {
		t.Fatalf("silhouette = %v for clean groups", res.Silhouette)
	}
	if len(res.Representatives) != 2 {
		t.Fatalf("representatives = %v", res.Representatives)
	}
	// Representatives must come from different clusters.
	if res.Labels[res.Representatives[0]] == res.Labels[res.Representatives[1]] {
		t.Fatal("representatives from the same cluster")
	}
	if res.RetainedComponents < 1 {
		t.Fatal("no PCA components retained")
	}
}

func TestHierarchicalBaselineErrors(t *testing.T) {
	sm := synthSuite("e", [][]float64{{1, 2}, {3, 4}}, nil)
	if _, err := HierarchicalBaseline(sm, metric.DefaultOptions(), cluster.AverageLinkage, 0); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := HierarchicalBaseline(sm, metric.DefaultOptions(), cluster.AverageLinkage, 3); err == nil {
		t.Fatal("k>n accepted")
	}
	bad := metric.DefaultOptions()
	bad.Counters = nil
	if _, err := HierarchicalBaseline(sm, bad, cluster.AverageLinkage, 1); err == nil {
		t.Fatal("no counters accepted")
	}
}

func TestProfilePhases(t *testing.T) {
	// Workload 0: strong step in every counter. Workload 1: flat.
	phased := stepSeries(10, 2000, 60)
	flat := flatSeries(100, 60)
	sm := synthSuite("p", [][]float64{{1}, {1}},
		[][]float64{phased, flat})
	opts := metric.DefaultOptions()
	opts.WarmupFrac = 0
	prof, err := ProfilePhases(sm, opts, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(prof.Boundaries) != 2 {
		t.Fatalf("boundaries = %v", prof.Boundaries)
	}
	// Workload 0 has one boundary per counter (14 counters).
	if prof.Boundaries[0] != int(perf.NumCounters) {
		t.Fatalf("phased workload boundaries = %d, want %d",
			prof.Boundaries[0], perf.NumCounters)
	}
	if prof.Boundaries[1] != 0 {
		t.Fatalf("flat workload boundaries = %d", prof.Boundaries[1])
	}
	wantMean := float64(perf.NumCounters) / 2
	if prof.MeanBoundaries != wantMean {
		t.Fatalf("mean = %v, want %v", prof.MeanBoundaries, wantMean)
	}
}

func TestProfilePhasesErrors(t *testing.T) {
	sm := synthSuite("e", [][]float64{{1}}, nil) // no series
	if _, err := ProfilePhases(sm, metric.DefaultOptions(), 5, 2); err == nil {
		t.Fatal("missing series accepted")
	}
	withSeries := synthSuite("s", [][]float64{{1}}, [][]float64{flatSeries(1, 30)})
	if _, err := ProfilePhases(withSeries, metric.DefaultOptions(), 0, 2); err == nil {
		t.Fatal("window 0 accepted")
	}
}

func TestProfilePhasesWarmupExcluded(t *testing.T) {
	// A shift entirely inside the warmup prefix must not count.
	series := make([]float64, 100)
	for i := range series {
		if i < 5 {
			series[i] = 5000 // warmup spike
		} else {
			series[i] = 100
		}
	}
	sm := synthSuite("w", [][]float64{{1}}, [][]float64{series})
	opts := metric.DefaultOptions() // WarmupFrac = 0.1 drops the first 10 samples
	prof, err := ProfilePhases(sm, opts, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if prof.Boundaries[0] != 0 {
		t.Fatalf("warmup spike detected as %d phases", prof.Boundaries[0])
	}
}
