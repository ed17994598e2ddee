package core

import (
	"testing"

	"perspector/internal/metric"
	"perspector/internal/perf"
	"perspector/internal/rng"
)

// bigSyntheticSuite builds an n-workload suite with spread counter vectors
// and mildly varying step series.
func bigSyntheticSuite(n int, seed uint64) *perf.SuiteMeasurement {
	src := rng.New(seed)
	sm := &perf.SuiteMeasurement{Suite: "synthetic"}
	for i := 0; i < n; i++ {
		var m perf.Measurement
		m.Workload = "w" + string(rune('A'+i%26)) + string(rune('0'+i/26))
		for c := perf.Counter(0); c < perf.NumCounters; c++ {
			m.Totals[c] = uint64(1000 + src.Intn(1_000_000))
			lvl1 := float64(10 + src.Intn(100))
			lvl2 := float64(10 + src.Intn(2000))
			m.Series.Samples[c] = stepSeries(lvl1, lvl2, 40)
		}
		sm.Workloads = append(sm.Workloads, m)
	}
	return sm
}

func TestSubsetBasic(t *testing.T) {
	sm := bigSyntheticSuite(43, 1)
	res, err := Subset(sm, metric.DefaultOptions(), DefaultSubsetOptions(8))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Indices) != 8 || len(res.Names) != 8 {
		t.Fatalf("subset size = %d", len(res.Indices))
	}
	seen := map[int]bool{}
	for k, i := range res.Indices {
		if i < 0 || i >= 43 || seen[i] {
			t.Fatalf("bad index set %v", res.Indices)
		}
		seen[i] = true
		if res.Names[k] != sm.Workloads[i].Workload {
			t.Fatalf("name mismatch at %d", k)
		}
	}
	if res.Deviation < 0 {
		t.Fatalf("negative deviation %v", res.Deviation)
	}
}

func TestSubsetDeterministic(t *testing.T) {
	sm := bigSyntheticSuite(30, 2)
	a, err := Subset(sm, metric.DefaultOptions(), DefaultSubsetOptions(6))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Subset(sm, metric.DefaultOptions(), DefaultSubsetOptions(6))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Indices {
		if a.Indices[i] != b.Indices[i] {
			t.Fatal("non-deterministic subset")
		}
	}
	if a.Deviation != b.Deviation {
		t.Fatal("non-deterministic deviation")
	}
}

func TestSubsetErrors(t *testing.T) {
	sm := bigSyntheticSuite(10, 3)
	if _, err := Subset(sm, metric.DefaultOptions(), DefaultSubsetOptions(1)); err == nil {
		t.Fatal("size 1 accepted")
	}
	if _, err := Subset(sm, metric.DefaultOptions(), DefaultSubsetOptions(10)); err == nil {
		t.Fatal("size == n accepted")
	}
	so := DefaultSubsetOptions(4)
	so.MaximinTries = 0
	if _, err := Subset(sm, metric.DefaultOptions(), so); err == nil {
		t.Fatal("zero tries accepted")
	}
}

func TestSubsetBeatsWorstCase(t *testing.T) {
	// The LHS subset's deviation should be modest for a well-spread
	// synthetic suite — and far better than a degenerate subset made of
	// near-duplicates. We check the absolute bar the paper suggests
	// loosely (6.53% for SPEC'17; allow a generous margin for synthetic
	// data).
	sm := bigSyntheticSuite(43, 4)
	res, err := Subset(sm, metric.DefaultOptions(), DefaultSubsetOptions(8))
	if err != nil {
		t.Fatal(err)
	}
	if res.Deviation > 0.5 {
		t.Fatalf("LHS subset deviation %v implausibly large", res.Deviation)
	}
}

func TestScoreDeviationZeroForIdentical(t *testing.T) {
	s := metric.Scores{Cluster: 0.5, Trend: 100, Coverage: 0.02, Spread: 0.4}
	if d := scoreDeviation(s, s); d != 0 {
		t.Fatalf("identical deviation = %v", d)
	}
}

func TestScoreDeviationHandlesZeroFull(t *testing.T) {
	full := metric.Scores{Cluster: 0, Trend: 1, Coverage: 1, Spread: 1}
	sub := metric.Scores{Cluster: 0.1, Trend: 1, Coverage: 1, Spread: 1}
	d := scoreDeviation(full, sub)
	if d != 0.1/4 {
		t.Fatalf("zero-full deviation = %v, want 0.025", d)
	}
}

func TestDetectPhasesStep(t *testing.T) {
	series := stepSeries(10, 1000, 60)
	changes, err := DetectPhases(series, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(changes) != 1 {
		t.Fatalf("detected %d changes, want 1: %+v", len(changes), changes)
	}
	if c := changes[0].Index; c < 25 || c > 35 {
		t.Fatalf("boundary at %d, want ~30", c)
	}
}

func TestDetectPhasesFlat(t *testing.T) {
	changes, err := DetectPhases(flatSeries(100, 50), 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(changes) != 0 {
		t.Fatalf("flat series produced changes: %+v", changes)
	}
}

func TestDetectPhasesMultiStep(t *testing.T) {
	var series []float64
	for _, lvl := range []float64{10, 500, 10, 800} {
		series = append(series, flatSeries(lvl, 25)...)
	}
	changes, err := DetectPhases(series, 5, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(changes) != 3 {
		t.Fatalf("detected %d changes, want 3: %+v", len(changes), changes)
	}
}

func TestDetectPhasesShortSeries(t *testing.T) {
	changes, err := DetectPhases([]float64{1, 2}, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if changes != nil {
		t.Fatal("short series produced changes")
	}
}

func TestDetectPhasesErrors(t *testing.T) {
	if _, err := DetectPhases(flatSeries(1, 50), 0, 2); err == nil {
		t.Fatal("window 0 accepted")
	}
	if _, err := DetectPhases(flatSeries(1, 50), 5, 0); err == nil {
		t.Fatal("threshold 0 accepted")
	}
}

func TestDetectPhasesNoiseRobust(t *testing.T) {
	// A noisy but level series should not trigger at threshold 2.5.
	src := rng.New(9)
	series := make([]float64, 80)
	for i := range series {
		series[i] = 100 + src.Norm(0, 5)
	}
	changes, err := DetectPhases(series, 8, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(changes) != 0 {
		t.Fatalf("noise triggered %d changes", len(changes))
	}
}
