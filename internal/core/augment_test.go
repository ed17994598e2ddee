package core

import (
	"testing"

	"perspector/internal/metric"
	"perspector/internal/perf"
	"perspector/internal/rng"
)

// augmentFixtures builds a small base suite plus a candidate pool where
// one candidate is a near-duplicate of the base and others are distinct.
func augmentFixtures() (base, cands *perf.SuiteMeasurement) {
	src := rng.New(1)
	mkSeries := func(shift int) []float64 {
		return stepSeriesAt(10, 1000, 40, shift)
	}
	var baseVecs, candVecs [][]float64
	var baseSeries, candSeries [][]float64
	for i := 0; i < 5; i++ {
		baseVecs = append(baseVecs, fullVec(float64(1000*(i+1)), src))
		baseSeries = append(baseSeries, mkSeries(5+3*i))
	}
	// Candidate 0: near-duplicate of base workload 0 (should be avoided).
	dup := make([]float64, perf.NumCounters)
	copy(dup, baseVecs[0])
	candVecs = append(candVecs, dup)
	candSeries = append(candSeries, mkSeries(5))
	// Candidates 1..3: fill unexplored space with distinct shapes.
	for i := 1; i <= 3; i++ {
		candVecs = append(candVecs, fullVec(float64(20000*i), src))
		candSeries = append(candSeries, mkSeries(30-5*i))
	}
	return synthSuite("base", baseVecs, baseSeries),
		synthSuite("pool", candVecs, candSeries)
}

func TestAugmentBasics(t *testing.T) {
	base, cands := augmentFixtures()
	aug, err := Augment(base, cands, metric.DefaultOptions(), 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(aug.Chosen) != 2 || len(aug.Names) != 2 {
		t.Fatalf("chosen = %v", aug.Chosen)
	}
	if len(aug.Trace) != 3 {
		t.Fatalf("trace length = %d", len(aug.Trace))
	}
	if aug.Chosen[0] == aug.Chosen[1] {
		t.Fatal("candidate reused")
	}
	// The greedy objective must not decrease along the trace relative to
	// choosing nothing... it can decrease in principle (forced addition),
	// but with distinct candidates available the first pick should beat
	// adding the duplicate.
	for _, c := range aug.Chosen {
		if c == 0 {
			// Adding a duplicate first would be a clearly bad greedy move;
			// tolerate it only if selected last.
			if aug.Chosen[0] == 0 {
				t.Fatal("greedy picked the near-duplicate first")
			}
		}
	}
}

func TestAugmentObjectiveRespected(t *testing.T) {
	base, cands := augmentFixtures()
	// A deliberately perverse objective: prefer high clustering. The
	// duplicate candidate should then be attractive.
	perverse := func(s metric.Scores) float64 { return s.Cluster }
	aug, err := Augment(base, cands, metric.DefaultOptions(), 1, perverse)
	if err != nil {
		t.Fatal(err)
	}
	def, err := Augment(base, cands, metric.DefaultOptions(), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if aug.Chosen[0] == def.Chosen[0] {
		t.Skipf("objectives agreed on candidate %d; cannot distinguish", aug.Chosen[0])
	}
}

func TestAugmentErrors(t *testing.T) {
	base, cands := augmentFixtures()
	if _, err := Augment(base, cands, metric.DefaultOptions(), 0, nil); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := Augment(base, cands, metric.DefaultOptions(), 99, nil); err == nil {
		t.Fatal("k beyond pool accepted")
	}
	empty := &perf.SuiteMeasurement{Suite: "empty"}
	if _, err := Augment(empty, cands, metric.DefaultOptions(), 1, nil); err == nil {
		t.Fatal("empty base accepted")
	}
}

func TestAugmentDoesNotMutateInputs(t *testing.T) {
	base, cands := augmentFixtures()
	nBase, nCands := len(base.Workloads), len(cands.Workloads)
	if _, err := Augment(base, cands, metric.DefaultOptions(), 2, nil); err != nil {
		t.Fatal(err)
	}
	if len(base.Workloads) != nBase || len(cands.Workloads) != nCands {
		t.Fatal("Augment mutated its inputs")
	}
}
