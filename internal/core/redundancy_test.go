package core

import (
	"testing"

	"perspector/internal/metric"
	"perspector/internal/perf"
	"perspector/internal/rng"
)

func TestCounterRedundancyFindsCorrelatedPair(t *testing.T) {
	src := rng.New(1)
	var vecs [][]float64
	for i := 0; i < 20; i++ {
		v := make([]float64, perf.NumCounters)
		for j := range v {
			v[j] = src.Float64() * 1000
		}
		// Force LLC-loads ≈ 2 × dTLB-loads: a perfectly redundant pair.
		v[perf.LLCLoads] = 2 * v[perf.DTLBLoads]
		vecs = append(vecs, v)
	}
	sm := synthSuite("red", vecs, nil)
	pairs, err := CounterRedundancy(sm, metric.DefaultOptions(), 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) == 0 {
		t.Fatal("no redundant pairs found")
	}
	found := false
	for _, p := range pairs {
		if (p.A == perf.DTLBLoads && p.B == perf.LLCLoads) ||
			(p.A == perf.LLCLoads && p.B == perf.DTLBLoads) {
			found = true
			if p.R < 0.99 {
				t.Fatalf("forced pair r = %v", p.R)
			}
		}
	}
	if !found {
		t.Fatalf("forced pair missing from %v", pairs)
	}
	// Strongest first.
	for i := 1; i < len(pairs); i++ {
		if absF(pairs[i].R) > absF(pairs[i-1].R)+1e-12 {
			t.Fatal("pairs not sorted by |r|")
		}
	}
}

func absF(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

func TestCounterRedundancyIndependentData(t *testing.T) {
	src := rng.New(2)
	var vecs [][]float64
	for i := 0; i < 60; i++ {
		v := make([]float64, perf.NumCounters)
		for j := range v {
			v[j] = src.Float64()
		}
		vecs = append(vecs, v)
	}
	sm := synthSuite("ind", vecs, nil)
	pairs, err := CounterRedundancy(sm, metric.DefaultOptions(), 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 0 {
		t.Fatalf("independent data produced %d pairs above 0.9: %v", len(pairs), pairs)
	}
}

func TestCounterRedundancyErrors(t *testing.T) {
	sm := synthSuite("e", [][]float64{{1, 2}, {3, 4}}, nil)
	if _, err := CounterRedundancy(sm, metric.DefaultOptions(), 0); err == nil {
		t.Fatal("threshold 0 accepted")
	}
	if _, err := CounterRedundancy(sm, metric.DefaultOptions(), 1.5); err == nil {
		t.Fatal("threshold > 1 accepted")
	}
	one := synthSuite("one", [][]float64{{1, 2}}, nil)
	if _, err := CounterRedundancy(one, metric.DefaultOptions(), 0.9); err == nil {
		t.Fatal("single workload accepted")
	}
}

func TestCounterRedundancyConstantCounter(t *testing.T) {
	// A constant counter must not correlate with anything.
	var vecs [][]float64
	for i := 0; i < 10; i++ {
		v := make([]float64, perf.NumCounters)
		for j := range v {
			v[j] = float64((i*7 + j*3) % 13)
		}
		v[perf.PageFaults] = 42
		vecs = append(vecs, v)
	}
	sm := synthSuite("const", vecs, nil)
	pairs, err := CounterRedundancy(sm, metric.DefaultOptions(), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pairs {
		if p.A == perf.PageFaults || p.B == perf.PageFaults {
			t.Fatalf("constant counter reported redundant: %+v", p)
		}
	}
}
