package suites

import (
	"testing"

	"perspector/internal/perf"
)

func TestCalibrateEqualizesCycles(t *testing.T) {
	cfg := testConfig()
	// Nbench mixes fast ALU kernels and memory-bound kernels, so raw
	// cycle counts differ; after calibration they must agree within 2x.
	s := stock(t, "nbench", cfg)
	const target = 2_000_000
	cal, err := Calibrate(s, cfg, target, 1_000, 50_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(cal.Specs) != len(s.Specs) {
		t.Fatalf("workload count changed: %d", len(cal.Specs))
	}
	calCfg := cfg
	sm, err := Run(cal, calCfg)
	if err != nil {
		t.Fatal(err)
	}
	// Note Run caps at spec.Instructions, which Calibrate rewrote.
	lo, hi := ^uint64(0), uint64(0)
	for _, m := range sm.Workloads {
		c := m.Totals.Get(perf.CPUCycles)
		if c < lo {
			lo = c
		}
		if c > hi {
			hi = c
		}
	}
	if float64(hi)/float64(lo) > 2 {
		t.Fatalf("calibrated cycles span %d..%d (> 2x)", lo, hi)
	}
	// And they should bracket the target.
	if hi < target/2 || lo > target*2 {
		t.Fatalf("calibrated cycles %d..%d far from target %d", lo, hi, target)
	}
}

func TestCalibrateRespectsBounds(t *testing.T) {
	cfg := testConfig()
	s := stock(t, "nbench", cfg)
	cal, err := Calibrate(s, cfg, 1_000_000_000, 1_000, 30_000)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range cal.Specs {
		if spec.Instructions > 30_000 || spec.Instructions < 1_000 {
			t.Fatalf("%s budget %d outside bounds", spec.Name, spec.Instructions)
		}
	}
}

func TestCalibrateDoesNotMutateInput(t *testing.T) {
	cfg := testConfig()
	s := stock(t, "nbench", cfg)
	orig := s.Specs[0].Instructions
	if _, err := Calibrate(s, cfg, 1_000_000, 1_000, 10_000_000); err != nil {
		t.Fatal(err)
	}
	if s.Specs[0].Instructions != orig {
		t.Fatal("Calibrate mutated the input suite")
	}
}

func TestCalibrateErrors(t *testing.T) {
	cfg := testConfig()
	s := stock(t, "nbench", cfg)
	if _, err := Calibrate(s, cfg, 0, 1, 10); err == nil {
		t.Fatal("zero target accepted")
	}
	if _, err := Calibrate(s, cfg, 100, 0, 10); err == nil {
		t.Fatal("zero min accepted")
	}
	if _, err := Calibrate(s, cfg, 100, 10, 5); err == nil {
		t.Fatal("max < min accepted")
	}
	if _, err := Calibrate(Suite{Name: "empty"}, cfg, 100, 1, 10); err == nil {
		t.Fatal("empty suite accepted")
	}
	bad := cfg
	bad.Instructions = 0
	if _, err := Calibrate(s, bad, 100, 1, 10); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestCalibrateDeterministic(t *testing.T) {
	cfg := testConfig()
	s := stock(t, "nbench", cfg)
	a, err := Calibrate(s, cfg, 5_000_000, 1_000, 50_000_000)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Calibrate(s, cfg, 5_000_000, 1_000, 50_000_000)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Specs {
		if a.Specs[i].Instructions != b.Specs[i].Instructions {
			t.Fatalf("non-deterministic calibration for %s", a.Specs[i].Name)
		}
	}
}
