package suites

// Cross-module property tests: for arbitrary (valid) workload specs, the
// simulator's PMU counters must satisfy the structural invariants of the
// machine model. These catch accounting bugs that unit tests on
// individual components cannot (e.g. a counter charged on the wrong
// path).

import (
	"testing"
	"testing/quick"

	"perspector/internal/perf"
	"perspector/internal/rng"
	"perspector/internal/uarch"
	"perspector/internal/workload"
)

// randomSpec builds a random-but-valid workload spec from a seed.
func randomSpec(seed uint64) workload.Spec {
	src := rng.New(seed)
	nPhases := 1 + src.Intn(3)
	spec := workload.Spec{
		Name:         "prop",
		Instructions: 5_000 + uint64(src.Intn(20_000)),
		Seed:         src.Uint64(),
	}
	patterns := []func() workload.PatternSpec{
		func() workload.PatternSpec {
			return workload.Sequential{WorkingSet: uint64(1+src.Intn(1024)) * 4096}
		},
		func() workload.PatternSpec {
			return workload.Random{WorkingSet: uint64(1+src.Intn(1024)) * 4096}
		},
		func() workload.PatternSpec {
			return workload.Zipf{WorkingSet: uint64(1+src.Intn(256)) * 4096, Alpha: src.Range(0, 1.5)}
		},
		func() workload.PatternSpec {
			return workload.PointerChase{WorkingSet: uint64(1+src.Intn(256)) * 4096}
		},
		func() workload.PatternSpec {
			return workload.HotCold{
				HotSet:  uint64(1+src.Intn(16)) * 4096,
				ColdSet: uint64(1+src.Intn(512)) * 4096,
				HotFrac: src.Range(0.1, 0.9),
			}
		},
		func() workload.PatternSpec {
			return workload.Streams{WorkingSet: uint64(2+src.Intn(128)) * 8192, Count: 1 + src.Intn(4)}
		},
	}
	for p := 0; p < nPhases; p++ {
		load := src.Range(0, 0.5)
		store := src.Range(0, 0.25)
		branch := src.Range(0, 0.2)
		syscall := src.Range(0, 0.04)
		ph := workload.Phase{
			Name: "p", Weight: src.Range(0.1, 1),
			LoadFrac: load, StoreFrac: store, BranchFrac: branch, SyscallFrac: syscall,
			BranchRegularity: src.Range(0, 1),
			BranchTakenProb:  src.Range(0, 1),
			BranchSites:      1 + src.Intn(32),
			SyscallFaultProb: src.Range(0, 1),
		}
		if load > 0 || store > 0 {
			ph.LoadPattern = patterns[src.Intn(len(patterns))]()
		}
		spec.Phases = append(spec.Phases, ph)
	}
	return spec
}

func TestSimulatorCounterInvariants(t *testing.T) {
	f := func(seed uint64) bool {
		spec := randomSpec(seed)
		prog, err := workload.Compile(spec)
		if err != nil {
			t.Logf("seed %d: compile: %v", seed, err)
			return false
		}
		cfg := uarch.DefaultMachineConfig()
		cfg.SampleInterval = spec.Instructions / 10
		m, err := uarch.NewMachine(cfg)
		if err != nil {
			return false
		}
		meas, err := m.Run(prog, spec.Instructions)
		if err != nil {
			return false
		}
		tot := &meas.Totals

		// CPI >= 1: every instruction takes at least one cycle.
		if tot.Get(perf.CPUCycles) < spec.Instructions {
			t.Logf("seed %d: cycles %d < instructions %d", seed, tot.Get(perf.CPUCycles), spec.Instructions)
			return false
		}
		// Misses never exceed accesses, per event class. (OS-noise deltas
		// preserve these inequalities by construction: miss rates are
		// below access rates in the noise profile too.)
		checks := [][2]perf.Counter{
			{perf.DTLBLoadMisses, perf.DTLBLoads},
			{perf.DTLBStoreMisses, perf.DTLBStores},
			{perf.LLCLoadMisses, perf.LLCLoads},
			{perf.LLCStoreMisses, perf.LLCStores},
			{perf.LLCLoads, perf.DTLBLoads},   // LLC demand loads ⊆ all loads
			{perf.LLCStores, perf.DTLBStores}, // same for stores
			{perf.BranchMisses, perf.BranchInstructions},
		}
		for _, c := range checks {
			if tot.Get(c[0]) > tot.Get(c[1]) {
				t.Logf("seed %d: %v (%d) > %v (%d)", seed,
					c[0], tot.Get(c[0]), c[1], tot.Get(c[1]))
				return false
			}
		}
		// Stall cycles and walk cycles are bounded by total cycles.
		if tot.Get(perf.StallsMemAny) > tot.Get(perf.CPUCycles) {
			return false
		}
		if tot.Get(perf.DTLBWalkPending) > tot.Get(perf.CPUCycles) {
			return false
		}
		// Series deltas sum to totals.
		for c := perf.Counter(0); c < perf.NumCounters; c++ {
			sum := 0.0
			for _, v := range meas.Series.Series(c) {
				sum += v
			}
			if uint64(sum) > tot.Get(c) {
				t.Logf("seed %d: %v series sum %v > total %d", seed, c, sum, tot.Get(c))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestSimulatorExtremeConfigs(t *testing.T) {
	// Failure injection: degenerate-but-legal machine geometries must
	// still produce consistent measurements.
	extremes := []func(*uarch.MachineConfig){
		func(c *uarch.MachineConfig) { // minimal caches
			c.L1 = uarch.CacheConfig{Name: "L1", SizeB: 128, LineB: 64, Ways: 2, LatencyC: 1}
			c.L2 = uarch.CacheConfig{Name: "L2", SizeB: 256, LineB: 64, Ways: 2, LatencyC: 2}
			c.L3 = uarch.CacheConfig{Name: "L3", SizeB: 512, LineB: 64, Ways: 2, LatencyC: 4}
		},
		func(c *uarch.MachineConfig) { // tiny TLB
			c.TLB.L1Entries = 2
			c.TLB.L1Ways = 2
			c.TLB.L2Entries = 4
			c.TLB.L2Ways = 4
		},
		func(c *uarch.MachineConfig) { // tiny predictor
			c.BranchTableBits = 2
			c.BranchHistoryBits = 1
		},
		func(c *uarch.MachineConfig) { // huge penalties
			c.DRAMCycles = 10_000
			c.MinorFaultCycles = 100_000
		},
	}
	spec := randomSpec(42)
	for i, mutate := range extremes {
		cfg := uarch.DefaultMachineConfig()
		mutate(&cfg)
		m, err := uarch.NewMachine(cfg)
		if err != nil {
			t.Fatalf("extreme %d: %v", i, err)
		}
		prog, err := workload.Compile(spec)
		if err != nil {
			t.Fatal(err)
		}
		meas, err := m.Run(prog, spec.Instructions)
		if err != nil {
			t.Fatalf("extreme %d: %v", i, err)
		}
		if meas.Totals.Get(perf.CPUCycles) < spec.Instructions {
			t.Fatalf("extreme %d: CPI < 1", i)
		}
	}
}

// TestGoldenDeterminism pins the exact counter totals of every stock
// suite on the default machine at a non-default seed. The spec files are
// the only definition of these suites, so this table is also what holds
// their content. Any change to a stock spec, the simulator, the RNG, or
// the workload compiler that alters observable behaviour must update
// these golden values knowingly (and note it in EXPERIMENTS.md if it
// shifts the reproduced results).
func TestGoldenDeterminism(t *testing.T) {
	cfg := Config{Instructions: 50_000, Samples: 10, Seed: 1234, Machine: uarch.DefaultMachineConfig()}
	// Fingerprint: sum of all counters across all workloads.
	for _, tc := range []struct {
		suite string
		want  uint64
	}{
		{"parsec", 240989313},
		{"spec17", 899800460},
		{"ligra", 581429686},
		{"lmbench", 370738036},
		{"nbench", 8480205},
		{"sgxgauge", 207808192},
	} {
		sm, err := Run(stock(t, tc.suite, cfg), cfg)
		if err != nil {
			t.Fatal(err)
		}
		var fingerprint uint64
		for _, m := range sm.Workloads {
			for c := perf.Counter(0); c < perf.NumCounters; c++ {
				fingerprint += m.Totals.Get(c)
			}
		}
		if fingerprint != tc.want {
			t.Errorf("%s: golden fingerprint = %d, want %d — simulator behaviour changed; "+
				"verify EXPERIMENTS.md results still hold and update this constant",
				tc.suite, fingerprint, tc.want)
		}
	}
}
