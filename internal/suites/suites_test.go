package suites

import (
	"strings"
	"testing"

	"perspector/internal/perf"
	"perspector/internal/workload"
)

// testConfig keeps suite tests fast: small instruction budgets.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Instructions = 20_000
	cfg.Samples = 20
	return cfg
}

// stock builds the named registered suite under cfg.
func stock(t testing.TB, name string, cfg Config) Suite {
	t.Helper()
	s, err := ByName(name, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSuiteSizesMatchPaper(t *testing.T) {
	cfg := testConfig()
	cases := []struct {
		name string
		want int
	}{
		{"spec17", 43}, // "43 in SPEC'17" (§I)
		{"parsec", 13},
		{"ligra", 20},
		{"lmbench", 26},
		{"nbench", 10},
		{"sgxgauge", 8},
	}
	for _, c := range cases {
		if n := len(stock(t, c.name, cfg).Specs); n != c.want {
			t.Errorf("%s has %d workloads, want %d", c.name, n, c.want)
		}
	}
}

func TestAllSpecsValid(t *testing.T) {
	cfg := testConfig()
	for _, s := range All(cfg) {
		for _, spec := range s.Specs {
			if err := spec.Validate(); err != nil {
				t.Errorf("%s/%s: %v", s.Name, spec.Name, err)
			}
			if _, err := workload.Compile(spec); err != nil {
				t.Errorf("%s/%s compile: %v", s.Name, spec.Name, err)
			}
		}
	}
}

func TestWorkloadNamesUniqueAndPrefixed(t *testing.T) {
	cfg := testConfig()
	for _, s := range All(cfg) {
		seen := map[string]bool{}
		for _, spec := range s.Specs {
			if !strings.HasPrefix(spec.Name, s.Name+".") {
				t.Errorf("workload %q not prefixed with suite %q", spec.Name, s.Name)
			}
			if seen[spec.Name] {
				t.Errorf("duplicate workload name %q", spec.Name)
			}
			seen[spec.Name] = true
		}
	}
}

func TestByName(t *testing.T) {
	cfg := testConfig()
	for _, name := range []string{"parsec", "spec17", "ligra", "lmbench", "nbench", "sgxgauge"} {
		s, err := ByName(name, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if s.Name != name {
			t.Fatalf("ByName(%q).Name = %q", name, s.Name)
		}
	}
	if _, err := ByName("bogus", cfg); err == nil {
		t.Fatal("bogus suite accepted")
	}
}

func TestSeedsStableAcrossComposition(t *testing.T) {
	cfg := testConfig()
	// Workload i's seed must not depend on other workloads existing.
	a := seedFor(cfg, "spec17", 5)
	b := seedFor(cfg, "spec17", 5)
	if a != b {
		t.Fatal("seedFor not deterministic")
	}
	if seedFor(cfg, "spec17", 5) == seedFor(cfg, "parsec", 5) {
		t.Fatal("suites share workload seeds")
	}
}

func TestRunSmallSuite(t *testing.T) {
	cfg := testConfig()
	s := stock(t, "nbench", cfg)
	sm, err := Run(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sm.Suite != "nbench" {
		t.Fatalf("suite name %q", sm.Suite)
	}
	if len(sm.Workloads) != len(s.Specs) {
		t.Fatalf("measurements %d, want %d", len(sm.Workloads), len(s.Specs))
	}
	for i, m := range sm.Workloads {
		if m.Workload != s.Specs[i].Name {
			t.Fatalf("order broken: slot %d is %q, want %q", i, m.Workload, s.Specs[i].Name)
		}
		if m.Totals.Get(perf.CPUCycles) == 0 {
			t.Fatalf("%s: zero cycles", m.Workload)
		}
		if m.Series.Len() < cfg.Samples-1 {
			t.Fatalf("%s: %d samples, want ~%d", m.Workload, m.Series.Len(), cfg.Samples)
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	cfg := testConfig()
	s := stock(t, "sgxgauge", cfg)
	a, err := Run(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Workloads {
		if a.Workloads[i].Totals != b.Workloads[i].Totals {
			t.Fatalf("%s: non-deterministic run", a.Workloads[i].Workload)
		}
	}
}

func TestRunValidatesConfig(t *testing.T) {
	cfg := testConfig()
	s := stock(t, "nbench", cfg)
	bad := cfg
	bad.Instructions = 0
	if _, err := Run(s, bad); err == nil {
		t.Fatal("zero instructions accepted")
	}
	bad = cfg
	bad.Samples = 0
	if _, err := Run(s, bad); err == nil {
		t.Fatal("zero samples accepted")
	}
	if _, err := Run(Suite{Name: "empty"}, cfg); err == nil {
		t.Fatal("empty suite accepted")
	}
}

func TestLigraWorkloadsAreSimilar(t *testing.T) {
	// The defining property of the Ligra model: its workloads share a
	// framework, so their counter vectors must be much closer to each
	// other than SGXGauge's are — the basis of Fig. 3a's cluster scores.
	cfg := testConfig()
	cfg.Instructions = 60_000
	ligra, err := Run(stock(t, "ligra", cfg), cfg)
	if err != nil {
		t.Fatal(err)
	}
	sgx, err := Run(stock(t, "sgxgauge", cfg), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Normalize both suites jointly per counter (the paper's Eq. 9–10),
	// then compare each suite's mean pairwise distance. Ligra's shared
	// framework must make it markedly tighter than SGXGauge.
	lx := ligra.Matrix(perf.AllCounters())
	gx := sgx.Matrix(perf.AllCounters())
	m := len(lx[0])
	for j := 0; j < m; j++ {
		lo, hi := lx[0][j], lx[0][j]
		for _, row := range lx {
			if row[j] < lo {
				lo = row[j]
			}
			if row[j] > hi {
				hi = row[j]
			}
		}
		for _, row := range gx {
			if row[j] < lo {
				lo = row[j]
			}
			if row[j] > hi {
				hi = row[j]
			}
		}
		span := hi - lo
		for _, rows := range [][][]float64{lx, gx} {
			for _, row := range rows {
				if span > 0 {
					row[j] = (row[j] - lo) / span
				} else {
					row[j] = 0
				}
			}
		}
	}
	meanPairDist := func(x [][]float64) float64 {
		total, pairs := 0.0, 0
		for i := 0; i < len(x); i++ {
			for j := i + 1; j < len(x); j++ {
				d := 0.0
				for k := range x[i] {
					diff := x[i][k] - x[j][k]
					d += diff * diff
				}
				total += d
				pairs++
			}
		}
		return total / float64(pairs)
	}
	lDist, gDist := meanPairDist(lx), meanPairDist(gx)
	if lDist >= gDist {
		t.Fatalf("ligra pairwise distance %v not below sgxgauge %v — framework sharing lost", lDist, gDist)
	}
}

func TestNbenchSteadyTrends(t *testing.T) {
	// Nbench's series must be flat: the delta variance of LLC misses in
	// the second half is close to the first half (no phase shift).
	cfg := testConfig()
	cfg.Instructions = 60_000
	sm, err := Run(stock(t, "nbench", cfg), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range sm.Workloads {
		series := m.Series.Series(perf.CPUCycles)
		if len(series) < 12 {
			t.Fatalf("%s: too few samples", m.Workload)
		}
		// Skip the first quarter: cold caches and first-touch faults make
		// a warmup transient that is not a phase.
		warm := series[len(series)/4:]
		half := len(warm) / 2
		m1, m2 := mean(warm[:half]), mean(warm[half:])
		if m1 == 0 {
			continue
		}
		ratio := m2 / m1
		if ratio < 0.5 || ratio > 2 {
			t.Fatalf("%s: cycle rate shifted %vx across halves — not steady", m.Workload, ratio)
		}
	}
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func TestPhaseShiftVisibleInPARSEC(t *testing.T) {
	// At least half the PARSEC workloads must show a detectable level
	// shift in some counter across phase boundaries.
	cfg := testConfig()
	cfg.Instructions = 60_000
	sm, err := Run(stock(t, "parsec", cfg), cfg)
	if err != nil {
		t.Fatal(err)
	}
	shifted := 0
	for _, m := range sm.Workloads {
		for _, c := range []perf.Counter{perf.LLCLoadMisses, perf.StallsMemAny, perf.BranchMisses, perf.DTLBLoadMisses} {
			series := m.Series.Series(c)
			half := len(series) / 2
			a, b := mean(series[:half]), mean(series[half:])
			lo, hi := a, b
			if lo > hi {
				lo, hi = hi, lo
			}
			if lo == 0 && hi > 0 {
				shifted++
				break
			}
			if lo > 0 && hi/lo > 1.5 {
				shifted++
				break
			}
		}
	}
	if shifted < len(sm.Workloads)/2 {
		t.Fatalf("only %d/%d PARSEC workloads show phase shifts", shifted, len(sm.Workloads))
	}
}

func TestLMbenchExtremes(t *testing.T) {
	// LMbench must contain both near-zero and extreme values for several
	// counters — the corner-covering property behind its CoverageScore.
	cfg := testConfig()
	cfg.Instructions = 60_000
	sm, err := Run(stock(t, "lmbench", cfg), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []perf.Counter{perf.PageFaults, perf.LLCLoads, perf.BranchMisses, perf.StallsMemAny} {
		lo, hi := ^uint64(0), uint64(0)
		for _, m := range sm.Workloads {
			v := m.Totals.Get(c)
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		if hi == 0 {
			t.Fatalf("%v: no workload exercises this counter", c)
		}
		if lo*20 > hi {
			t.Fatalf("%v: range [%d, %d] too narrow for a microbenchmark suite", c, lo, hi)
		}
	}
}

func TestRunAllOrdering(t *testing.T) {
	cfg := testConfig()
	cfg.Instructions = 5_000
	cfg.Samples = 5
	all, err := RunAll(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantOrder := []string{"parsec", "spec17", "ligra", "lmbench", "nbench", "sgxgauge"}
	if len(all) != len(wantOrder) {
		t.Fatalf("RunAll returned %d suites", len(all))
	}
	for i, sm := range all {
		if sm.Suite != wantOrder[i] {
			t.Fatalf("slot %d is %q, want %q", i, sm.Suite, wantOrder[i])
		}
	}
}
