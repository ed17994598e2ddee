package uarch

import (
	"runtime"
	"testing"

	"perspector/internal/perf"
	"perspector/internal/rng"
)

// mkStreamProgs builds n scripted programs, each sweeping its own region
// of the given working set.
func mkStreamProgs(n int, wsPerCore uint64, instrs int) []Program {
	progs := make([]Program, n)
	for c := 0; c < n; c++ {
		progs[c] = mkStreamProg(c, wsPerCore, instrs)
	}
	return progs
}

// mkStreamProg builds core c's program of mkStreamProgs.
func mkStreamProg(c int, wsPerCore uint64, instrs int) *scriptProgram {
	base := uint64(c) << 33
	ins := make([]Instr, instrs)
	for i := range ins {
		ins[i] = Instr{Kind: Load, Addr: base + (uint64(i)*64)%wsPerCore}
	}
	return &scriptProgram{name: "core" + string(rune('0'+c)), instrs: ins}
}

func TestMultiCoreBasics(t *testing.T) {
	cfg := DefaultMachineConfig()
	mc, err := NewMultiCore(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	if mc.Cores() != 4 {
		t.Fatalf("cores = %d", mc.Cores())
	}
	progs := mkStreamProgs(4, 1<<20, 10000)
	meas, err := mc.RunParallel(progs, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	// All 40000 loads executed.
	if got := meas.Totals.Get(perf.DTLBLoads); got != 40000 {
		t.Fatalf("aggregate loads = %d, want 40000", got)
	}
	if meas.Totals.Get(perf.CPUCycles) < 40000 {
		t.Fatal("CPI < 1 in aggregate")
	}
}

// TestMultiCoreBudgetAndUnevenEnds runs a program longer than the budget
// (whose budget spans more than one fetched block) beside one that ends
// early: each executes exactly min(length, budget), and no instruction
// past the budget is fetched.
func TestMultiCoreBudgetAndUnevenEnds(t *testing.T) {
	mc, err := NewMultiCore(DefaultMachineConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	long, short := mkStreamProg(0, 1<<20, 10000), mkStreamProg(1, 1<<20, 1000)
	const budget = 10*feedBlock + 37
	meas, err := mc.RunParallel([]Program{long, short}, budget)
	if err != nil {
		t.Fatal(err)
	}
	if got := meas.Totals.Get(perf.DTLBLoads); got != budget+1000 {
		t.Fatalf("aggregate loads = %d, want %d", got, budget+1000)
	}
	if long.pos != budget {
		t.Fatalf("long program fetched %d instructions, budget %d", long.pos, budget)
	}
}

func TestMultiCoreErrors(t *testing.T) {
	cfg := DefaultMachineConfig()
	if _, err := NewMultiCore(cfg, 0); err == nil {
		t.Fatal("0 cores accepted")
	}
	mc, err := NewMultiCore(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mc.RunParallel(mkStreamProgs(3, 1<<20, 10), 100); err == nil {
		t.Fatal("program/core mismatch accepted")
	}
	if _, err := mc.RunParallel(mkStreamProgs(2, 1<<20, 10), 0); err == nil {
		t.Fatal("zero budget accepted")
	}
}

func TestMultiCoreLLCContention(t *testing.T) {
	// Four cores each re-sweeping a 4 MiB region: together 16 MiB exceeds
	// the shared 12 MiB L3, so misses explode versus one core running the
	// same per-core working set alone.
	const ws = 4 << 20
	const instrs = 200_000

	solo, err := NewMultiCore(DefaultMachineConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	soloMeas, err := solo.RunParallel(mkStreamProgs(1, ws, instrs), 1<<30)
	if err != nil {
		t.Fatal(err)
	}

	quad, err := NewMultiCore(DefaultMachineConfig(), 4)
	if err != nil {
		t.Fatal(err)
	}
	quadMeas, err := quad.RunParallel(mkStreamProgs(4, ws, instrs), 1<<30)
	if err != nil {
		t.Fatal(err)
	}

	// Per-core miss rate: misses / loads.
	soloRate := float64(soloMeas.Totals.Get(perf.LLCLoadMisses)) /
		float64(soloMeas.Totals.Get(perf.LLCLoads))
	quadRate := float64(quadMeas.Totals.Get(perf.LLCLoadMisses)) /
		float64(quadMeas.Totals.Get(perf.LLCLoads))
	if quadRate < 2*soloRate {
		t.Fatalf("no LLC contention visible: solo miss rate %.3f, quad %.3f", soloRate, quadRate)
	}
}

func TestMultiCorePrivateStateIsolated(t *testing.T) {
	// A branch-heavy core must not disturb another core's predictor: the
	// victim's miss count should match its solo run exactly (branch state
	// is private; only the shared L3 couples cores, and these programs
	// don't touch memory).
	mkBranchProg := func(seed uint64, regular bool) *scriptProgram {
		src := rng.New(seed)
		ins := make([]Instr, 20000)
		for i := range ins {
			taken := true
			if !regular {
				taken = src.Bool(0.5)
			}
			ins[i] = Instr{Kind: Branch, PC: 0x400000, Taken: taken}
		}
		return &scriptProgram{name: "br", instrs: ins}
	}
	solo, err := NewMultiCore(DefaultMachineConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	soloMeas, err := solo.RunParallel([]Program{mkBranchProg(1, true)}, 1<<30)
	if err != nil {
		t.Fatal(err)
	}

	pair, err := NewMultiCore(DefaultMachineConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	pairMeas, err := pair.RunParallel(
		[]Program{mkBranchProg(1, true), mkBranchProg(2, false)}, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	// Pair misses = victim solo misses + the hostile core's own misses;
	// the regular core alone has near-zero misses, so the pair total must
	// be dominated by the hostile core and the regular core's share
	// unchanged. Check: pair misses >= hostile-ish and
	// pair regular-core contribution == solo (can't separate directly, so
	// assert pair >= solo and solo is tiny).
	soloMisses := soloMeas.Totals.Get(perf.BranchMisses)
	if soloMisses > 5 {
		t.Fatalf("regular branch program missed %d times solo", soloMisses)
	}
	pairMisses := pairMeas.Totals.Get(perf.BranchMisses)
	if pairMisses < 5000 {
		t.Fatalf("hostile core misses not visible: %d", pairMisses)
	}
}

func TestMultiCoreDeterministic(t *testing.T) {
	run := func() perf.Values {
		mc, err := NewMultiCore(DefaultMachineConfig(), 3)
		if err != nil {
			t.Fatal(err)
		}
		meas, err := mc.RunParallel(mkStreamProgs(3, 2<<20, 30000), 1<<30)
		if err != nil {
			t.Fatal(err)
		}
		return meas.Totals
	}
	if run() != run() {
		t.Fatal("multicore run not deterministic")
	}
}

func TestMultiCoreSampling(t *testing.T) {
	cfg := DefaultMachineConfig()
	cfg.SampleInterval = 1000
	mc, err := NewMultiCore(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	meas, err := mc.RunParallel(mkStreamProgs(2, 1<<20, 5000), 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	if meas.Series.Len() != 10 {
		t.Fatalf("samples = %d, want 10 (10000 aggregate instructions)", meas.Series.Len())
	}
}

func BenchmarkMultiCore4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		mc, err := NewMultiCore(DefaultMachineConfig(), 4)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := mc.RunParallel(mkStreamProgs(4, 4<<20, 50000), 1<<30); err != nil {
			b.Fatal(err)
		}
	}
}

// allocatedBytes returns the heap bytes fn allocates.
func allocatedBytes(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestMultiCoreAllocatesOneL3 requires NewMultiCore to build its cores
// around the shared L3: each core past the first may add its private
// state, but not the bytes of an L3 of its own.
func TestMultiCoreAllocatesOneL3(t *testing.T) {
	cfg := DefaultMachineConfig()
	newMC := func(n int) func() {
		return func() {
			if _, err := NewMultiCore(cfg, n); err != nil {
				t.Fatal(err)
			}
		}
	}
	l3 := allocatedBytes(func() {
		if _, err := NewCache(cfg.L3); err != nil {
			t.Fatal(err)
		}
	})
	one, four := allocatedBytes(newMC(1)), allocatedBytes(newMC(4))
	if perCore := (four - one) / 3; perCore >= l3 {
		t.Fatalf("each extra core allocates %d bytes, at least an L3's %d", perCore, l3)
	}
	t.Logf("L3 %d bytes; NewMultiCore 1 core %d, 4 cores %d", l3, one, four)
}
