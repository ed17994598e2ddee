package uarch

import (
	"testing"

	"perspector/internal/perf"
	"perspector/internal/rng"
)

// scriptProgram replays a fixed instruction slice.
type scriptProgram struct {
	name   string
	instrs []Instr
	pos    int
}

func (p *scriptProgram) Name() string { return p.name }
func (p *scriptProgram) NextBlock(b *Block, n int) int {
	b.Reset(n)
	k := 0
	for ; k < n && p.pos < len(p.instrs); k++ {
		in, pos := p.instrs[p.pos], uint32(k)
		switch in.Kind {
		case Load, Store:
			b.Mem = append(b.Mem, MemRef{Addr: in.Addr, Pos: pos, Store: in.Kind == Store})
		case Branch:
			b.Branches = append(b.Branches, BranchRef{PC: in.PC, Pos: pos, Taken: in.Taken})
		case Syscall:
			b.Syscalls = append(b.Syscalls, SyscallRef{Pos: pos, Fault: in.Fault})
		}
		p.pos++
	}
	return k
}

func newTestMachine(t testing.TB) *Machine {
	t.Helper()
	m, err := NewMachine(DefaultMachineConfig())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestMachineALUOnly(t *testing.T) {
	m := newTestMachine(t)
	prog := &scriptProgram{name: "alu", instrs: make([]Instr, 100)}
	meas, err := m.Run(prog, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if meas.Workload != "alu" {
		t.Fatalf("workload name %q", meas.Workload)
	}
	if got := meas.Totals.Get(perf.CPUCycles); got != 100 {
		t.Fatalf("ALU-only cycles = %d, want 100 (CPI 1)", got)
	}
	for _, c := range []perf.Counter{perf.DTLBLoads, perf.LLCLoads, perf.BranchInstructions, perf.PageFaults} {
		if meas.Totals.Get(c) != 0 {
			t.Fatalf("ALU-only program counted %v = %d", c, meas.Totals.Get(c))
		}
	}
}

func TestMachineMaxInstrTruncates(t *testing.T) {
	m := newTestMachine(t)
	prog := &scriptProgram{name: "alu", instrs: make([]Instr, 100)}
	meas, err := m.Run(prog, 40)
	if err != nil {
		t.Fatal(err)
	}
	if got := meas.Totals.Get(perf.CPUCycles); got != 40 {
		t.Fatalf("truncated run cycles = %d, want 40", got)
	}
}

func TestMachineRunZeroInstr(t *testing.T) {
	m := newTestMachine(t)
	if _, err := m.Run(&scriptProgram{}, 0); err == nil {
		t.Fatal("maxInstr=0 accepted")
	}
}

func TestMachineLoadCounts(t *testing.T) {
	m := newTestMachine(t)
	// Two loads to the same address: one cold miss chain, one L1 hit.
	prog := &scriptProgram{name: "ld", instrs: []Instr{
		{Kind: Load, Addr: 0x10000},
		{Kind: Load, Addr: 0x10000},
	}}
	meas, err := m.Run(prog, 10)
	if err != nil {
		t.Fatal(err)
	}
	tot := &meas.Totals
	if tot.Get(perf.DTLBLoads) != 2 {
		t.Fatalf("dTLB-loads = %d", tot.Get(perf.DTLBLoads))
	}
	if tot.Get(perf.DTLBLoadMisses) != 1 {
		t.Fatalf("dTLB-load-misses = %d", tot.Get(perf.DTLBLoadMisses))
	}
	if tot.Get(perf.LLCLoads) != 1 || tot.Get(perf.LLCLoadMisses) != 1 {
		t.Fatalf("LLC loads/misses = %d/%d, want 1/1",
			tot.Get(perf.LLCLoads), tot.Get(perf.LLCLoadMisses))
	}
	if tot.Get(perf.PageFaults) != 1 {
		t.Fatalf("page faults = %d (first touch)", tot.Get(perf.PageFaults))
	}
	if tot.Get(perf.DTLBWalkPending) == 0 {
		t.Fatal("no walk cycles recorded")
	}
	if tot.Get(perf.StallsMemAny) == 0 {
		t.Fatal("no memory stalls recorded for a DRAM miss")
	}
}

func TestMachineStoreCounts(t *testing.T) {
	m := newTestMachine(t)
	prog := &scriptProgram{name: "st", instrs: []Instr{
		{Kind: Store, Addr: 0x20000},
	}}
	meas, err := m.Run(prog, 10)
	if err != nil {
		t.Fatal(err)
	}
	if meas.Totals.Get(perf.DTLBStores) != 1 || meas.Totals.Get(perf.DTLBStoreMisses) != 1 {
		t.Fatal("store TLB counts wrong")
	}
	if meas.Totals.Get(perf.LLCStores) != 1 || meas.Totals.Get(perf.LLCStoreMisses) != 1 {
		t.Fatal("store LLC counts wrong")
	}
	if meas.Totals.Get(perf.DTLBLoads) != 0 {
		t.Fatal("store counted as load")
	}
}

func TestMachineBranchCounts(t *testing.T) {
	m := newTestMachine(t)
	instrs := make([]Instr, 2000)
	for i := range instrs {
		instrs[i] = Instr{Kind: Branch, PC: 0x400000, Taken: true}
	}
	meas, err := m.Run(&scriptProgram{name: "br", instrs: instrs}, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if meas.Totals.Get(perf.BranchInstructions) != 2000 {
		t.Fatalf("branches = %d", meas.Totals.Get(perf.BranchInstructions))
	}
	// Always-taken: only warmup misses.
	if meas.Totals.Get(perf.BranchMisses) > 5 {
		t.Fatalf("always-taken misses = %d", meas.Totals.Get(perf.BranchMisses))
	}
}

func TestMachineSyscallAndFault(t *testing.T) {
	m := newTestMachine(t)
	meas, err := m.Run(&scriptProgram{name: "sys", instrs: []Instr{
		{Kind: Syscall},
		{Kind: Syscall, Fault: true},
	}}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if meas.Totals.Get(perf.PageFaults) != 1 {
		t.Fatalf("syscall faults = %d", meas.Totals.Get(perf.PageFaults))
	}
	cfg := DefaultMachineConfig()
	wantMin := uint64(2 + 2*cfg.SyscallCycles + cfg.MinorFaultCycles)
	if got := meas.Totals.Get(perf.CPUCycles); got != wantMin {
		t.Fatalf("syscall cycles = %d, want %d", got, wantMin)
	}
}

func TestMachineSampling(t *testing.T) {
	cfg := DefaultMachineConfig()
	cfg.SampleInterval = 10
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	instrs := make([]Instr, 100)
	for i := range instrs {
		instrs[i] = Instr{Kind: Load, Addr: uint64(i) * 64}
	}
	meas, err := m.Run(&scriptProgram{name: "s", instrs: instrs}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if meas.Series.Len() != 10 {
		t.Fatalf("samples = %d, want 10", meas.Series.Len())
	}
	// Sum of deltas equals the total for every counter.
	for c := perf.Counter(0); c < perf.NumCounters; c++ {
		sum := 0.0
		for _, v := range meas.Series.Series(c) {
			sum += v
		}
		if uint64(sum) != meas.Totals.Get(c) {
			t.Fatalf("%v: series sum %v != total %d", c, sum, meas.Totals.Get(c))
		}
	}
}

func TestMachineSamplingDisabled(t *testing.T) {
	m := newTestMachine(t) // SampleInterval = 0
	meas, err := m.Run(&scriptProgram{name: "n", instrs: make([]Instr, 50)}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if meas.Series.Len() != 0 {
		t.Fatal("sampling ran despite interval 0")
	}
}

func TestMachineDeterminism(t *testing.T) {
	mkProg := func() *scriptProgram {
		src := rng.New(55)
		instrs := make([]Instr, 5000)
		for i := range instrs {
			switch src.Intn(4) {
			case 0:
				instrs[i] = Instr{Kind: ALU}
			case 1:
				instrs[i] = Instr{Kind: Load, Addr: uint64(src.Intn(1 << 24))}
			case 2:
				instrs[i] = Instr{Kind: Store, Addr: uint64(src.Intn(1 << 24))}
			case 3:
				instrs[i] = Instr{Kind: Branch, PC: uint64(src.Intn(256)), Taken: src.Bool(0.6)}
			}
		}
		return &scriptProgram{name: "d", instrs: instrs}
	}
	m1 := newTestMachine(t)
	m2 := newTestMachine(t)
	a, err := m1.Run(mkProg(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m2.Run(mkProg(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if a.Totals != b.Totals {
		t.Fatalf("non-deterministic totals:\n%v\n%v", a.Totals, b.Totals)
	}
}

func TestMachineReset(t *testing.T) {
	m := newTestMachine(t)
	prog := &scriptProgram{name: "r", instrs: []Instr{{Kind: Load, Addr: 0x1000}}}
	first, err := m.Run(prog, 10)
	if err != nil {
		t.Fatal(err)
	}
	m.Reset()
	prog.pos = 0
	second, err := m.Run(prog, 10)
	if err != nil {
		t.Fatal(err)
	}
	if first.Totals != second.Totals {
		t.Fatal("Reset did not restore cold state")
	}
}

func TestMachineCacheLocalityVisible(t *testing.T) {
	// A small hot loop (fits L1) vs a large sweep (misses everywhere) must
	// differ strongly in stalls and LLC events — the signal the suites rely on.
	mkLoop := func(ws int, n int) *scriptProgram {
		instrs := make([]Instr, n)
		for i := range instrs {
			instrs[i] = Instr{Kind: Load, Addr: uint64((i * 64) % ws)}
		}
		return &scriptProgram{name: "loop", instrs: instrs}
	}
	hot := newTestMachine(t)
	hotMeas, err := hot.Run(mkLoop(16<<10, 20000), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	cold := newTestMachine(t)
	coldMeas, err := cold.Run(mkLoop(64<<20, 20000), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if hotMeas.Totals.Get(perf.LLCLoadMisses)*10 >= coldMeas.Totals.Get(perf.LLCLoadMisses) {
		t.Fatalf("LLC misses: hot %d vs cold %d — locality invisible",
			hotMeas.Totals.Get(perf.LLCLoadMisses), coldMeas.Totals.Get(perf.LLCLoadMisses))
	}
	if hotMeas.Totals.Get(perf.CPUCycles) >= coldMeas.Totals.Get(perf.CPUCycles) {
		t.Fatal("hot loop not faster than cold sweep")
	}
}

func TestNextLinePrefetchHelpsStreams(t *testing.T) {
	mkSweep := func(n int) *scriptProgram {
		instrs := make([]Instr, n)
		for i := range instrs {
			instrs[i] = Instr{Kind: Load, Addr: uint64(i) * 64} // fresh line each access
		}
		return &scriptProgram{name: "sweep", instrs: instrs}
	}
	run := func(prefetch bool, prog *scriptProgram) *perf.Measurement {
		cfg := DefaultMachineConfig()
		cfg.NextLinePrefetch = prefetch
		m, err := NewMachine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		meas, err := m.Run(prog, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		return meas
	}
	const n = 50000
	off := run(false, mkSweep(n))
	on := run(true, mkSweep(n))
	// A pure stream with next-line prefetching hits L2 on every other
	// line: LLC loads should drop to ~half.
	offLLC := off.Totals.Get(perf.LLCLoads)
	onLLC := on.Totals.Get(perf.LLCLoads)
	if onLLC*3 > offLLC*2 {
		t.Fatalf("prefetcher barely helped: LLC loads %d -> %d", offLLC, onLLC)
	}
	if on.Totals.Get(perf.CPUCycles) >= off.Totals.Get(perf.CPUCycles) {
		t.Fatal("prefetcher did not speed up the sweep")
	}

	// Random traffic must be essentially unaffected.
	mkRand := func() *scriptProgram {
		src := rng.New(3)
		instrs := make([]Instr, n)
		for i := range instrs {
			instrs[i] = Instr{Kind: Load, Addr: uint64(src.Intn(1<<28)) &^ 63}
		}
		return &scriptProgram{name: "rand", instrs: instrs}
	}
	offR := run(false, mkRand())
	onR := run(true, mkRand())
	offMiss := offR.Totals.Get(perf.LLCLoadMisses)
	onMiss := onR.Totals.Get(perf.LLCLoadMisses)
	lo, hi := offMiss, onMiss
	if lo > hi {
		lo, hi = hi, lo
	}
	if float64(hi) > 1.05*float64(lo) {
		t.Fatalf("prefetcher changed random misses too much: %d vs %d", offMiss, onMiss)
	}
}

func TestMachineStatsAccessors(t *testing.T) {
	m := newTestMachine(t)
	prog := &scriptProgram{name: "s", instrs: []Instr{
		{Kind: Load, Addr: 0x1000},
		{Kind: Load, Addr: 0x1000},
		{Kind: Branch, PC: 1, Taken: true},
	}}
	if _, err := m.Run(prog, 10); err != nil {
		t.Fatal(err)
	}
	l1a, l1m, l2a, l2m, l3a, l3m := m.CacheStats()
	if l1a != 2 || l1m != 1 {
		t.Fatalf("L1 stats %d/%d", l1a, l1m)
	}
	if l2a != 1 || l2m != 1 || l3a != 1 || l3m != 1 {
		t.Fatalf("L2/L3 stats %d/%d %d/%d", l2a, l2m, l3a, l3m)
	}
	acc, miss, walks := m.TLBStats()
	if acc != 2 || miss != 1 || walks != 1 {
		t.Fatalf("TLB stats %d/%d/%d", acc, miss, walks)
	}
	pred, mis := m.BranchStats()
	if pred != 1 || mis > 1 {
		t.Fatalf("branch stats %d/%d", pred, mis)
	}
}

func TestOSNoiseAccounting(t *testing.T) {
	// With sampling on, an ALU-only program still accumulates background
	// kernel events; with OSNoiseFrac = 0 (or sampling off) it does not.
	mkProg := func() *scriptProgram {
		// Long enough that even the slowest noise rates (LLC misses at
		// 0.02 per kernel instruction × 5 kernel instructions per sample)
		// accumulate to whole events.
		return &scriptProgram{name: "alu", instrs: make([]Instr, 100000)}
	}
	run := func(noise float64, interval uint64) *perf.Measurement {
		cfg := DefaultMachineConfig()
		cfg.OSNoiseFrac = noise
		cfg.SampleInterval = interval
		m, err := NewMachine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		meas, err := m.Run(mkProg(), 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		return meas
	}
	noisy := run(0.005, 1000)
	if noisy.Totals.Get(perf.LLCLoadMisses) == 0 {
		t.Fatal("OS noise produced no LLC misses")
	}
	if noisy.Totals.Get(perf.DTLBLoads) == 0 {
		t.Fatal("OS noise produced no TLB loads")
	}
	// Noise misses must stay below noise accesses.
	if noisy.Totals.Get(perf.LLCLoadMisses) > noisy.Totals.Get(perf.DTLBLoads) {
		t.Fatal("noise profile violates miss <= access")
	}
	clean := run(0, 1000)
	for _, c := range []perf.Counter{perf.LLCLoadMisses, perf.DTLBLoads, perf.PageFaults} {
		if clean.Totals.Get(c) != 0 {
			t.Fatalf("noise disabled but %v = %d", c, clean.Totals.Get(c))
		}
	}
	unsampled := run(0.005, 0)
	if unsampled.Totals.Get(perf.DTLBLoads) != 0 {
		t.Fatal("noise charged without sampling")
	}
	// The noise trickle scales with the noise fraction.
	big := run(0.05, 1000)
	if big.Totals.Get(perf.DTLBLoads) < 5*noisy.Totals.Get(perf.DTLBLoads) {
		t.Fatalf("10x noise fraction gave %d vs %d loads",
			big.Totals.Get(perf.DTLBLoads), noisy.Totals.Get(perf.DTLBLoads))
	}
}

func TestHugePagesCollapseTLBMisses(t *testing.T) {
	// The Table-II system disables transparent huge pages; the model can
	// explore the alternative: with 2 MiB pages the dTLB reach explodes
	// and the walk counters collapse for page-thrashing workloads.
	mkChase := func() *scriptProgram {
		src := rng.New(4)
		instrs := make([]Instr, 40000)
		for i := range instrs {
			// 64 MiB random working set: 16k 4-KiB pages, far beyond the
			// TLB, but only 32 2-MiB pages.
			instrs[i] = Instr{Kind: Load, Addr: uint64(src.Intn(64<<20)) &^ 63}
		}
		return &scriptProgram{name: "chase", instrs: instrs}
	}
	run := func(pageB int) *perf.Measurement {
		cfg := DefaultMachineConfig()
		cfg.TLB.PageB = pageB
		m, err := NewMachine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		meas, err := m.Run(mkChase(), 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		return meas
	}
	small := run(4096)
	huge := run(2 << 20)
	if huge.Totals.Get(perf.DTLBLoadMisses)*20 > small.Totals.Get(perf.DTLBLoadMisses) {
		t.Fatalf("huge pages barely helped TLB: %d -> %d",
			small.Totals.Get(perf.DTLBLoadMisses), huge.Totals.Get(perf.DTLBLoadMisses))
	}
	if huge.Totals.Get(perf.PageFaults) >= small.Totals.Get(perf.PageFaults) {
		t.Fatal("huge pages did not reduce first-touch faults")
	}
	// Cache behaviour is untouched by the page size.
	if huge.Totals.Get(perf.LLCLoads) != small.Totals.Get(perf.LLCLoads) {
		t.Fatalf("page size changed LLC loads: %d vs %d",
			small.Totals.Get(perf.LLCLoads), huge.Totals.Get(perf.LLCLoads))
	}
}

func BenchmarkMachineRun(b *testing.B) {
	src := rng.New(9)
	instrs := make([]Instr, 100000)
	for i := range instrs {
		switch src.Intn(10) {
		case 0, 1, 2:
			instrs[i] = Instr{Kind: Load, Addr: uint64(src.Intn(1 << 26))}
		case 3:
			instrs[i] = Instr{Kind: Store, Addr: uint64(src.Intn(1 << 26))}
		case 4, 5:
			instrs[i] = Instr{Kind: Branch, PC: uint64(src.Intn(1024)), Taken: src.Bool(0.7)}
		default:
			instrs[i] = Instr{Kind: ALU}
		}
	}
	prog := &scriptProgram{name: "bench", instrs: instrs}
	m, err := NewMachine(DefaultMachineConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prog.pos = 0
		m.Reset()
		if _, err := m.Run(prog, 1<<20); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(instrs)))
}
