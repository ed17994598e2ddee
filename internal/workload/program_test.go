package workload

import (
	"math"
	"testing"

	"perspector/internal/perf"
	"perspector/internal/uarch"
)

func simpleSpec(name string, instrs uint64) Spec {
	return Spec{
		Name:         name,
		Instructions: instrs,
		Seed:         42,
		Phases: []Phase{{
			Name: "main", Weight: 1,
			LoadFrac: 0.3, StoreFrac: 0.1, BranchFrac: 0.15,
			LoadPattern:      Random{WorkingSet: 1 << 20},
			BranchRegularity: 0.8, BranchTakenProb: 0.5,
		}},
	}
}

func TestCompileAndRun(t *testing.T) {
	prog, err := Compile(simpleSpec("w", 10000))
	if err != nil {
		t.Fatal(err)
	}
	if prog.Name() != "w" {
		t.Fatalf("name %q", prog.Name())
	}
	count := 0
	kinds := map[uarch.InstrKind]int{}
	for _, in := range drainProgram(prog) {
		count++
		kinds[in.Kind]++
	}
	if count != 10000 {
		t.Fatalf("produced %d instructions, want 10000", count)
	}
	// Mix roughly as configured.
	if f := float64(kinds[uarch.Load]) / 10000; math.Abs(f-0.3) > 0.03 {
		t.Fatalf("load fraction %v, want ~0.3", f)
	}
	if f := float64(kinds[uarch.Store]) / 10000; math.Abs(f-0.1) > 0.02 {
		t.Fatalf("store fraction %v, want ~0.1", f)
	}
	if f := float64(kinds[uarch.Branch]) / 10000; math.Abs(f-0.15) > 0.02 {
		t.Fatalf("branch fraction %v, want ~0.15", f)
	}
}

func TestCompileValidation(t *testing.T) {
	bad := []Spec{
		{},                            // no name
		{Name: "x"},                   // no instructions
		{Name: "x", Instructions: 10}, // no phases
		{Name: "x", Instructions: 10, Phases: []Phase{{Weight: 0}}},                                // zero weight
		{Name: "x", Instructions: 10, Phases: []Phase{{Weight: 1, LoadFrac: 0.9, StoreFrac: 0.5}}}, // mix > 1
		{Name: "x", Instructions: 10, Phases: []Phase{{Weight: 1, LoadFrac: 0.5}}},                 // pattern missing
		{Name: "x", Instructions: 10, Phases: []Phase{{Weight: 1, BranchRegularity: 2}}},           // regularity > 1
		{Name: "x", Instructions: 10, Phases: []Phase{{Weight: 1, BranchTakenProb: -0.1}}},
		{Name: "x", Instructions: 10, Phases: []Phase{{Weight: 1, SyscallFaultProb: 1.5}}},
	}
	for i, s := range bad {
		if _, err := Compile(s); err == nil {
			t.Fatalf("bad spec %d accepted", i)
		}
	}
}

func TestProgramDeterministic(t *testing.T) {
	p1, err := Compile(simpleSpec("w", 5000))
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Compile(simpleSpec("w", 5000))
	if err != nil {
		t.Fatal(err)
	}
	a, b := drainProgram(p1), drainProgram(p2)
	if len(a) != 5000 || len(b) != 5000 {
		t.Fatalf("programs produced %d and %d instructions, want 5000", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("programs diverged at instruction %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestProgramEnds(t *testing.T) {
	prog, err := Compile(simpleSpec("w", 10))
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]uarch.Instr, 16)
	if n := prog.NextBatch(buf); n != 10 {
		t.Fatalf("first batch = %d instructions, want 10", n)
	}
	if n := prog.NextBatch(buf); n != 0 {
		t.Fatalf("program resumed after end with %d instructions", n)
	}
}

func TestPhaseTransitions(t *testing.T) {
	// Two phases with very different mixes: the observed mix must shift at
	// the boundary.
	spec := Spec{
		Name: "phased", Instructions: 20000, Seed: 7,
		Phases: []Phase{
			{Name: "mem", Weight: 1, LoadFrac: 0.8, LoadPattern: Random{WorkingSet: 1 << 16}},
			{Name: "alu", Weight: 1, BranchFrac: 0.05},
		},
	}
	prog, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	loadsFirst, loadsSecond := 0, 0
	for i, in := range drainProgram(prog) {
		if in.Kind == uarch.Load {
			if i < 10000 {
				loadsFirst++
			} else {
				loadsSecond++
			}
		}
	}
	if loadsFirst < 7000 {
		t.Fatalf("first phase loads = %d, want ~8000", loadsFirst)
	}
	if loadsSecond != 0 {
		t.Fatalf("second phase loads = %d, want 0", loadsSecond)
	}
}

func TestPhaseWeightsNormalized(t *testing.T) {
	// Weights 3 and 1 split 4000 instructions 3000/1000.
	spec := Spec{
		Name: "weighted", Instructions: 4000, Seed: 1,
		Phases: []Phase{
			{Name: "a", Weight: 3, LoadFrac: 1, LoadPattern: Sequential{WorkingSet: 4096}},
			{Name: "b", Weight: 1},
		},
	}
	prog, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	loads := 0
	for _, in := range drainProgram(prog) {
		if in.Kind == uarch.Load {
			loads++
		}
	}
	if loads != 3000 {
		t.Fatalf("phase-a loads = %d, want 3000", loads)
	}
}

func TestBranchRegularityAffectsPrediction(t *testing.T) {
	mkSpec := func(reg float64) Spec {
		return Spec{
			Name: "br", Instructions: 50000, Seed: 11,
			Phases: []Phase{{
				Name: "b", Weight: 1, BranchFrac: 0.5,
				BranchRegularity: reg, BranchTakenProb: 0.5, BranchSites: 4,
			}},
		}
	}
	run := func(reg float64) float64 {
		prog, err := Compile(mkSpec(reg))
		if err != nil {
			t.Fatal(err)
		}
		m, err := uarch.NewMachine(uarch.DefaultMachineConfig())
		if err != nil {
			t.Fatal(err)
		}
		meas, err := m.Run(prog, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		return float64(meas.Totals.Get(perf.BranchMisses)) /
			float64(meas.Totals.Get(perf.BranchInstructions))
	}
	regular := run(1.0)
	irregular := run(0.0)
	if regular >= irregular/2 {
		t.Fatalf("regular miss rate %v not clearly below irregular %v", regular, irregular)
	}
}

func TestStorePatternDefaultsToLoadPattern(t *testing.T) {
	spec := Spec{
		Name: "st", Instructions: 1000, Seed: 3,
		Phases: []Phase{{
			Name: "m", Weight: 1, LoadFrac: 0.2, StoreFrac: 0.2,
			LoadPattern: Sequential{WorkingSet: 4096},
		}},
	}
	prog, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range drainProgram(prog) {
		if in.Kind == uarch.Store && in.Addr >= uint64(1)<<33+4096 {
			t.Fatalf("store address %#x outside shared region", in.Addr)
		}
	}
}

// TestLoadOnlyPhaseBuildsNoStoreGen pins when Compile skips a phase's
// store generator: only when the phase has no stores and the store
// pattern is the load pattern, so an invalid store pattern is still
// reported. The skipped stream panics if drawn.
func TestLoadOnlyPhaseBuildsNoStoreGen(t *testing.T) {
	phase := func(storeFrac float64, store PatternSpec) Spec {
		return Spec{
			Name: "lo", Instructions: 1000, Seed: 5,
			Phases: []Phase{{
				Name: "m", Weight: 1, LoadFrac: 0.5, StoreFrac: storeFrac,
				LoadPattern: PointerChase{WorkingSet: 64 << 10}, StorePattern: store,
			}},
		}
	}
	prog, err := Compile(phase(0, nil))
	if err != nil {
		t.Fatal(err)
	}
	if gens := chaseGensOf(prog); len(gens) != 1 {
		t.Fatalf("load-only chase phase built %d chase generators, want 1", len(gens))
	}
	for _, in := range drainProgram(prog) {
		if in.Kind == uarch.Store {
			t.Fatal("load-only phase emitted a store")
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("drawing from the skipped store stream did not panic")
			}
		}()
		prog.phases[0].storeGen.NextBatch(make([]uint64, 1))
	}()

	if prog, err := Compile(phase(0.1, nil)); err != nil || len(chaseGensOf(prog)) != 2 {
		t.Fatalf("phase with stores: err %v, want a store chase generator", err)
	}
	if _, err := Compile(phase(0, PointerChase{})); err == nil {
		t.Fatal("invalid store pattern of a phase without stores accepted")
	}
}

func TestSyscallFaults(t *testing.T) {
	spec := Spec{
		Name: "sys", Instructions: 10000, Seed: 9,
		Phases: []Phase{{
			Name: "io", Weight: 1, SyscallFrac: 0.3, SyscallFaultProb: 0.5,
		}},
	}
	prog, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	sys, faults := 0, 0
	for _, in := range drainProgram(prog) {
		if in.Kind == uarch.Syscall {
			sys++
			if in.Fault {
				faults++
			}
		}
	}
	if sys < 2500 {
		t.Fatalf("syscalls = %d, want ~3000", sys)
	}
	frac := float64(faults) / float64(sys)
	if math.Abs(frac-0.5) > 0.05 {
		t.Fatalf("fault fraction = %v, want ~0.5", frac)
	}
}

func TestPhaseStreamIsolation(t *testing.T) {
	// Phase 2's instruction stream must be identical whether phase 1 is
	// memory-light or memory-heavy: each phase derives its RNG stream from
	// ChildSeed(spec.Seed, phaseIndex), not from shared state.
	mk := func(phase1Load float64) []uarch.Instr {
		spec := Spec{
			Name: "iso", Instructions: 4000, Seed: 77,
			Phases: []Phase{
				{Name: "p1", Weight: 1, LoadFrac: phase1Load,
					LoadPattern: Sequential{WorkingSet: 1 << 16}},
				{Name: "p2", Weight: 1, LoadFrac: 0.4, BranchFrac: 0.2,
					LoadPattern:      Random{WorkingSet: 1 << 20},
					BranchRegularity: 0.5, BranchTakenProb: 0.5},
			},
		}
		prog, err := Compile(spec)
		if err != nil {
			t.Fatal(err)
		}
		return drainProgram(prog)[2000:] // phase 2 half
	}
	a := mk(0.1)
	b := mk(0.7)
	if len(a) != len(b) {
		t.Fatalf("phase-2 lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		// Addresses differ (different region bases are possible when
		// footprints differ), but the *kind sequence* and branch stream
		// must be identical.
		if a[i].Kind != b[i].Kind || a[i].Taken != b[i].Taken || a[i].PC != b[i].PC {
			t.Fatalf("phase-2 streams diverge at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func BenchmarkProgramNextBatch(b *testing.B) {
	prog, err := Compile(simpleSpec("bench", uint64(b.N)+1))
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]uarch.Instr, 4096)
	b.ResetTimer()
	for prog.NextBatch(buf) == len(buf) {
	}
}

func BenchmarkProgramOnMachine(b *testing.B) {
	m, err := uarch.NewMachine(uarch.DefaultMachineConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		prog, err := Compile(simpleSpec("bench", 100000))
		if err != nil {
			b.Fatal(err)
		}
		m.Reset()
		b.StartTimer()
		if _, err := m.Run(prog, 1<<20); err != nil {
			b.Fatal(err)
		}
	}
}
