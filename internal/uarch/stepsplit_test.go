package uarch_test

import (
	"fmt"
	"math"
	"testing"

	"perspector/internal/perf"
	"perspector/internal/rng"
	"perspector/internal/suites"
	"perspector/internal/uarch"
	"perspector/internal/workload"
)

// TestKindSplitStepMatchesReferences holds the kind-split block step
// (Machine.Run) to two independent references, for every stock workload
// and for random multi-phase specs: a one-core MultiCore, which steps,
// samples and charges OS noise one instruction at a time in program
// order, and the instruction-order step loop the machine ran before
// blocks were split by kind, fed by the program's NextBatch adapter.
// Totals and every series sample must agree to the bit.
func TestKindSplitStepMatchesReferences(t *testing.T) {
	cfg := suites.DefaultConfig()
	cfg.Instructions = 30_000
	cfg.Samples = 7 // interval 4285: no block size divides it
	for _, s := range suites.All(cfg) {
		for _, spec := range s.Specs {
			mc := cfg.Machine
			mc.SampleInterval = spec.Instructions / uint64(cfg.Samples)
			checkStepReferences(t, s.Name+"/"+spec.Name, spec, mc)
		}
	}

	src := rng.New(0x5eed)
	intervals := []uint64{0, 1, 97, 1000, 4096, 4097, 6007}
	for i := 0; i < 40; i++ {
		spec := randomSpec(src, i)
		mc := uarch.DefaultMachineConfig()
		mc.SampleInterval = intervals[i%len(intervals)]
		mc.NextLinePrefetch = i%2 == 1
		mc.CountersOnly = i%3 == 2
		name := fmt.Sprintf("%s interval=%d prefetch=%v countersOnly=%v",
			spec.Name, mc.SampleInterval, mc.NextLinePrefetch, mc.CountersOnly)
		checkStepReferences(t, name, spec, mc)
	}
}

// checkStepReferences measures spec on mc three ways and compares them.
func checkStepReferences(t *testing.T, name string, spec workload.Spec, mc uarch.MachineConfig) {
	t.Helper()
	compile := func() *workload.Program {
		p, err := workload.Compile(spec)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return p
	}
	split, err := uarch.NewMachine(mc)
	if err != nil {
		t.Fatal(err)
	}
	prog := compile()
	got, err := split.Run(prog, spec.Instructions)
	prog.Release()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}

	one, err := uarch.NewMultiCore(mc, 1)
	if err != nil {
		t.Fatal(err)
	}
	prog = compile()
	perInstr, err := one.RunParallel([]uarch.Program{prog}, spec.Instructions)
	prog.Release()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}

	legacy, err := uarch.NewMachine(mc)
	if err != nil {
		t.Fatal(err)
	}
	prog = compile()
	ordered := legacy.RunInstrsReference(spec.Name, prog.NextBatch, spec.Instructions)
	prog.Release()

	for _, ref := range []struct {
		name string
		meas *perf.Measurement
	}{{"one-core MultiCore", perInstr}, {"instruction-order step", ordered}} {
		if diff := measurementDiff(got, ref.meas); diff != "" {
			t.Errorf("%s: kind-split step and %s differ: %s", name, ref.name, diff)
		}
	}
}

// measurementDiff describes the first difference between a and b in
// totals, sample interval or series bits, or returns "".
func measurementDiff(a, b *perf.Measurement) string {
	if a.Totals != b.Totals {
		return fmt.Sprintf("totals %v vs %v", a.Totals, b.Totals)
	}
	if a.Series.Interval != b.Series.Interval {
		return fmt.Sprintf("interval %d vs %d", a.Series.Interval, b.Series.Interval)
	}
	for c := perf.Counter(0); c < perf.NumCounters; c++ {
		x, y := a.Series.Samples[c], b.Series.Samples[c]
		if len(x) != len(y) {
			return fmt.Sprintf("%v: %d samples vs %d", c, len(x), len(y))
		}
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				return fmt.Sprintf("%v sample %d: %v vs %v", c, i, x[i], y[i])
			}
		}
	}
	return ""
}

// randomSpec draws a workload of one to four phases with random mixes,
// patterns, branch behaviour and faulting syscalls.
func randomSpec(src *rng.Source, i int) workload.Spec {
	spec := workload.Spec{
		Name:         fmt.Sprintf("random-%d", i),
		Instructions: uint64(5_000 + src.Intn(25_000)),
		Seed:         src.Uint64(),
	}
	for p := 1 + src.Intn(4); p > 0; p-- {
		mix := [4]float64{src.Float64(), src.Float64(), src.Float64(), src.Float64() * 0.1}
		scale := src.Range(0.2, 1) / (mix[0] + mix[1] + mix[2] + mix[3])
		ph := workload.Phase{
			Weight:           src.Range(0.5, 2),
			LoadFrac:         mix[0] * scale,
			StoreFrac:        mix[1] * scale,
			BranchFrac:       mix[2] * scale,
			SyscallFrac:      mix[3] * scale,
			LoadPattern:      randomPattern(src),
			BranchRegularity: src.Float64(),
			BranchTakenProb:  src.Float64(),
			BranchSites:      1 + src.Intn(40),
			SyscallFaultProb: src.Float64(),
		}
		if src.Bool(0.5) {
			ph.StorePattern = randomPattern(src)
		}
		if src.Bool(0.2) {
			ph.StoreFrac = 0
		}
		spec.Phases = append(spec.Phases, ph)
	}
	return spec
}

// randomPattern draws one of the seven pattern kinds over a working set
// of up to 8 MiB.
func randomPattern(src *rng.Source) workload.PatternSpec {
	ws := uint64(64<<10) << src.Intn(8)
	switch src.Intn(7) {
	case 0:
		return workload.Sequential{WorkingSet: ws, Stride: 64 << src.Intn(3)}
	case 1:
		return workload.Streams{WorkingSet: ws, Count: 1 + src.Intn(4)}
	case 2:
		return workload.Random{WorkingSet: ws}
	case 3:
		return workload.Zipf{WorkingSet: ws, Alpha: src.Range(0.5, 1.2)}
	case 4:
		return workload.PointerChase{WorkingSet: ws}
	case 5:
		return workload.HotCold{HotSet: ws / 16, ColdSet: ws, HotFrac: src.Float64()}
	}
	return workload.Alternating{
		A:      workload.Random{WorkingSet: ws},
		B:      workload.Sequential{WorkingSet: ws},
		Period: 1 + src.Intn(200),
	}
}
