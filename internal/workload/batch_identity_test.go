package workload

import (
	"testing"

	"perspector/internal/rng"
	"perspector/internal/uarch"
)

func multiPhaseSpec() Spec {
	return Spec{
		Name:         "multi",
		Instructions: 30_000,
		Seed:         7,
		Phases: []Phase{
			{
				Name: "gather", Weight: 2,
				LoadFrac: 0.4, StoreFrac: 0.05, BranchFrac: 0.2, SyscallFrac: 0.001,
				LoadPattern:      Random{WorkingSet: 256 << 10},
				BranchRegularity: 0.7, BranchTakenProb: 0.6,
				SyscallFaultProb: 0.1,
			},
			{
				Name: "stream", Weight: 1,
				LoadFrac: 0.3, StoreFrac: 0.2, BranchFrac: 0.1,
				LoadPattern:      Sequential{WorkingSet: 64 << 10},
				StorePattern:     HotCold{HotSet: 4 << 10, ColdSet: 32 << 10, HotFrac: 0.8},
				BranchRegularity: 0.9, BranchTakenProb: 0.5,
			},
			{
				Name: "mix", Weight: 1,
				LoadFrac: 0.25, StoreFrac: 0.1, BranchFrac: 0.25,
				LoadPattern:      Streams{WorkingSet: 96 << 10, Count: 3},
				BranchRegularity: 0.2, BranchTakenProb: 0.3,
			},
		},
	}
}

// drainChunked collects prog's whole instruction stream through NextBatch
// calls of the given chunk size.
func drainChunked(prog *Program, chunk int) []uarch.Instr {
	var out []uarch.Instr
	buf := make([]uarch.Instr, chunk)
	for {
		n := prog.NextBatch(buf)
		out = append(out, buf[:n]...)
		if n < chunk {
			return out
		}
	}
}

// TestNextBatchMatchesNext requires a program's instruction stream to be
// independent of how NextBatch calls are sized: deliberately awkward
// chunk sizes, across phase boundaries and program end, must reproduce
// the chunk-1 stream exactly. This is the workload-level half of the
// block equivalence contract (the machine-level half lives in
// internal/suites).
func TestNextBatchMatchesNext(t *testing.T) {
	ref, err := Compile(multiPhaseSpec())
	if err != nil {
		t.Fatal(err)
	}
	want := drainChunked(ref, 1)
	if len(want) != 30_000 {
		t.Fatalf("chunk 1: stream ended after %d instructions, want 30000", len(want))
	}
	for _, chunk := range []int{3, 7, 64, 129, 1000, 4096} {
		prog, err := Compile(multiPhaseSpec())
		if err != nil {
			t.Fatal(err)
		}
		got := drainChunked(prog, chunk)
		if len(got) != len(want) {
			t.Fatalf("chunk %d: %d instructions, chunk 1 gave %d", chunk, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("chunk %d: instruction %d diverges: %+v, chunk 1 %+v", chunk, i, got[i], want[i])
			}
		}
	}
}

// TestAddrGenChunkInvariant draws n addresses one at a time through
// NextBatch and compares them with one NextBatch of n from an identical
// generator, for every pattern kind. The Alternating period of 48 does
// not divide the bulk draws of a program's blocks, so its switch points
// fall inside them.
func TestAddrGenChunkInvariant(t *testing.T) {
	patterns := []PatternSpec{
		Sequential{WorkingSet: 16 << 10, Stride: 192},
		Streams{WorkingSet: 64 << 10, Count: 3},
		Random{WorkingSet: 3 << 20},
		Zipf{WorkingSet: 8 << 20, Alpha: 0.9},
		PointerChase{WorkingSet: 512 << 10},
		HotCold{HotSet: 8 << 10, ColdSet: 6 << 20, HotFrac: 0.7},
		Alternating{A: Random{WorkingSet: 1 << 20}, B: Sequential{WorkingSet: 1 << 20}, Period: 48},
	}
	const n = 5000
	for _, p := range patterns {
		one, err := p.Instantiate(1<<33, rng.New(21))
		if err != nil {
			t.Fatal(err)
		}
		whole, err := p.Instantiate(1<<33, rng.New(21))
		if err != nil {
			t.Fatal(err)
		}
		want := make([]uint64, n)
		whole.NextBatch(want)
		got := make([]uint64, n)
		for i := range got {
			one.NextBatch(got[i : i+1])
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%T: address %d drawn singly %#x, in one batch %#x", p, i, got[i], want[i])
			}
		}
		releaseGen(one)
		releaseGen(whole)
	}
}
