package workload

import (
	"testing"

	"perspector/internal/uarch"
)

// chaseSpec has a pointer chase on both the load side and, under an
// Alternating store pattern, the store side.
func chaseSpec(seed, loadWS uint64) Spec {
	return Spec{
		Name:         "chase",
		Instructions: 20_000,
		Seed:         seed,
		Phases: []Phase{
			{
				Name: "walk", Weight: 3,
				LoadFrac: 0.4, StoreFrac: 0.1, BranchFrac: 0.1,
				LoadPattern: PointerChase{WorkingSet: loadWS},
				StorePattern: Alternating{
					A:      PointerChase{WorkingSet: loadWS / 2},
					B:      Sequential{WorkingSet: 64 << 10},
					Period: 16,
				},
				BranchRegularity: 0.8, BranchTakenProb: 0.5,
			},
			{
				Name: "alu", Weight: 1,
				BranchFrac: 0.2, BranchRegularity: 0.5, BranchTakenProb: 0.5,
			},
		},
	}
}

// chaseGensOf lists every pointer-chase generator of the program,
// including those under Alternating patterns.
func chaseGensOf(pr *Program) []*chaseGen {
	var out []*chaseGen
	var walk func(AddrGen)
	walk = func(g AddrGen) {
		switch g := g.(type) {
		case *chaseGen:
			out = append(out, g)
		case *altGen:
			walk(g.a)
			walk(g.b)
		}
	}
	for i := range pr.phases {
		walk(pr.phases[i].loadGen.gen)
		walk(pr.phases[i].storeGen.gen)
	}
	return out
}

func drainProgram(pr *Program) []uarch.Instr {
	var out []uarch.Instr
	buf := make([]uarch.Instr, 512)
	for {
		n := pr.NextBatch(buf)
		if n == 0 {
			return out
		}
		out = append(out, buf[:n]...)
	}
}

// TestReleasedTableReuseKeepsStream compiles a program on a table another
// program used and released: whatever that table held, the instruction
// stream must be the one a freshly allocated table yields.
func TestReleasedTableReuseKeepsStream(t *testing.T) {
	for chaseTables.Get() != nil {
		// Empty the pool so the reference compiles on fresh tables.
	}
	fresh, err := Compile(chaseSpec(11, 256<<10))
	if err != nil {
		t.Fatal(err)
	}
	want := drainProgram(fresh)

	const rounds = 8
	reused, tables := 0, 0
	for round := 0; round < rounds; round++ {
		a, err := Compile(chaseSpec(uint64(100+round), 1<<20))
		if err != nil {
			t.Fatal(err)
		}
		drainProgram(a)
		owned := map[*uint32]bool{}
		for _, g := range chaseGensOf(a) {
			owned[&g.next[0]] = true
		}
		a.Release()

		b, err := Compile(chaseSpec(11, 256<<10))
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range chaseGensOf(b) {
			tables++
			if owned[&g.next[0]] {
				reused++
			}
		}
		got := drainProgram(b)
		if len(got) != len(want) {
			t.Fatalf("round %d: %d instructions, want %d", round, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("round %d: instruction %d = %+v on a reused table, %+v on a fresh one", round, i, got[i], want[i])
			}
		}
		b.Release()
		b.Release() // a second release is a no-op
	}
	// sync.Pool may drop any Put (the race detector drops them on
	// purpose), so reuse is likely but not guaranteed.
	t.Logf("%d of %d tables came from a released program", reused, tables)
}

func TestReleaseReturnsEveryTable(t *testing.T) {
	pr, err := Compile(chaseSpec(5, 128<<10))
	if err != nil {
		t.Fatal(err)
	}
	gens := chaseGensOf(pr)
	if len(gens) != 2 {
		t.Fatalf("found %d chase generators, want 2 (load, and the store side's under Alternating)", len(gens))
	}
	pr.Release()
	for i, g := range gens {
		if g.next != nil {
			t.Fatalf("chase generator %d still holds its table after Release", i)
		}
	}
	pr.Release()

	defer func() {
		if recover() == nil {
			t.Fatal("drawing from a released chase table did not panic")
		}
	}()
	drainProgram(pr)
}

func TestResetAfterRelease(t *testing.T) {
	pr, err := Compile(chaseSpec(9, 128<<10))
	if err != nil {
		t.Fatal(err)
	}
	want := drainProgram(pr)
	pr.Release()
	pr.Reset()
	got := drainProgram(pr)
	if len(got) != len(want) {
		t.Fatalf("%d instructions after Reset, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("instruction %d after Release+Reset = %+v, want %+v", i, got[i], want[i])
		}
	}
	// Reset also releases the tables it replaces.
	old := chaseGensOf(pr)
	pr.Reset()
	for i, g := range old {
		if g.next != nil {
			t.Fatalf("Reset kept chase generator %d's table", i)
		}
	}
	pr.Release()
}
