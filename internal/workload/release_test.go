package workload

import (
	"runtime"
	"slices"
	"testing"

	"perspector/internal/rng"
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
		walk(pr.phases[i].loadGen)
		walk(pr.phases[i].storeGen)
	}
	return out
}

func drainProgram(pr *Program) []uarch.Instr { return drainChunked(pr, 512) }

// TestReleasedTableReuseKeepsStream compiles a program on a table another
// program used and released: whatever that table held, the instruction
// stream must be the one a freshly allocated table yields.
func TestReleasedTableReuseKeepsStream(t *testing.T) {
	emptyChaseTables() // the reference compiles on fresh tables
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
	if reused != tables {
		t.Fatalf("%d of %d tables came from a released program, want all", reused, tables)
	}
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

// emptyChaseTables drops every idle chase table, so the next compiles
// allocate.
func emptyChaseTables() {
	chaseTables.mu.Lock()
	defer chaseTables.mu.Unlock()
	chaseTables.tables, chaseTables.idle = nil, 0
}

// TestReleasedTableSurvivesGC releases a program's tables, collects
// garbage twice, and compiles the same spec again: the new program must
// walk the very tables the first one released.
func TestReleasedTableSurvivesGC(t *testing.T) {
	emptyChaseTables()
	a, err := Compile(chaseSpec(3, 256<<10))
	if err != nil {
		t.Fatal(err)
	}
	released := map[*uint32]bool{}
	for _, g := range chaseGensOf(a) {
		released[&g.next[0]] = true
	}
	a.Release()
	runtime.GC()
	runtime.GC()
	b, err := Compile(chaseSpec(3, 256<<10))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Release()
	for i, g := range chaseGensOf(b) {
		if !released[&g.next[0]] {
			t.Fatalf("chase generator %d got a fresh table after two GCs", i)
		}
	}
}

func TestChaseFreeListBestFit(t *testing.T) {
	l := chaseFreeList{budget: 1 << 20}
	small, mid, large := make([]uint32, 50), make([]uint32, 100), make([]uint32, 200)
	for _, tab := range [][]uint32{mid, large, small} {
		l.put(tab)
	}
	for _, c := range []struct {
		n    int
		want []uint32
	}{{60, mid}, {10, small}, {10, large}} {
		got := l.get(c.n)
		if len(got) != c.n || &got[0] != &c.want[0] {
			t.Fatalf("get(%d) returned a table of capacity %d, want the idle table of capacity %d", c.n, cap(got), cap(c.want))
		}
	}
	if l.idle != 0 || len(l.tables) != 0 {
		t.Fatalf("free list holds %d tables, %d bytes after handing out all three", len(l.tables), l.idle)
	}
	l.put(small)
	if got := l.get(51); &got[0] == &small[0] {
		t.Fatal("get(51) reused a table of capacity 50")
	}
}

// TestChaseFreeListIdleBudget runs random puts and gets against a model
// of the policy: best fit on get, and on put the smallest idle tables
// dropped until the idle bytes fit the budget.
func TestChaseFreeListIdleBudget(t *testing.T) {
	const budget = 4 << 10
	l := chaseFreeList{budget: budget}
	var model []int // idle capacities, sorted
	src := rng.New(7)
	for i := 0; i < 500; i++ {
		n := 1 + src.Intn(budget/8)
		if i%3 == 2 {
			got := l.get(n)
			if j, _ := slices.BinarySearch(model, n); j < len(model) {
				if cap(got) != model[j] {
					t.Fatalf("op %d: get(%d) returned capacity %d, best fit is %d", i, n, cap(got), model[j])
				}
				model = slices.Delete(model, j, j+1)
			}
			continue
		}
		l.put(make([]uint32, n))
		j, _ := slices.BinarySearch(model, n)
		model = slices.Insert(model, j, n)
		for 4*sum(model) > budget {
			model = model[1:]
		}
		var held []int
		for _, tab := range l.tables {
			held = append(held, cap(tab))
		}
		slices.Sort(held)
		if !slices.Equal(held, model) || l.idle != 4*sum(model) {
			t.Fatalf("op %d: free list holds %v (%d bytes counted), want %v", i, held, l.idle, model)
		}
	}
}

func sum(xs []int) int {
	s := 0
	for _, x := range xs {
		s += x
	}
	return s
}
