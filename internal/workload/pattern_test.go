package workload

import (
	"testing"

	"perspector/internal/rng"
)

// draw takes the next n addresses of g in one NextBatch.
func draw(g AddrGen, n int) []uint64 {
	out := make([]uint64, n)
	g.NextBatch(out)
	return out
}

func TestSequentialWraps(t *testing.T) {
	g, err := Sequential{WorkingSet: 256, Stride: 64}.Instantiate(0x1000, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	want := []uint64{0x1000, 0x1040, 0x1080, 0x10c0, 0x1000}
	for i, got := range draw(g, len(want)) {
		if w := want[i]; got != w {
			t.Fatalf("step %d: %#x, want %#x", i, got, w)
		}
	}
}

func TestSequentialDefaultStride(t *testing.T) {
	g, err := Sequential{WorkingSet: 128}.Instantiate(0, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if got := draw(g, 2)[1]; got != 64 {
		t.Fatalf("default stride: second addr %#x, want 64", got)
	}
}

func TestSequentialErrors(t *testing.T) {
	if _, err := (Sequential{}).Instantiate(0, rng.New(1)); err == nil {
		t.Fatal("zero working set accepted")
	}
}

func TestStreamsInterleave(t *testing.T) {
	g, err := Streams{WorkingSet: 4096, Count: 2, Stride: 64}.Instantiate(0, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	a := draw(g, 3)
	a0, a1, a2 := a[0], a[1], a[2] // streams 0, 1, then 0 again
	if a1-a0 != 2048 {
		t.Fatalf("streams not 2048 apart: %#x %#x", a0, a1)
	}
	if a2-a0 != 64 {
		t.Fatalf("stream 0 did not advance by stride: %#x %#x", a0, a2)
	}
}

func TestStreamsErrors(t *testing.T) {
	if _, err := (Streams{WorkingSet: 4096, Count: 0}).Instantiate(0, rng.New(1)); err == nil {
		t.Fatal("count 0 accepted")
	}
	if _, err := (Streams{WorkingSet: 64, Count: 4}).Instantiate(0, rng.New(1)); err == nil {
		t.Fatal("working set smaller than streams accepted")
	}
}

func TestRandomInBounds(t *testing.T) {
	ws := uint64(1 << 16)
	g, err := Random{WorkingSet: ws}.Instantiate(0x10000, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range draw(g, 10000) {
		if a < 0x10000 || a >= 0x10000+ws {
			t.Fatalf("address %#x out of region", a)
		}
		if a%64 != 0 {
			t.Fatalf("address %#x not line aligned", a)
		}
	}
}

func TestRandomErrors(t *testing.T) {
	if _, err := (Random{WorkingSet: 32}).Instantiate(0, rng.New(1)); err == nil {
		t.Fatal("sub-line working set accepted")
	}
}

func TestZipfSkewsPages(t *testing.T) {
	ws := uint64(256 * 4096)
	g, err := Zipf{WorkingSet: ws, Alpha: 1.2}.Instantiate(0, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	counts := map[uint64]int{}
	for _, a := range draw(g, 50000) {
		if a >= ws {
			t.Fatalf("address %#x out of region", a)
		}
		counts[a/4096]++
	}
	if counts[0] <= counts[128] {
		t.Fatalf("zipf not skewed: page0=%d page128=%d", counts[0], counts[128])
	}
}

func TestZipfErrors(t *testing.T) {
	if _, err := (Zipf{WorkingSet: 1024}).Instantiate(0, rng.New(1)); err == nil {
		t.Fatal("sub-page working set accepted")
	}
	if _, err := (Zipf{WorkingSet: 4096, Alpha: -1}).Instantiate(0, rng.New(1)); err == nil {
		t.Fatal("negative alpha accepted")
	}
}

func TestPointerChaseFullCycle(t *testing.T) {
	ws := uint64(64 * 64) // 64 lines
	g, err := PointerChase{WorkingSet: ws}.Instantiate(0, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]bool{}
	for _, a := range draw(g, 64) {
		if a >= ws || a%64 != 0 {
			t.Fatalf("address %#x invalid", a)
		}
		if seen[a] {
			t.Fatalf("line %#x revisited before full cycle", a)
		}
		seen[a] = true
	}
	if len(seen) != 64 {
		t.Fatalf("cycle covered %d lines, want 64", len(seen))
	}
	// The next access restarts the same cycle.
	first := draw(g, 1)[0]
	if !seen[first] {
		t.Fatal("second cycle visits new address")
	}
}

func TestPointerChaseErrors(t *testing.T) {
	if _, err := (PointerChase{WorkingSet: 32}).Instantiate(0, rng.New(1)); err == nil {
		t.Fatal("sub-line working set accepted")
	}
	if _, err := (PointerChase{WorkingSet: 1 << 40}).Instantiate(0, rng.New(1)); err == nil {
		t.Fatal("oversized working set accepted")
	}
}

func TestHotColdSplit(t *testing.T) {
	h := HotCold{HotSet: 4096, ColdSet: 1 << 20, HotFrac: 0.9}
	g, err := h.Instantiate(0, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	hot, cold := 0, 0
	for _, a := range draw(g, 20000) {
		switch {
		case a < 4096:
			hot++
		case a < 4096+1<<20:
			cold++
		default:
			t.Fatalf("address %#x out of region", a)
		}
	}
	frac := float64(hot) / 20000
	if frac < 0.87 || frac > 0.93 {
		t.Fatalf("hot fraction = %v, want ~0.9", frac)
	}
	if cold == 0 {
		t.Fatal("no cold accesses")
	}
}

func TestHotColdErrors(t *testing.T) {
	if _, err := (HotCold{HotSet: 0, ColdSet: 4096, HotFrac: 0.5}).Instantiate(0, rng.New(1)); err == nil {
		t.Fatal("zero hot set accepted")
	}
	if _, err := (HotCold{HotSet: 4096, ColdSet: 4096, HotFrac: 2}).Instantiate(0, rng.New(1)); err == nil {
		t.Fatal("fraction > 1 accepted")
	}
}

func TestAlternatingSwitches(t *testing.T) {
	a := Sequential{WorkingSet: 4096}
	b := Sequential{WorkingSet: 4096}
	g, err := Alternating{A: a, B: b, Period: 4}.Instantiate(0, rng.New(6))
	if err != nil {
		t.Fatal(err)
	}
	// First 4 accesses in region A ([0, 4096)), next 4 in region B.
	addrs := draw(g, 9)
	for i, addr := range addrs[:4] {
		if addr >= 4096 {
			t.Fatalf("access %d at %#x escaped region A", i, addr)
		}
	}
	for i, addr := range addrs[4:8] {
		if addr < 4096 || addr >= 8192 {
			t.Fatalf("access %d at %#x outside region B", i, addr)
		}
	}
	// And back to A.
	if addr := addrs[8]; addr >= 4096 {
		t.Fatalf("did not return to region A: %#x", addr)
	}
}

func TestAlternatingDefaultPeriod(t *testing.T) {
	g, err := Alternating{
		A: Sequential{WorkingSet: 64 * 64},
		B: Sequential{WorkingSet: 64 * 64},
	}.Instantiate(0, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	addrs := draw(g, 65)
	inA := 0
	for _, a := range addrs[:64] {
		if a < 64*64 {
			inA++
		}
	}
	if inA != 64 {
		t.Fatalf("default period: first 64 accesses had %d in region A, want 64", inA)
	}
	if addrs[64] < 64*64 {
		t.Fatal("access 65 still in region A")
	}
}

func TestAlternatingErrors(t *testing.T) {
	if _, err := (Alternating{A: Sequential{WorkingSet: 64}}).Instantiate(0, rng.New(1)); err == nil {
		t.Fatal("missing B accepted")
	}
	if _, err := (Alternating{
		A: Sequential{WorkingSet: 64}, B: Sequential{WorkingSet: 64}, Period: -1,
	}).Instantiate(0, rng.New(1)); err == nil {
		t.Fatal("negative period accepted")
	}
	if _, err := (Alternating{
		A: Sequential{}, B: Sequential{WorkingSet: 64},
	}).Instantiate(0, rng.New(1)); err == nil {
		t.Fatal("invalid sub-pattern accepted")
	}
}

func TestAlternatingInSpec(t *testing.T) {
	spec := Spec{
		Name: "alt", Instructions: 5000, Seed: 8,
		Phases: []Phase{{
			Name: "mix", Weight: 1, LoadFrac: 0.5,
			LoadPattern: Alternating{
				A:      Random{WorkingSet: 1 << 20},
				B:      Sequential{WorkingSet: 1 << 20},
				Period: 16,
			},
		}},
	}
	prog, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(drainProgram(prog)); n != 5000 {
		t.Fatalf("alternating spec produced %d instructions", n)
	}
}

func TestFootprints(t *testing.T) {
	cases := []struct {
		spec PatternSpec
		want uint64
	}{
		{Sequential{WorkingSet: 100}, 100},
		{Streams{WorkingSet: 200}, 200},
		{Random{WorkingSet: 300}, 300},
		{Zipf{WorkingSet: 400}, 400},
		{PointerChase{WorkingSet: 500}, 500},
		{HotCold{HotSet: 100, ColdSet: 200}, 300},
		{Alternating{A: Sequential{WorkingSet: 100}, B: Random{WorkingSet: 200}}, 300},
		{Alternating{}, 0},
	}
	for _, c := range cases {
		if got := c.spec.Footprint(); got != c.want {
			t.Fatalf("%T footprint = %d, want %d", c.spec, got, c.want)
		}
	}
}
