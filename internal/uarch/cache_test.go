package uarch

import (
	"testing"
	"testing/quick"

	"perspector/internal/rng"
)

func mustCache(t *testing.T, cfg CacheConfig) *Cache {
	t.Helper()
	c, err := NewCache(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCacheColdMissThenHit(t *testing.T) {
	c := mustCache(t, CacheConfig{Name: "t", SizeB: 1024, LineB: 64, Ways: 2})
	if c.Access(0x1000) {
		t.Fatal("cold access hit")
	}
	if !c.Access(0x1000) {
		t.Fatal("second access missed")
	}
	// Same line, different offset.
	if !c.Access(0x103f) {
		t.Fatal("same-line access missed")
	}
	// Next line.
	if c.Access(0x1040) {
		t.Fatal("next-line cold access hit")
	}
}

func TestCacheGeometry(t *testing.T) {
	c := mustCache(t, CacheConfig{Name: "t", SizeB: 32 << 10, LineB: 64, Ways: 8})
	if c.LineBytes() != 64 || c.Ways() != 8 || c.Sets() != 64 {
		t.Fatalf("geometry: line=%d ways=%d sets=%d", c.LineBytes(), c.Ways(), c.Sets())
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// Direct construction of a 2-way, 1-set cache: 2 lines total.
	c := mustCache(t, CacheConfig{Name: "t", SizeB: 128, LineB: 64, Ways: 2})
	if c.Sets() != 1 {
		t.Fatalf("sets = %d, want 1", c.Sets())
	}
	c.Access(0x0)  // A miss
	c.Access(0x40) // B miss
	c.Access(0x0)  // A hit (A becomes MRU)
	c.Access(0x80) // C miss, evicts LRU = B
	if !c.Access(0x0) {
		t.Fatal("A evicted despite being MRU")
	}
	if c.Access(0x40) {
		t.Fatal("B survived despite being LRU victim")
	}
}

func TestCacheWorkingSetFits(t *testing.T) {
	// A working set equal to capacity has ~100% hits after warmup.
	c := mustCache(t, CacheConfig{Name: "t", SizeB: 4096, LineB: 64, Ways: 4})
	lines := 4096 / 64
	for round := 0; round < 3; round++ {
		for i := 0; i < lines; i++ {
			c.Access(uint64(i * 64))
		}
	}
	acc, miss := c.Stats()
	if acc != uint64(3*lines) {
		t.Fatalf("accesses = %d", acc)
	}
	if miss != uint64(lines) {
		t.Fatalf("misses = %d, want %d (cold only)", miss, lines)
	}
}

func TestCacheThrashing(t *testing.T) {
	// A working set of 2× capacity swept sequentially misses every time
	// with LRU.
	c := mustCache(t, CacheConfig{Name: "t", SizeB: 1024, LineB: 64, Ways: 2})
	lines := 2 * 1024 / 64
	for round := 0; round < 3; round++ {
		for i := 0; i < lines; i++ {
			c.Access(uint64(i * 64))
		}
	}
	acc, miss := c.Stats()
	if miss != acc {
		t.Fatalf("thrash: %d misses of %d accesses, want all misses", miss, acc)
	}
}

func TestCacheReset(t *testing.T) {
	c := mustCache(t, CacheConfig{Name: "t", SizeB: 1024, LineB: 64, Ways: 2})
	c.Access(0x1000)
	c.Reset()
	acc, miss := c.Stats()
	if acc != 0 || miss != 0 {
		t.Fatal("Reset did not clear stats")
	}
	if c.Access(0x1000) {
		t.Fatal("Reset did not invalidate lines")
	}
}

func TestCacheConfigErrors(t *testing.T) {
	bad := []CacheConfig{
		{SizeB: 0, LineB: 64, Ways: 2},
		{SizeB: 1024, LineB: 0, Ways: 2},
		{SizeB: 1024, LineB: 64, Ways: 0},
		{SizeB: 1000, LineB: 64, Ways: 2}, // not divisible
		{SizeB: 1024, LineB: 48, Ways: 2}, // line size not a power of two
	}
	for i, cfg := range bad {
		if _, err := NewCache(cfg); err == nil {
			t.Fatalf("bad config %d accepted: %+v", i, cfg)
		}
	}
}

func TestCacheMissesNeverExceedAccesses(t *testing.T) {
	f := func(seed uint64) bool {
		c, err := NewCache(CacheConfig{Name: "q", SizeB: 2048, LineB: 64, Ways: 4})
		if err != nil {
			return false
		}
		src := rng.New(seed)
		for i := 0; i < 2000; i++ {
			c.Access(uint64(src.Intn(1 << 20)))
		}
		acc, miss := c.Stats()
		return miss <= acc && acc == 2000
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTLBBasics(t *testing.T) {
	tlb, err := NewTLB(DefaultTLBConfig())
	if err != nil {
		t.Fatal(err)
	}
	r := tlb.Translate(0x1000)
	if !r.L1Miss || !r.Walked {
		t.Fatalf("cold translate = %+v, want full miss", r)
	}
	r = tlb.Translate(0x1800) // same 4K page
	if r.L1Miss {
		t.Fatalf("same-page translate missed: %+v", r)
	}
}

func TestTLBL2Backing(t *testing.T) {
	tlb, err := NewTLB(TLBConfig{
		L1Entries: 4, L1Ways: 4, L2Entries: 64, L2Ways: 4,
		PageB: 4096, WalkCycles: 30, L2HitCycles: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Touch 8 pages: L1 (4 entries) cannot hold them, L2 (64) can.
	for p := 0; p < 8; p++ {
		tlb.Translate(uint64(p) * 4096)
	}
	// Second sweep: all L1 misses should hit L2 (no walks).
	_, _, walksBefore := tlb.Stats()
	for p := 0; p < 8; p++ {
		r := tlb.Translate(uint64(p) * 4096)
		if r.Walked {
			t.Fatalf("page %d walked despite L2 capacity", p)
		}
		_ = r
	}
	_, _, walksAfter := tlb.Stats()
	if walksAfter != walksBefore {
		t.Fatal("second sweep triggered walks")
	}
}

func TestTLBHugeWorkingSetWalks(t *testing.T) {
	tlb, err := NewTLB(DefaultTLBConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Sweep 4096 pages twice: far beyond 1536 L2 entries, every access
	// in the second sweep still walks.
	for round := 0; round < 2; round++ {
		for p := 0; p < 4096; p++ {
			tlb.Translate(uint64(p) * 4096)
		}
	}
	acc, _, walks := tlb.Stats()
	if acc != 8192 {
		t.Fatalf("accesses = %d", acc)
	}
	if walks != 8192 {
		t.Fatalf("walks = %d, want all (sequential sweep beyond capacity)", walks)
	}
}

func TestTLBConfigErrors(t *testing.T) {
	cfg := DefaultTLBConfig()
	cfg.PageB = 1000
	if _, err := NewTLB(cfg); err == nil {
		t.Fatal("non-power-of-two page accepted")
	}
}

func TestTLBReset(t *testing.T) {
	tlb, err := NewTLB(DefaultTLBConfig())
	if err != nil {
		t.Fatal(err)
	}
	tlb.Translate(0x1000)
	tlb.Reset()
	acc, misses, walks := tlb.Stats()
	if acc != 0 || misses != 0 || walks != 0 {
		t.Fatal("Reset did not clear stats")
	}
	if r := tlb.Translate(0x1000); !r.Walked {
		t.Fatal("Reset did not clear entries")
	}
}

func TestBranchPredictorLearnsBias(t *testing.T) {
	bp, err := NewBranchPredictor(12, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Always-taken branch: near-perfect after warmup.
	for i := 0; i < 1000; i++ {
		bp.Predict(0x400000, true)
	}
	_, miss := bp.Stats()
	if miss > 5 {
		t.Fatalf("always-taken mispredicts = %d", miss)
	}
}

func TestBranchPredictorLearnsPattern(t *testing.T) {
	bp, err := NewBranchPredictor(14, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Period-4 pattern TTNT: gshare history disambiguates it.
	pattern := []bool{true, true, false, true}
	for i := 0; i < 4000; i++ {
		bp.Predict(0x400100, pattern[i%4])
	}
	pred, miss := bp.Stats()
	if float64(miss)/float64(pred) > 0.1 {
		t.Fatalf("pattern miss rate = %d/%d", miss, pred)
	}
}

func TestBranchPredictorRandomIsHard(t *testing.T) {
	bp, err := NewBranchPredictor(14, 10)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(1)
	for i := 0; i < 10000; i++ {
		bp.Predict(0x400200, src.Bool(0.5))
	}
	pred, miss := bp.Stats()
	rate := float64(miss) / float64(pred)
	if rate < 0.35 || rate > 0.65 {
		t.Fatalf("random-branch miss rate = %v, want ~0.5", rate)
	}
}

func TestBranchPredictorConfigErrors(t *testing.T) {
	if _, err := NewBranchPredictor(0, 0); err == nil {
		t.Fatal("zero table accepted")
	}
	if _, err := NewBranchPredictor(30, 8); err == nil {
		t.Fatal("oversized table accepted")
	}
	if _, err := NewBranchPredictor(8, 10); err == nil {
		t.Fatal("history > table accepted")
	}
}

func TestBranchPredictorReset(t *testing.T) {
	bp, err := NewBranchPredictor(10, 8)
	if err != nil {
		t.Fatal(err)
	}
	bp.Predict(1, true)
	bp.Reset()
	pred, miss := bp.Stats()
	if pred != 0 || miss != 0 {
		t.Fatal("Reset did not clear stats")
	}
}

func BenchmarkBranchPredict(b *testing.B) {
	bp, err := NewBranchPredictor(14, 12)
	if err != nil {
		b.Fatal(err)
	}
	src := rng.New(1)
	outcomes := make([]bool, 4096)
	for i := range outcomes {
		outcomes[i] = src.Bool(0.7)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bp.Predict(uint64(i&1023), outcomes[i&4095])
	}
}
