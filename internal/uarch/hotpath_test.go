package uarch

import (
	"testing"

	"perspector/internal/rng"
)

// TestSetIndexMatchesModulo pins the division-free set selection against
// the modulo it replaces, across every geometry the simulator configures
// (including the non-power-of-two 12288-set L3 and the TLB levels that
// reuse Cache with one-byte lines) plus adversarial synthetic shapes.
// Random 64-bit lines routinely push the odd-factor quotient past 2^32,
// so both the Lemire reduction and its wide fallback are exercised.
func TestSetIndexMatchesModulo(t *testing.T) {
	mc := DefaultMachineConfig()
	cfgs := []CacheConfig{
		mc.L1, // 64 sets
		mc.L2, // 512 sets
		mc.L3, // 12288 sets = 3 << 12
		{Name: "dTLB-L1", SizeB: mc.TLB.L1Entries, LineB: 1, Ways: mc.TLB.L1Ways},
		{Name: "dTLB-L2", SizeB: mc.TLB.L2Entries, LineB: 1, Ways: mc.TLB.L2Ways},
		{Name: "odd-80", SizeB: 80 * 64 * 2, LineB: 64, Ways: 2}, // 80 = 5 << 4
		{Name: "odd-48", SizeB: 48 * 64 * 4, LineB: 64, Ways: 4}, // 48 = 3 << 4
		{Name: "prime-7", SizeB: 7 * 64, LineB: 64, Ways: 1},     // odd with shift 0
		{Name: "one-set", SizeB: 64 * 16, LineB: 64, Ways: 16},   // degenerate single set
	}
	src := rng.New(0x5e71dece)
	for _, cfg := range cfgs {
		c, err := NewCache(cfg)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		for i := 0; i < 200_000; i++ {
			line := src.Uint64()
			switch i % 4 {
			case 1:
				line >>= 6 // typical line-number magnitude
			case 2:
				line &= 1<<20 - 1 // small working set
			case 3:
				line |= 1 << 63 // force the wide-quotient fallback
			}
			if got, want := c.setIndex(line), line%c.numSets; got != want {
				t.Fatalf("%s: setIndex(%#x) = %d, want %d (sets=%d)",
					cfg.Name, line, got, want, c.numSets)
			}
		}
	}
}

func TestCacheRejectsTooManyWays(t *testing.T) {
	_, err := NewCache(CacheConfig{Name: "wide", SizeB: 17 * 64, LineB: 64, Ways: 17})
	if err == nil {
		t.Fatal("17-way cache accepted; packed-LRU order word only holds 16 ways")
	}
}

func TestPageBitmap(t *testing.T) {
	var b pageBitmap
	b.init()
	pages := []uint64{0, 1, 63, 64, 1 << pageChunkBits, 1 << 40, 1<<52 - 1}
	for _, p := range pages {
		if b.testAndSet(p) {
			t.Fatalf("page %#x reported touched before first touch", p)
		}
		if !b.testAndSet(p) {
			t.Fatalf("page %#x not remembered after touch", p)
		}
	}
	// Neighbours of touched pages stay untouched.
	if b.testAndSet(2) {
		t.Fatal("untouched neighbour page reported touched")
	}
	b.reset()
	for _, p := range pages {
		if b.testAndSet(p) {
			t.Fatalf("page %#x survived reset", p)
		}
	}
}
