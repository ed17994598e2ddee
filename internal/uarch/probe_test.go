package uarch

import (
	"slices"
	"testing"

	"perspector/internal/rng"
)

// refAccess is the recency-order probe Cache.Access used before the
// fill-order scan: the same memo, then a walk of the order word's first
// occ nibbles, most recent first, with the install and eviction paths
// unchanged. It is the reference the fill-order probe must match access
// for access.
func refAccess(c *Cache, addr uint64) bool {
	line := addr >> c.lineBits
	if line+1 == c.lastLineP1 {
		c.accesses++
		return true
	}
	c.accesses++
	c.lastLineP1 = line + 1
	set := c.setIndex(line)
	base := set * waysStride
	tags := c.tags[base : base+waysStride : base+waysStride]
	o := c.order[set]
	occ := uint(c.occ[set])
	for p := uint(0); p < occ; p++ {
		w := o >> (4 * p) & 0xF
		if tags[w] == line {
			splice(&c.order[set], w, p)
			return true
		}
	}
	c.misses++
	if occ < uint(c.ways) {
		c.occ[set] = uint8(occ + 1)
		tags[occ&0xF] = line
		splice(&c.order[set], uint64(occ), occ)
	} else {
		victim := o >> (4 * uint(c.ways-1)) & 0xF
		c.order[set] = (o<<4 | victim) & c.orderMask
		tags[victim] = line
	}
	return false
}

// probePair drives one cache through Access and an identical one through
// refAccess.
type probePair struct {
	got, want *Cache
}

func newProbePair(tb testing.TB, cfg CacheConfig) probePair {
	tb.Helper()
	a, err := NewCache(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	b, err := NewCache(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return probePair{got: a, want: b}
}

// step makes one access on both caches and reports whether the results
// agree, and with them the touched set's recency order, fill level and
// valid tags, the memo and the counters (an access changes nothing else).
func (p probePair) step(addr uint64) bool {
	g, w := p.got, p.want
	if g.Access(addr) != refAccess(w, addr) ||
		g.lastLineP1 != w.lastLineP1 || g.accesses != w.accesses || g.misses != w.misses {
		return false
	}
	set := g.setIndex(addr >> g.lineBits)
	return g.order[set] == w.order[set] && g.occ[set] == w.occ[set] && p.sameTags(int(set))
}

func (p probePair) sameTags(set int) bool {
	row, occ := set*waysStride, int(p.got.occ[set])
	return slices.Equal(p.got.tags[row:row+occ], p.want.tags[row:row+occ])
}

// sameState reports whether both caches hold the same recency orders,
// fill levels and valid tags everywhere.
func (p probePair) sameState() bool {
	if !slices.Equal(p.got.order, p.want.order) || !slices.Equal(p.got.occ, p.want.occ) {
		return false
	}
	for set := range p.got.occ {
		if !p.sameTags(set) {
			return false
		}
	}
	return true
}

// probeGeometries are the stock cache and TLB levels plus the edge
// shapes: direct-mapped, and the full 16 ways over an odd set count.
var probeGeometries = []CacheConfig{
	{Name: "L1D 64x8", SizeB: 32 << 10, LineB: 64, Ways: 8},
	{Name: "L2 512x8", SizeB: 256 << 10, LineB: 64, Ways: 8},
	{Name: "L3 12288x16", SizeB: 12 << 20, LineB: 64, Ways: 16},
	{Name: "dTLB 16x4", SizeB: 64, LineB: 1, Ways: 4},
	{Name: "STLB 128x12", SizeB: 1536, LineB: 1, Ways: 12},
	{Name: "direct 64x1", SizeB: 4 << 10, LineB: 64, Ways: 1},
	{Name: "odd 5x16", SizeB: 5 * 16 * 64, LineB: 64, Ways: 16},
}

// probeStreams returns seeded random, strided and pointer-chase address
// streams sized against the cache. The random window is twice the
// capacity, so sets fill, hit at every recency position and evict. A
// cyclic walk over more lines than a set holds never hits under LRU, so
// the strided window is the capacity itself (a full sweep hits each set
// at its LRU position) and the chase cycles over three quarters of it
// (most sets fit their share while the fullest overflow).
func probeStreams(c *Cache, n int) map[string][]uint64 {
	lines := uint64(c.Sets() * c.Ways())
	lb := uint64(c.LineBytes())
	src := rng.New(lines)
	random := make([]uint64, n)
	for i := range random {
		random[i] = uint64(src.Intn(int(2*lines))) * lb
	}
	// Strides of one line, one set row (every access in one set) and an
	// odd multiple of a line.
	strided := make([]uint64, n)
	strides := []uint64{1, uint64(c.Sets()), 3}
	for i := range strided {
		s := strides[i*len(strides)/n]
		strided[i] = (uint64(i) * s % lines) * lb
	}
	next := make([]uint32, max(1, 3*lines/4))
	src.Cycle(next)
	chase := make([]uint64, n)
	cur := uint32(0)
	for i := range chase {
		cur = next[cur]
		chase[i] = uint64(cur) * lb
	}
	return map[string][]uint64{"random": random, "strided": strided, "chase": chase}
}

// TestFillOrderProbeMatchesRecencyWalk pins the fill-order probe to the
// recency walk on every access, and compares the whole cache at the end.
func TestFillOrderProbeMatchesRecencyWalk(t *testing.T) {
	for _, cfg := range probeGeometries {
		probe, err := NewCache(cfg)
		if err != nil {
			t.Fatal(err)
		}
		n := 4 * probe.Sets() * probe.Ways()
		for name, addrs := range probeStreams(probe, n) {
			p := newProbePair(t, cfg)
			for i, addr := range addrs {
				if !p.step(addr) {
					t.Fatalf("%s %s: access %d (addr %#x) differs", cfg.Name, name, i, addr)
				}
			}
			if !p.sameState() {
				t.Fatalf("%s %s: state differs at the end", cfg.Name, name)
			}
			if acc, miss := p.got.Stats(); miss == 0 || miss == acc {
				t.Fatalf("%s %s: %d misses of %d accesses: the stream does not exercise hits and misses", cfg.Name, name, miss, acc)
			}
		}
	}
}

// FuzzCacheAccess checks the fill-order probe against the recency walk
// on a fuzzed geometry and address stream. Addresses are two bytes each
// over a window a few times the cache, so both hits and evictions occur.
func FuzzCacheAccess(f *testing.F) {
	f.Add(uint8(8), uint8(4), uint8(6), []byte{0, 1, 2, 3, 0, 1, 9, 9, 2, 3, 200, 7})
	f.Add(uint8(16), uint8(5), uint8(0), []byte("fill order probe vs recency walk"))
	f.Add(uint8(1), uint8(1), uint8(3), []byte{1, 0, 1, 0, 2, 0})
	f.Fuzz(func(t *testing.T, ways, sets, lineBits uint8, data []byte) {
		cfg := CacheConfig{
			Name:  "fuzz",
			Ways:  1 + int(ways)%maxCacheWays,
			LineB: 1 << (lineBits % 8),
		}
		cfg.SizeB = (1 + int(sets)%64) * cfg.Ways * cfg.LineB
		p := newProbePair(t, cfg)
		window := uint64(3 * cfg.SizeB)
		for i := 0; i+1 < len(data); i += 2 {
			addr := (uint64(data[i])<<8 | uint64(data[i+1])) * uint64(cfg.LineB) / 4 % window
			if !p.step(addr) {
				t.Fatalf("%d-way %d-set: access %d (addr %#x) differs", cfg.Ways, p.got.Sets(), i/2, addr)
			}
		}
		if !p.sameState() {
			t.Fatalf("%d-way %d-set: state differs at the end", cfg.Ways, p.got.Sets())
		}
	})
}

// BenchmarkCacheAccessL3Fill probes a Table-II L3 (12288 sets × 16 ways)
// filling from Reset with distinct random lines: almost every probe is a
// miss into a set that is not yet full, the commonest slow-path probe in
// a cold suite run.
func BenchmarkCacheAccessL3Fill(b *testing.B) {
	c, err := NewCache(CacheConfig{Name: "L3", SizeB: 12 << 20, LineB: 64, Ways: 16})
	if err != nil {
		b.Fatal(err)
	}
	// One pass of the table fills the cache to about a third of its
	// lines; each pass starts again from Reset.
	const pass = 1 << 16
	src := rng.New(1)
	addrs := make([]uint64, pass)
	for i := range addrs {
		addrs[i] = src.Uint64() >> 20 << 6
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%pass == 0 {
			c.Reset()
		}
		c.Access(addrs[i%pass])
	}
}
