// Package uarch is the hardware substrate of the reproduction: an
// instruction-level microarchitecture simulator that stands in for the
// paper's Xeon E-2186G + perf setup (Table II / Table IV). It models a
// three-level set-associative cache hierarchy, a two-level data TLB with a
// page-walk cost model, a gshare branch predictor, an OS page-fault model,
// and an in-order core with cycle accounting, all feeding a PMU that
// exposes exactly the Table-IV events as totals and sampled time series.
package uarch

import (
	"fmt"
	"math/bits"
)

// maxCacheWays bounds associativity: the per-set recency order packs
// 4-bit way indices into one 64-bit word, so at most 16 ways fit. Every
// modelled structure (Table-II caches, Skylake dTLB) is ≤ 16-way.
const maxCacheWays = 16

// waysStride is the tag-row stride in words: rows are padded to the full
// nibble range so a 4-bit way index provably stays in bounds (see
// NewCache). The padding is at most 8 words per set.
const waysStride = maxCacheWays

// Cache state is structure-of-arrays, one array per field across sets:
//
//	order[set]          packed LRU recency order (4-bit way indices,
//	                    nibble 0 = MRU, nibble ways−1 = LRU)
//	occ[set]            fill level (ways fill in index order and are never
//	                    invalidated individually, so validity is always a
//	                    dense prefix and one byte carries it)
//	tags[set*16+w]      full line-number tag of way w (rows padded to the
//	                    4-bit nibble range; see waysStride)
//
// The split replaces the former ways+2-word per-set record. Two effects
// pay for it: the hit probe is a linear scan over a contiguous ≤128-byte
// tag row (independent loads the CPU can overlap and unroll, where the
// packed-record walk chained each probe behind a nibble shift of the
// order word), and the per-set metadata the loop actually touches every
// access — order word and fill byte — packs 64 sets per host cache line
// in the occ array instead of being strewn through 144-byte records, so
// scattered L3 traffic stops thrashing the host L1 with tag rows it
// never reads.
type Cache struct {
	name     string
	lineBits uint
	ways     int
	numSets  uint64

	order []uint64 // packed LRU order per set
	occ   []uint8  // dense-prefix fill level per set
	tags  []uint64 // tags[set*ways + way]

	// Division-free set selection: numSets = odd << setShift, so
	// line % numSets = ((line>>setShift) % odd) << setShift | line&lowMask.
	// The odd-factor modulo uses a precomputed Lemire reciprocal.
	setShift uint
	lowMask  uint64
	odd      uint64
	oddRecip uint64 // ceil(2^64 / odd), valid when odd > 1

	initOrder uint64
	orderMask uint64 // low 4*ways bits of the order word

	// Repeat memo: the most recently accessed line, stored as line+1 so
	// the zero value means "none" without a separate guard bool (keeps
	// Access within the inlining budget; a line of ^uint64(0) merely
	// never memo-hits and resolves through the ordinary probe). After
	// any access — hit or miss — that line is resident and MRU in its
	// set, so an immediately repeated access is a hit whose LRU promote
	// is a no-op; only the access counter needs to move. Page-level
	// structures (the TLB reuses Cache with 1-byte lines) repeat for
	// every consecutive access inside a page, making this the common
	// case for local workloads.
	lastLineP1 uint64

	accesses uint64
	misses   uint64
}

// CacheConfig describes one cache level.
type CacheConfig struct {
	Name     string
	SizeB    int // total capacity in bytes
	LineB    int // line size in bytes (power of two)
	Ways     int // associativity
	LatencyC int // hit latency in cycles
}

// exactLog2 returns log2(v) for exact powers of two and an error
// otherwise. The previous silent-flooring log2 let a 48-byte line size
// slip through construction with corrupted indexing; geometry is now
// rejected up front.
func exactLog2(v uint64) (uint, error) {
	if v == 0 || v&(v-1) != 0 {
		return 0, fmt.Errorf("%d is not a power of two", v)
	}
	return uint(bits.TrailingZeros64(v)), nil
}

// NewCache builds a cache from a config. The line size must be a power of
// two; the set count may be any positive integer (the Table-II L3 has
// 12288 sets).
func NewCache(cfg CacheConfig) (*Cache, error) {
	if cfg.SizeB <= 0 || cfg.LineB <= 0 || cfg.Ways <= 0 {
		return nil, fmt.Errorf("uarch: cache %q has non-positive geometry", cfg.Name)
	}
	lineBits, err := exactLog2(uint64(cfg.LineB))
	if err != nil {
		return nil, fmt.Errorf("uarch: cache %q line size: %w", cfg.Name, err)
	}
	if cfg.Ways > maxCacheWays {
		return nil, fmt.Errorf("uarch: cache %q associativity %d exceeds %d-way packed-LRU limit", cfg.Name, cfg.Ways, maxCacheWays)
	}
	if cfg.SizeB%(cfg.LineB*cfg.Ways) != 0 {
		return nil, fmt.Errorf("uarch: cache %q size %d not divisible by line*ways", cfg.Name, cfg.SizeB)
	}
	sets := uint64(cfg.SizeB / (cfg.LineB * cfg.Ways))
	c := &Cache{
		name:     cfg.Name,
		lineBits: lineBits,
		ways:     cfg.Ways,
		numSets:  sets,
	}
	// order and tags share one backing allocation; occ is its own byte
	// array (64 sets per host line — the densest metadata in the loop).
	// Tag rows are padded to waysStride regardless of associativity: the
	// probe indexes a row with a 4-bit nibble of the order word, and a
	// constant full-nibble row bound is what lets the compiler drop the
	// bounds check from every probe (and the row offset become a shift).
	backing := make([]uint64, sets+sets*waysStride)
	c.order = backing[:sets:sets]
	c.tags = backing[sets:]
	c.occ = make([]uint8, sets)
	// Shift counts ≥ 64 yield 0 in Go, so 16 ways mask to the full word.
	c.orderMask = uint64(1)<<(4*uint(cfg.Ways)) - 1
	c.setShift = uint(bits.TrailingZeros64(sets))
	c.lowMask = uint64(1)<<c.setShift - 1
	c.odd = sets >> c.setShift
	if c.odd > 1 {
		// floor(2^64/odd)+1; ^uint64(0)/odd == floor(2^64/odd) because an
		// odd divisor > 1 never divides 2^64 exactly.
		c.oddRecip = ^uint64(0)/c.odd + 1
	}
	for w := 0; w < cfg.Ways; w++ {
		c.initOrder |= uint64(w) << (4 * uint(w))
	}
	c.Reset()
	return c, nil
}

// setIndex computes line % numSets without a division on the hot path.
// With numSets = odd << setShift the identity
//
//	line % (odd<<k) = ((line>>k) % odd) << k | line & (1<<k − 1)
//
// reduces the problem to a modulo by the odd factor, which is computed
// with the Lemire–Kaser precomputed-reciprocal reduction (exact for
// operands below 2^32; larger quotients — unreachable for any realistic
// address — fall back to the hardware divide).
func (c *Cache) setIndex(line uint64) uint64 {
	low := line & c.lowMask
	if c.odd == 1 {
		return low
	}
	q := line >> c.setShift
	var r uint64
	if q < 1<<32 {
		r, _ = bits.Mul64(c.oddRecip*q, c.odd)
	} else {
		r = q % c.odd
	}
	return r<<c.setShift | low
}

// Access looks up addr, updating LRU state, and on a miss installs the
// line. It returns true on a hit. The body is only the repeat-line memo —
// small enough to inline at every call site, so local workloads resolve
// most lookups without a function call — and accessSlow carries the
// actual probe.
func (c *Cache) Access(addr uint64) bool {
	if addr>>c.lineBits+1 == c.lastLineP1 {
		c.accesses++
		return true
	}
	return c.accessSlow(addr >> c.lineBits)
}

// accessSlow is the non-memo path: probe the set, promote on hit, install
// (evicting LRU when full) on miss.
//
// Ways fill in index order and are never invalidated individually, so the
// fill level occ describes validity completely: the valid ways are
// exactly tags[0:occ), and the first occ nibbles of the order word are
// those same ways, most recent first. The probe scans the tag row in fill
// order, so its loads are independent of each other and of the order
// word. A hit recovers its recency position from the order word with a
// SWAR zero-nibble search (recencyPos) and splices as before. A not-full
// install always lands in way occ, at recency position occ; a full-set
// miss evicts the LRU way, a pure rotate of the order word.
//
// Probing in recency order instead resolves near-MRU hits in one
// comparison, but the inlined repeat memo in Access already absorbs most
// of those, and what reaches this path is mostly misses, which compare
// every valid way in either order. Slow-path probes in one cold run of
// the six stock suites (seed 99, one thread):
//
//	site     probes  misses
//	L1D      22.2M   91%  (hits at recency position 0: 1%)
//	L2       20.2M   85%
//	L3       17.1M   77%  (74% of probes miss into a set not yet full)
//	dTLB-L1  18.0M   50%
//	STLB      8.9M   53%
//
// With the recency walk, which chained each tag load behind a nibble
// shift of the order word, these probes were about 43% of that run's
// CPU time (see EXPERIMENTS.md, "Cold compare at probe cost").
func (c *Cache) accessSlow(line uint64) bool {
	c.accesses++
	c.lastLineP1 = line + 1
	set := c.setIndex(line)
	base := set * waysStride
	tags := c.tags[base : base+waysStride : base+waysStride]
	order := &c.order[set]
	occ := uint(c.occ[set])
	for w := uint(0); w < occ; w++ {
		if tags[w&0xF] == line {
			splice(order, uint64(w), recencyPos(*order, uint64(w)))
			return true
		}
	}
	c.misses++
	if occ < uint(c.ways) {
		c.occ[set] = uint8(occ + 1)
		tags[occ&0xF] = line
		splice(order, uint64(occ), occ)
	} else {
		o := *order
		victim := o >> (4 * uint(c.ways-1)) & 0xF
		*order = (o<<4 | victim) & c.orderMask
		tags[victim] = line
	}
	return false
}

// recencyPos returns the nibble position of way in the order word o. The
// first ways nibbles of o are a permutation of the way indices, so the
// lowest nibble equal to way is its recency position; nibbles above the
// associativity are zero and can only repeat way 0, which the
// permutation already holds lower down. x has a zero nibble exactly
// where o holds way, and the classic has-zero test marks bit 3 of the
// lowest such nibble exactly (borrows only create false marks above a
// true zero).
func recencyPos(o, way uint64) uint {
	const ones, highs = 0x1111111111111111, 0x8888888888888888
	x := o ^ way*ones
	return uint(bits.TrailingZeros64((x-ones)&^x&highs)) / 4
}

// splice moves the way at nibble position pos of the order word to MRU,
// shifting everything more recent up by one nibble.
func splice(order *uint64, way uint64, pos uint) {
	if pos == 0 {
		return
	}
	o := *order
	shift := 4 * pos
	below := o & (uint64(1)<<shift - 1)
	above := o &^ (uint64(1)<<(shift+4) - 1)
	*order = above | below<<4 | way
}

// Stats returns lifetime access and miss counts.
func (c *Cache) Stats() (accesses, misses uint64) { return c.accesses, c.misses }

// Reset invalidates all lines and zeroes statistics. Tags need no
// clearing: the fill level gates every probe, and installs overwrite.
func (c *Cache) Reset() {
	for i := range c.order {
		c.order[i] = c.initOrder
	}
	clear(c.occ)
	c.lastLineP1 = 0
	c.accesses, c.misses = 0, 0
}

// LineBytes returns the cache line size in bytes.
func (c *Cache) LineBytes() int { return 1 << c.lineBits }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return int(c.numSets) }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }
