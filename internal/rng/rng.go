// Package rng provides deterministic pseudo-random number generation for
// reproducible workload simulation.
//
// The generator is xoshiro256** seeded via SplitMix64, following the
// reference implementations by Blackman and Vigna. Two properties matter
// for Perspector:
//
//   - Determinism: a simulation seeded with the same value produces the
//     same counter matrices on every run and platform.
//   - Stream splitting: per-workload generators are derived from a suite
//     seed with Split, so adding or reordering workloads never perturbs
//     the random streams of existing ones.
package rng

import (
	"math"
	"math/bits"
	"sync"
)

// splitMix64 advances a SplitMix64 state and returns the next output.
// It is used both to seed xoshiro256** and to derive child seeds.
func splitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Source is a deterministic xoshiro256** generator.
// The zero value is not valid; use New.
type Source struct {
	// The four state words are scalar fields rather than a [4]uint64:
	// single-node field selectors keep Uint64 within the inlining budget.
	s0, s1, s2, s3 uint64
	// gauss caches the second deviate of the Box-Muller pair.
	gauss    float64
	hasGauss bool
}

// New returns a Source seeded from seed via SplitMix64.
func New(seed uint64) *Source {
	var sm = seed
	var s Source
	s.s0 = splitMix64(&sm)
	s.s1 = splitMix64(&sm)
	s.s2 = splitMix64(&sm)
	s.s3 = splitMix64(&sm)
	// xoshiro must not start in the all-zero state; SplitMix64 of any
	// seed cannot produce four zero outputs, but guard regardless.
	if s.s0|s.s1|s.s2|s.s3 == 0 {
		s.s0 = 0x9e3779b97f4a7c15
	}
	return &s
}

// Uint64 returns the next 64 uniformly distributed bits.
func (s *Source) Uint64() uint64 {
	var r uint64
	r, s.s0, s.s1, s.s2, s.s3 = step(s.s0, s.s1, s.s2, s.s3)
	return r
}

// step is one xoshiro256** step: the output for state (s0..s3) and the
// next state. It is the reference step with the state-update dependency
// chain substituted out, so each new word is one expression over the old
// state. Taking and returning the state by value lets a caller keep it in
// registers (see Cycle); the flattening keeps Uint64, which sits on the
// hottest simulator path, within the compiler's inlining budget.
func step(s0, s1, s2, s3 uint64) (r, n0, n1, n2, n3 uint64) {
	return bits.RotateLeft64(s1*5, 7) * 9, s0 ^ s3 ^ s1, s1 ^ s2 ^ s0, s2 ^ s0 ^ s1<<17, bits.RotateLeft64(s3^s1, 45)
}

// Split derives an independent child generator. The child stream is a
// deterministic function of the parent's current state, and advancing the
// parent by one Uint64 afterwards keeps sibling children independent.
func (s *Source) Split() *Source {
	return New(s.Uint64())
}

// Float64 returns a uniform deviate in [0,1) with 53 bits of precision.
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform integer in [0,n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded sampling. The 128-bit product
	// comes from the bits.Mul64 intrinsic (one host multiply). Hot batch
	// loops that draw many values with one fixed bound hand-inline this
	// scheme with a precomputed threshold (see workload/pattern.go); the
	// streams are draw-for-draw identical because the rejection condition
	// lo < bound && lo < threshold reduces to lo < threshold (the
	// threshold 2^64 mod bound is always below bound).
	bound := uint64(n)
	x := s.Uint64()
	hi, lo := bits.Mul64(x, bound)
	if lo < bound {
		threshold := -bound % bound
		for lo < threshold {
			x = s.Uint64()
			hi, lo = bits.Mul64(x, bound)
		}
	}
	return int(hi)
}

// mul128 returns the 128-bit product of a and b as (hi, lo).
// Kept (test-covered) as the portable reference for bits.Mul64.
func mul128(a, b uint64) (hi, lo uint64) {
	const mask = 0xffffffff
	aLo, aHi := a&mask, a>>32
	bLo, bHi := b&mask, b>>32
	t := aLo * bLo
	lo = t & mask
	c := t >> 32
	t = aHi*bLo + c
	m := t & mask
	c = t >> 32
	t = aLo*bHi + m
	lo |= (t & mask) << 32
	hi = aHi*bHi + c + (t >> 32)
	return hi, lo
}

// Range returns a uniform deviate in [lo, hi).
func (s *Source) Range(lo, hi float64) float64 {
	return lo + (hi-lo)*s.Float64()
}

// Norm returns a normal deviate with the given mean and standard deviation,
// using the Box-Muller transform.
func (s *Source) Norm(mean, stddev float64) float64 {
	if s.hasGauss {
		s.hasGauss = false
		return mean + stddev*s.gauss
	}
	var u, v, r float64
	for {
		u = 2*s.Float64() - 1
		v = 2*s.Float64() - 1
		r = u*u + v*v
		if r > 0 && r < 1 {
			break
		}
	}
	f := math.Sqrt(-2 * math.Log(r) / r)
	s.gauss = v * f
	s.hasGauss = true
	return mean + stddev*u*f
}

// Bool returns true with probability p.
func (s *Source) Bool(p float64) bool {
	return s.Float64() < p
}

// Perm returns a random permutation of [0,n).
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Cycle fills p with a uniformly random single-cycle permutation of
// [0, len(p)) by Sattolo's algorithm: following p from any index visits
// every index before returning. len(p) must not exceed 1<<32.
//
// The draws are exactly those of the reference loop
//
//	for i := len(p) - 1; i > 0; i-- { j := s.Intn(i); p[i], p[j] = p[j], p[i] }
//
// but the generator state lives in locals for the whole loop and is
// written back once at the end, so a shuffle of millions of entries runs
// without a load and store of the state per draw.
func (s *Source) Cycle(p []uint32) {
	for i := range p {
		p[i] = uint32(i)
	}
	s0, s1, s2, s3 := s.s0, s.s1, s.s2, s.s3
	for i := len(p) - 1; i > 0; i-- {
		// Intn(i) over the local state.
		bound := uint64(i)
		var x uint64
		x, s0, s1, s2, s3 = step(s0, s1, s2, s3)
		hi, lo := bits.Mul64(x, bound)
		if lo < bound {
			threshold := -bound % bound
			for lo < threshold {
				x, s0, s1, s2, s3 = step(s0, s1, s2, s3)
				hi, lo = bits.Mul64(x, bound)
			}
		}
		p[i], p[hi] = p[hi], p[i]
	}
	s.s0, s.s1, s.s2, s.s3 = s0, s1, s2, s3
}

// Zipf samples integers in [0, n) with probability proportional to
// 1/(rank+1)^alpha. It is used to model skewed (graph-like) memory reuse.
// The zero value is not valid; use NewZipf.
type Zipf struct {
	src *Source
	zipfTable
}

// zipfTable is the read-only sampling table for one (n, alpha): the CDF
// and a guide table that narrows each draw's search to one bucket.
//
// With K the largest power of two ≤ n, guide[k] (0 ≤ k ≤ K) is the first
// rank whose CDF reaches k/K. A draw u in [k/K, (k+1)/K) has its answer,
// the first rank whose CDF reaches u, in [guide[k], guide[k+1]]; and k
// is just the top log2(K) bits of u's 53-bit mantissa.
type zipfTable struct {
	cdf   []float64
	guide []uint32
	shift uint // 53 − log2(K)
}

// NewZipf builds a Zipf sampler over n ranks with exponent alpha >= 0.
// alpha = 0 degenerates to the uniform distribution. The table depends
// only on (n, alpha), so samplers with the same shape share one
// read-only table (see zipfTables).
func NewZipf(src *Source, n int, alpha float64) *Zipf {
	if n <= 0 {
		panic("rng: NewZipf with non-positive n")
	}
	return &Zipf{src: src, zipfTable: zipfTables.get(n, alpha)}
}

// newZipfTable computes the normalized Zipf CDF over n ranks and its
// guide table.
func newZipfTable(n int, alpha float64) zipfTable {
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), alpha)
		cdf[i] = sum
	}
	inv := 1 / sum
	for i := range cdf {
		cdf[i] *= inv
	}
	cdf[n-1] = 1 // avoid round-off at the tail
	logK := uint(bits.Len(uint(n))) - 1
	k := 1 << logK
	guide := make([]uint32, k+1)
	i := 0
	for j := range guide {
		// j/k is exact: k is a power of two far below 2^53.
		for cdf[i] < float64(j)/float64(k) {
			i++
		}
		guide[j] = uint32(i)
	}
	return zipfTable{cdf: cdf, guide: guide, shift: 53 - logK}
}

// bytes is the table's memory footprint.
func (t zipfTable) bytes() int { return 8*len(t.cdf) + 4*len(t.guide) }

// The memo of shared Zipf tables is bounded in both tables and bytes:
// the stock suite specs need 21 tables of at most 65536 ranks (under
// 17 MiB with guides), while inline suite specs are client input (up to
// 2^28 ranks per table), so the memo must grow with neither their count
// nor their size.
const (
	zipfMemoCap   = 64
	zipfMemoBytes = 32 << 20
)

type zipfKey struct {
	n     int
	alpha uint64 // math.Float64bits(alpha): exact, and NaN-safe as a key
}

// zipfMemo shares Zipf tables between samplers of the same shape. Tables
// are never written after they are built, so handing one to any number
// of samplers is safe.
type zipfMemo struct {
	mu     sync.Mutex
	tables map[zipfKey]zipfTable
	bytes  int // sum of bytes() over tables
}

var zipfTables = zipfMemo{tables: make(map[zipfKey]zipfTable)}

// get returns the shared table for (n, alpha), computing it on a miss.
// A miss evicts arbitrary entries until the new table fits the bounds;
// samplers holding an evicted table keep using it. A table larger than
// the whole byte budget is handed out unshared.
func (m *zipfMemo) get(n int, alpha float64) zipfTable {
	key := zipfKey{n: n, alpha: math.Float64bits(alpha)}
	m.mu.Lock()
	t, ok := m.tables[key]
	m.mu.Unlock()
	if ok {
		return t
	}
	// Compute outside the lock: a table can take milliseconds, and two
	// racing builders of one key produce identical tables.
	t = newZipfTable(n, alpha)
	size := t.bytes()
	if size > zipfMemoBytes {
		return t
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if shared, ok := m.tables[key]; ok {
		return shared
	}
	for k, old := range m.tables {
		if len(m.tables) < zipfMemoCap && m.bytes+size <= zipfMemoBytes {
			break
		}
		delete(m.tables, k)
		m.bytes -= old.bytes()
	}
	m.tables[key] = t
	m.bytes += size
	return t
}

// Next returns the next Zipf-distributed rank in [0, n).
func (z *Zipf) Next() int {
	return z.rank(z.src.Uint64() >> 11)
}

// rank returns the first rank whose CDF reaches u = x/2^53, for a 53-bit
// x: u is exactly the deviate Float64 makes of the same draw, and the
// top bits of x pick the guide bucket that bounds the binary search.
func (z *Zipf) rank(x uint64) int {
	u := float64(x) / (1 << 53)
	k := x >> z.shift
	lo, hi := int(z.guide[k]), int(z.guide[k+1])
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// ChildSeed deterministically derives the i-th child seed from a parent
// seed. It is a pure function: it does not consume parent stream state, so
// workload k always receives the same seed regardless of suite composition.
func ChildSeed(parent uint64, i int) uint64 {
	state := parent ^ (0xa0761d6478bd642f * uint64(i+1))
	return splitMix64(&state)
}
