// Package workload models synthetic programs for the uarch simulator.
// A workload is a Spec: a named sequence of phases, each phase defining an
// instruction mix, memory access patterns, branch behaviour, and syscall
// rate. Compiling a Spec yields a deterministic uarch.Program whose PMU
// signature — cache/TLB locality, branch predictability, phase structure —
// is controlled by the Spec's parameters. The six suite models in
// internal/suites are built entirely from these pieces.
package workload

import (
	"fmt"
	"math/bits"
	"sync"

	"perspector/internal/rng"
)

// AddrGen produces an infinite stream of virtual addresses. NextBatch
// fills all of dst, and the stream must not depend on how callers size
// dst: n calls with one-element slices yield exactly the addresses of one
// call with n. Generators draw from private RNG streams (split off at
// Instantiate), so producing addresses ahead of consumption cannot
// perturb any other stream.
type AddrGen interface {
	NextBatch(dst []uint64)
}

// PatternSpec describes a memory access pattern; Instantiate binds it to a
// base address and an RNG stream, yielding a fresh generator.
type PatternSpec interface {
	// Instantiate creates a generator addressing [base, base+Footprint).
	Instantiate(base uint64, src *rng.Source) (AddrGen, error)
	// Footprint is the size in bytes of the region the pattern touches.
	Footprint() uint64
}

// --- Sequential ---

// Sequential sweeps a working set cyclically with a fixed stride,
// modelling streaming kernels (memcpy, vector ops, I/O buffers).
type Sequential struct {
	// WorkingSet is the region size in bytes.
	WorkingSet uint64
	// Stride is the distance between consecutive accesses; 0 defaults to 64.
	Stride uint64
}

// Footprint returns the working-set size.
func (s Sequential) Footprint() uint64 { return s.WorkingSet }

// Instantiate builds the sweep generator.
func (s Sequential) Instantiate(base uint64, _ *rng.Source) (AddrGen, error) {
	if s.WorkingSet == 0 {
		return nil, fmt.Errorf("workload: Sequential with zero working set")
	}
	stride := s.Stride
	if stride == 0 {
		stride = 64
	}
	return &seqGen{base: base, ws: s.WorkingSet, stride: stride}, nil
}

type seqGen struct {
	base, ws, stride, pos uint64
}

func (g *seqGen) NextBatch(dst []uint64) {
	base, ws, stride, pos := g.base, g.ws, g.stride, g.pos
	for i := range dst {
		dst[i] = base + pos
		pos += stride
		if pos >= ws {
			pos = 0
		}
	}
	g.pos = pos
}

// --- Strided multi-stream ---

// Streams interleaves several independent sequential streams, modelling
// stencil and multi-array kernels. Each stream sweeps WorkingSet/Count
// bytes.
type Streams struct {
	WorkingSet uint64
	Count      int
	Stride     uint64
}

// Footprint returns the combined working-set size.
func (s Streams) Footprint() uint64 { return s.WorkingSet }

// Instantiate builds the interleaved generator.
func (s Streams) Instantiate(base uint64, _ *rng.Source) (AddrGen, error) {
	if s.Count <= 0 {
		return nil, fmt.Errorf("workload: Streams with count %d", s.Count)
	}
	if s.WorkingSet == 0 {
		return nil, fmt.Errorf("workload: Streams with zero working set")
	}
	stride := s.Stride
	if stride == 0 {
		stride = 64
	}
	per := s.WorkingSet / uint64(s.Count)
	if per < stride {
		return nil, fmt.Errorf("workload: Streams working set %d too small for %d streams", s.WorkingSet, s.Count)
	}
	g := &streamsGen{stride: stride, per: per}
	for i := 0; i < s.Count; i++ {
		g.bases = append(g.bases, base+uint64(i)*per)
		g.pos = append(g.pos, 0)
	}
	return g, nil
}

type streamsGen struct {
	bases  []uint64
	pos    []uint64
	per    uint64
	stride uint64
	turn   int
}

func (g *streamsGen) NextBatch(dst []uint64) {
	turn, n := g.turn, len(g.bases)
	for i := range dst {
		s := turn
		if turn++; turn == n {
			turn = 0
		}
		dst[i] = g.bases[s] + g.pos[s]
		g.pos[s] += g.stride
		if g.pos[s] >= g.per {
			g.pos[s] = 0
		}
	}
	g.turn = turn
}

// --- Uniform random ---

// Random draws uniformly over the working set at cache-line granularity,
// modelling hash tables and GUPS-style updates: hostile to every level of
// the hierarchy once the set exceeds its capacity.
type Random struct {
	WorkingSet uint64
}

// Footprint returns the working-set size.
func (r Random) Footprint() uint64 { return r.WorkingSet }

// Instantiate builds the uniform generator.
func (r Random) Instantiate(base uint64, src *rng.Source) (AddrGen, error) {
	if r.WorkingSet < 64 {
		return nil, fmt.Errorf("workload: Random working set %d below one line", r.WorkingSet)
	}
	lines := r.WorkingSet / 64
	return &randGen{base: base, lines: lines, thr: -lines % lines, src: src}, nil
}

type randGen struct {
	base  uint64
	lines uint64
	thr   uint64 // 2^64 mod lines, Lemire rejection threshold
	src   *rng.Source
}

// NextBatch hand-inlines rng.Intn's Lemire sampling with the threshold
// precomputed at construction, so the per-address draw compiles down to
// an inlined xoshiro step and one widening multiply — no calls. The draw
// stream is identical to rng.Intn(lines)'s (see the note on rng.Intn).
func (g *randGen) NextBatch(dst []uint64) {
	base, lines, thr, src := g.base, g.lines, g.thr, g.src
	for i := range dst {
		hi, lo := bits.Mul64(src.Uint64(), lines)
		for lo < thr {
			hi, lo = bits.Mul64(src.Uint64(), lines)
		}
		dst[i] = base + hi*64
	}
}

// --- Zipf / graph-like ---

// Zipf draws pages from a power-law distribution and lines uniformly
// within the page, modelling graph analytics: heavy reuse of hub pages
// with a long cold tail. Page- vs line-level locality decouple, which is
// what separates TLB behaviour from cache behaviour in the suites.
type Zipf struct {
	WorkingSet uint64
	// Alpha is the skew exponent; 0 is uniform, ≥1 strongly skewed.
	Alpha float64
}

// Footprint returns the working-set size.
func (z Zipf) Footprint() uint64 { return z.WorkingSet }

// Instantiate builds the Zipf generator.
func (z Zipf) Instantiate(base uint64, src *rng.Source) (AddrGen, error) {
	pages := z.WorkingSet / 4096
	if pages == 0 {
		return nil, fmt.Errorf("workload: Zipf working set %d below one page", z.WorkingSet)
	}
	if z.Alpha < 0 {
		return nil, fmt.Errorf("workload: Zipf alpha %v negative", z.Alpha)
	}
	return &zipfGen{
		base: base,
		zipf: rng.NewZipf(src, int(pages), z.Alpha),
		src:  src,
	}, nil
}

type zipfGen struct {
	base uint64
	zipf *rng.Zipf
	src  *rng.Source
}

func (g *zipfGen) NextBatch(dst []uint64) {
	for i := range dst {
		page := uint64(g.zipf.Next())
		// Intn(64) never rejects (2^64 mod 64 = 0), so the draw is the
		// top six bits of one xoshiro word — same stream, no call.
		line := g.src.Uint64() >> 58
		dst[i] = g.base + page*4096 + line*64
	}
}

// --- Pointer chase ---

// PointerChase walks a pseudo-random permutation cycle over the lines of
// the working set, modelling linked-list and B-tree traversal: every line
// is visited exactly once per cycle (no short-term reuse), with an
// unpredictable page sequence.
type PointerChase struct {
	WorkingSet uint64
}

// Footprint returns the working-set size.
func (p PointerChase) Footprint() uint64 { return p.WorkingSet }

// Instantiate builds the permutation-walk generator.
func (p PointerChase) Instantiate(base uint64, src *rng.Source) (AddrGen, error) {
	lines := p.WorkingSet / 64
	if lines == 0 {
		return nil, fmt.Errorf("workload: PointerChase working set %d below one line", p.WorkingSet)
	}
	const maxLines = 1 << 24 // 1 GiB of chase nodes; beyond this the table is impractical
	if lines > maxLines {
		return nil, fmt.Errorf("workload: PointerChase working set %d too large", p.WorkingSet)
	}
	// Build a single cycle with Sattolo's algorithm so the walk covers the
	// whole set before repeating. Cycle rewrites every entry, so a reused
	// table's stale contents cannot leak into the walk.
	next := chaseTables.get(int(lines))
	src.Cycle(next)
	return &chaseGen{base: base, next: next}, nil
}

// chaseTables recycles pointer-chase tables between programs. Tables are
// sized by the working set, not by the instructions a walk runs, so
// without reuse a short program pays mostly for allocating and zeroing
// nodes it never visits.
var chaseTables = chaseFreeList{budget: chaseIdleBudget}

// chaseIdleBudget bounds the bytes of idle tables kept for reuse. Runs
// of the stock suites on one or two workers allocate six or eight tables
// (101 or 113 MB) on the first run, so under this budget every later
// run reuses them all.
const chaseIdleBudget = 128 << 20

// chaseFreeList keeps released tables for reuse, across garbage
// collections, while their bytes stay within budget.
type chaseFreeList struct {
	mu     sync.Mutex
	tables [][]uint32
	idle   int // bytes of capacity held in tables
	budget int
}

// get returns a table of n entries with arbitrary contents: the smallest
// idle table with room for n, resliced, or a new one if none has room.
func (l *chaseFreeList) get(n int) []uint32 {
	l.mu.Lock()
	defer l.mu.Unlock()
	best := -1
	for i, t := range l.tables {
		if cap(t) >= n && (best < 0 || cap(t) < cap(l.tables[best])) {
			best = i
		}
	}
	if best < 0 {
		return make([]uint32, n)
	}
	t := l.tables[best]
	l.remove(best)
	return t[:n]
}

// put makes t available for reuse. While idle tables exceed the budget,
// the smallest is dropped: it saves the least allocation.
func (l *chaseFreeList) put(t []uint32) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.tables = append(l.tables, t)
	l.idle += 4 * cap(t)
	for l.idle > l.budget {
		smallest := 0
		for i, u := range l.tables {
			if cap(u) < cap(l.tables[smallest]) {
				smallest = i
			}
		}
		l.remove(smallest)
	}
}

// remove drops the i-th idle table from the list.
func (l *chaseFreeList) remove(i int) {
	l.idle -= 4 * cap(l.tables[i])
	last := len(l.tables) - 1
	l.tables[i] = l.tables[last]
	l.tables[last] = nil
	l.tables = l.tables[:last]
}

type chaseGen struct {
	base uint64
	next []uint32
	cur  uint32
}

// releaseGen returns the chase tables held by gen, including those of
// Alternating sub-generators, to chaseTables (see Program.Release). It
// drops the generator's reference, so a walk after release panics
// instead of reading a table another program now owns.
func releaseGen(gen AddrGen) {
	switch g := gen.(type) {
	case *chaseGen:
		if t := g.next; t != nil {
			g.next = nil
			chaseTables.put(t)
		}
	case *altGen:
		releaseGen(g.a)
		releaseGen(g.b)
	}
}

func (g *chaseGen) NextBatch(dst []uint64) {
	base, next, cur := g.base, g.next, g.cur
	for i := range dst {
		cur = next[cur]
		dst[i] = base + uint64(cur)*64
	}
	g.cur = cur
}

// --- Hot/cold mix ---

// HotCold accesses a small hot region with probability HotFrac and a large
// cold region otherwise, both uniformly. It models partitioned working
// sets (e.g. an index plus a heap) and produces mid-range hit ratios the
// pure patterns cannot.
type HotCold struct {
	HotSet  uint64
	ColdSet uint64
	HotFrac float64
}

// Footprint returns the combined region size.
func (h HotCold) Footprint() uint64 { return h.HotSet + h.ColdSet }

// Instantiate builds the mixed generator.
func (h HotCold) Instantiate(base uint64, src *rng.Source) (AddrGen, error) {
	if h.HotSet < 64 || h.ColdSet < 64 {
		return nil, fmt.Errorf("workload: HotCold regions below one line (%d, %d)", h.HotSet, h.ColdSet)
	}
	if h.HotFrac < 0 || h.HotFrac > 1 {
		return nil, fmt.Errorf("workload: HotCold fraction %v out of [0,1]", h.HotFrac)
	}
	hot, cold := h.HotSet/64, h.ColdSet/64
	return &hotColdGen{
		base: base, hotLines: hot, hotThr: -hot % hot,
		coldBase: base + h.HotSet, coldLines: cold, coldThr: -cold % cold,
		hotFrac: h.HotFrac, src: src,
	}, nil
}

type hotColdGen struct {
	base      uint64
	hotLines  uint64
	hotThr    uint64
	coldBase  uint64
	coldLines uint64
	coldThr   uint64
	hotFrac   float64
	src       *rng.Source
}

// NextBatch hand-inlines the two fixed-bound Lemire draws (see randGen).
func (g *hotColdGen) NextBatch(dst []uint64) {
	src := g.src
	for i := range dst {
		if src.Bool(g.hotFrac) {
			hi, lo := bits.Mul64(src.Uint64(), g.hotLines)
			for lo < g.hotThr {
				hi, lo = bits.Mul64(src.Uint64(), g.hotLines)
			}
			dst[i] = g.base + hi*64
		} else {
			hi, lo := bits.Mul64(src.Uint64(), g.coldLines)
			for lo < g.coldThr {
				hi, lo = bits.Mul64(src.Uint64(), g.coldLines)
			}
			dst[i] = g.coldBase + hi*64
		}
	}
}

// --- Alternating ---

// Alternating switches between two sub-patterns every Period accesses,
// modelling fine-grained phase behaviour *within* a workload phase — e.g.
// a loop that interleaves a gather step with a sequential update step.
// The sub-patterns address disjoint regions.
type Alternating struct {
	A, B PatternSpec
	// Period is the number of accesses spent in each sub-pattern before
	// switching; 0 defaults to 64.
	Period int
}

// Footprint returns the combined region size.
func (a Alternating) Footprint() uint64 {
	if a.A == nil || a.B == nil {
		return 0
	}
	return a.A.Footprint() + a.B.Footprint()
}

// Instantiate builds both sub-generators over adjacent regions.
func (a Alternating) Instantiate(base uint64, src *rng.Source) (AddrGen, error) {
	if a.A == nil || a.B == nil {
		return nil, fmt.Errorf("workload: Alternating needs both sub-patterns")
	}
	if a.Period < 0 {
		return nil, fmt.Errorf("workload: Alternating period %d negative", a.Period)
	}
	period := a.Period
	if period == 0 {
		period = 64
	}
	genA, err := a.A.Instantiate(base, src.Split())
	if err != nil {
		return nil, fmt.Errorf("workload: Alternating sub-pattern A: %w", err)
	}
	genB, err := a.B.Instantiate(base+a.A.Footprint(), src.Split())
	if err != nil {
		return nil, fmt.Errorf("workload: Alternating sub-pattern B: %w", err)
	}
	return &altGen{a: genA, b: genB, period: period}, nil
}

type altGen struct {
	a, b   AddrGen
	period int
	count  int
	inB    bool
}

// NextBatch chunks the request at sub-pattern switch points, forwarding
// each run of ≤ Period accesses to the active sub-generator in one call.
func (g *altGen) NextBatch(dst []uint64) {
	for len(dst) > 0 {
		if g.count >= g.period {
			g.count = 0
			g.inB = !g.inB
		}
		n := g.period - g.count
		if n > len(dst) {
			n = len(dst)
		}
		cur := g.a
		if g.inB {
			cur = g.b
		}
		cur.NextBatch(dst[:n])
		g.count += n
		dst = dst[n:]
	}
}
