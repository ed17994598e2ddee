// Package dtw implements Dynamic Time Warping and the series normalization
// Perspector's TrendScore requires (§III-B): the distance between two
// counter time series of possibly different lengths, computed after
// mapping each series' values through its own empirical CDF (y-axis,
// bounded to [0,100]) and resampling onto an execution-time percentile
// grid (x-axis).
//
// The unbanded distance is exact at the cost of its path, not of the
// whole n×m matrix: the dynamic program evaluates only cells whose cost
// so far, plus a lower bound on the cost still to come, stays within the
// cost of a cheap concrete path. The result is bit-identical to the full
// DP on every input; DESIGN.md ("Exactness-preserving DTW pruning") gives
// the argument, and FuzzPrunedVsFull checks it.
package dtw

import (
	"fmt"
	"math"
	"sync"

	"perspector/internal/stat"
)

// Distancer computes DTW distances with reusable DP scratch buffers, so
// the O(W²) pairwise loops of the TrendScore allocate nothing per pair.
// It also applies an exactness-preserving pruned dynamic program (after
// Silva & Batista's PrunedDTW): the cost of one cheap monotone warping
// path upper-bounds the distance, and any DP cell whose cumulative cost
// plus a lower bound on the remaining rows' costs exceeds that bound can
// never lie on the optimal path, so whole runs of columns are skipped.
// Results are bit-identical to the full DP — the cells of the optimal
// path see exactly the same additions in the same order.
//
// A Distancer is not safe for concurrent use; parallel callers keep one
// per worker.
type Distancer struct {
	prev, cur []float64
	lim       []float64 // cost-to-go bound scratch (see limits)
	sa, sb    Series    // Distance's bound inputs, built per call
	cum       []float64 // NormalizeSeries scratch

	cells uint64 // DP cells evaluated since the last TakeWork
}

// TakeWork returns the number of DP cells evaluated since the previous
// call and resets it.
func (dz *Distancer) TakeWork() (cells uint64) {
	cells, dz.cells = dz.cells, 0
	return cells
}

// NewDistancer returns an empty Distancer; buffers grow on first use.
func NewDistancer() *Distancer { return &Distancer{} }

// rows returns the two DP rows sized for m+1 columns.
func (dz *Distancer) rows(m int) (prev, cur []float64) {
	if cap(dz.prev) < m+1 {
		dz.prev = make([]float64, m+1)
		dz.cur = make([]float64, m+1)
	}
	return dz.prev[:m+1], dz.cur[:m+1]
}

// pool backs the package-level convenience functions so one-shot callers
// still reuse scratch across calls.
var pool = sync.Pool{New: func() any { return NewDistancer() }}

// Distance returns the classic DTW distance between two series using
// absolute difference as the local cost and the full dynamic program.
// It panics if either series is empty.
func Distance(a, b []float64) float64 {
	dz := pool.Get().(*Distancer)
	defer pool.Put(dz)
	return dz.Distance(a, b)
}

// DistanceBanded returns the DTW distance constrained to a Sakoe–Chiba band
// of the given half-width. A band of 0 (or any band at least as wide as
// the length difference... specifically >= |len(a)-len(b)| and wide enough)
// means "no constraint" when band <= 0. It returns an error when a series
// is empty or when the band is too narrow to admit any warping path.
func DistanceBanded(a, b []float64, band int) (float64, error) {
	dz := pool.Get().(*Distancer)
	defer pool.Put(dz)
	return dz.DistanceBanded(a, b, band)
}

// Distance is DistanceBanded with no band; it panics if either series is
// empty.
func (dz *Distancer) Distance(a, b []float64) float64 {
	d, err := dz.DistanceBanded(a, b, 0)
	if err != nil {
		panic(err)
	}
	return d
}

// DistanceSeries is Distance on series whose bound inputs were built
// beforehand: the trend stage keeps one Series per normalized series, so
// each pair skips the per-series passes. It panics if either series is
// empty.
func (dz *Distancer) DistanceSeries(a, b *Series) float64 {
	if len(a.x) == 0 || len(b.x) == 0 {
		panic(fmt.Errorf("dtw: empty series (lengths %d, %d)", len(a.x), len(b.x)))
	}
	return dz.pruned(a, b)
}

// Series is a series together with the inputs of the pruned DP's
// cost-to-go bound that depend on it alone (see limits): its running-max
// envelope x⁺, its inversion depth δx = max_k (x⁺_k - x_k) and its
// largest magnitude max_k |x_k|. The zero value is the empty series.
type Series struct {
	x      []float64
	env    []float64 // x⁺; x itself when x is non-decreasing
	depth  float64
	absMax float64
	buf    []float64 // env's storage when x is not non-decreasing
}

// Set makes s the series x, reusing s's envelope storage. The Series
// reads x, which must not change while the Series is in use. A
// non-decreasing x is its own envelope, so only a series with an
// inversion needs storage of its own.
func (s *Series) Set(x []float64) {
	s.x, s.env, s.depth, s.absMax = x, x, 0, 0
	n := len(x)
	if n == 0 {
		return
	}
	mx := x[0]
	for _, v := range x {
		if v > mx {
			mx = v
		}
		if mx-v > s.depth {
			s.depth = mx - v
		}
	}
	if s.depth == 0 {
		// Non-decreasing: the ends bound every |x_k|.
		s.absMax = max(math.Abs(x[0]), math.Abs(x[n-1]))
		return
	}
	if cap(s.buf) < n {
		s.buf = make([]float64, n)
	}
	env := s.buf[:n]
	mx = x[0]
	for k, v := range x {
		if v > mx {
			mx = v
		}
		env[k] = mx
		if a := math.Abs(v); a > s.absMax {
			s.absMax = a
		}
	}
	s.env = env
}

// DistanceBanded computes the (optionally Sakoe–Chiba-banded) DTW
// distance on the Distancer's reusable buffers. Semantics match the
// package-level DistanceBanded exactly.
func (dz *Distancer) DistanceBanded(a, b []float64, band int) (float64, error) {
	n, m := len(a), len(b)
	if n == 0 || m == 0 {
		return 0, fmt.Errorf("dtw: empty series (lengths %d, %d)", n, m)
	}
	unbounded := band <= 0
	if !unbounded && band < abs(n-m) {
		return 0, fmt.Errorf("dtw: band %d narrower than length difference %d", band, abs(n-m))
	}
	if unbounded {
		dz.sa.Set(a)
		dz.sb.Set(b)
		d := dz.pruned(&dz.sa, &dz.sb)
		// Drop the references to the caller's series.
		dz.sa.Set(nil)
		dz.sb.Set(nil)
		return d, nil
	}
	d := dz.banded(a, b, band)
	// With a band, Inf means the band admitted no warping path.
	if math.IsInf(d, 1) {
		return 0, fmt.Errorf("dtw: band %d admits no warping path for lengths %d, %d", band, n, m)
	}
	return d, nil
}

// banded is the Sakoe–Chiba DP on the reusable buffers; it returns +Inf
// when the band admits no warping path. Because every in-band cell
// minimizes over a subset of the full DP's predecessors, and float
// addition of a non-negative cost is monotone in its operand, each banded
// cell value dominates the corresponding full-DP value — so the result is
// also a valid upper bound for the pruned unbanded DP.
func (dz *Distancer) banded(a, b []float64, band int) float64 {
	n, m := len(a), len(b)
	inf := math.Inf(1)
	prev, cur := dz.rows(m)
	prev[0] = 0
	// Only in-band cells are ever touched, so each row costs O(band), not
	// O(m). [ps,pe] tracks the previous row's written window; reads
	// outside it hit stale buffer contents and are guarded to Inf, which
	// is exactly the value the Inf-filled full-width DP would hold there.
	ps, pe := 0, 0
	for i := 1; i <= n; i++ {
		lo, hi := 1, m
		// Scale the band to handle unequal lengths (standard practice).
		center := i * m / n
		if lo < center-band {
			lo = center - band
		}
		if hi > center+band {
			hi = center + band
		}
		cur[lo-1] = inf // left edge of the in-row deletion chain
		for j := lo; j <= hi; j++ {
			best := inf
			if j-1 >= ps && j-1 <= pe {
				best = prev[j-1] // match
			}
			if j >= ps && j <= pe && prev[j] < best {
				best = prev[j] // insertion
			}
			if cur[j-1] < best {
				best = cur[j-1] // deletion
			}
			cur[j] = math.Abs(a[i-1]-b[j-1]) + best
		}
		dz.cells += uint64(hi - lo + 1)
		ps, pe = lo, hi
		prev, cur = cur, prev
	}
	return prev[m]
}

// upperBound returns the cheaper of two O(n+m) single-path costs: the
// diagonal-then-edge path and a greedy min-local-cost walk. Each is a
// valid monotone warping path accumulated front to back, which is exactly
// the sequential float sum the DP computes for that path, so either cost
// upper-bounds the DP's minimum under the same rounding. The greedy walk
// tracks x-shifted series (where the diagonal is loose) closely, which is
// what makes the pruned DP's alive band narrow.
func upperBound(a, b []float64) float64 {
	n, m := len(a), len(b)
	i, j := 0, 0
	diag := math.Abs(a[0] - b[0])
	for i < n-1 || j < m-1 {
		if i < n-1 {
			i++
		}
		if j < m-1 {
			j++
		}
		diag += math.Abs(a[i] - b[j])
	}

	i, j = 0, 0
	greedy := math.Abs(a[0] - b[0])
	for i < n-1 || j < m-1 {
		switch {
		case i == n-1:
			j++
		case j == m-1:
			i++
		default:
			down := math.Abs(a[i+1] - b[j])
			right := math.Abs(a[i] - b[j+1])
			d := math.Abs(a[i+1] - b[j+1])
			if d <= down && d <= right {
				i, j = i+1, j+1
			} else if down <= right {
				i++
			} else {
				j++
			}
		}
		greedy += math.Abs(a[i] - b[j])
	}
	if greedy < diag {
		return greedy
	}
	return diag
}

// pruned is the unbanded DP with upper-bound pruning. Invariant: a cell
// that lies on the optimal path gets exactly the full-DP value (its
// predecessor on that path is alive too, hence exact by induction); any
// other cell computed gets a value no smaller than its full-DP value, so
// it can never supply the minimum of a path cell. The final cell lies on
// the optimal path, so the result is bit-identical to the full DP.
//
// A cell (i,j) stays alive while D(i,j) <= lim[i], the row's limit from
// limits: the upper bound less a lower bound on the cost every path
// still pays in rows i+1..n.
//
// With a finite upper bound every DP value is +0, a positive float or
// +Inf: costs are math.Abs differences (never -0, never NaN for finite
// inputs), and sums of them reach +Inf only by overflow. On such values
// the unsigned order of the bit patterns is the value order, so the
// predecessor minima compare bits, which compiles to conditional moves
// instead of data-dependent branches; equal values have equal bits, so
// the minimum is the same float.
func (dz *Distancer) pruned(sa, sb *Series) float64 {
	a, b := sa.x, sb.x
	n, m := len(a), len(b)
	ub := upperBound(a, b)
	if !(ub < math.Inf(1)) {
		// NaN or Inf input: the cost-to-go bound's arithmetic is invalid
		// and NaN comparisons would break the alive test.
		return dz.full(a, b)
	}
	lim := dz.limits(sa, sb, ub)
	prev, cur := dz.rows(m)
	inf := math.Inf(1)
	prev[0] = 0
	cells := 0
	// [ps,pe] spans the previous row's alive cells; all prev reads below
	// stay inside it, so the buffers need no Inf pre-fill. Each row splits
	// into guard-free regions so the hot middle loop matches the classic
	// DP's cost per cell.
	ps, pe := 0, 0
	for i := 1; i <= n; i++ {
		ai, li := a[i-1], lim[i]
		start := ps
		if start < 1 {
			start = 1
		}
		cur[start-1] = inf
		npe := -1
		j := start
		// Left edge j == ps: prev[ps-1] is outside the window and the
		// in-row chain starts at Inf, so the only predecessor is prev[ps]
		// (the window's first cell, alive hence finite).
		if ps >= 1 {
			v := math.Abs(ai-b[ps-1]) + prev[ps]
			cur[ps] = v
			if v <= li {
				npe = ps
			}
			j = ps + 1
		}
		// Tight middle j in [ps+1, pe]: all three predecessors are inside
		// the window — no guards.
		for ; j <= pe; j++ {
			best := math.Float64bits(prev[j-1])
			if y := math.Float64bits(prev[j]); y < best {
				best = y
			}
			if y := math.Float64bits(cur[j-1]); y < best {
				best = y
			}
			v := math.Abs(ai-b[j-1]) + math.Float64frombits(best)
			cur[j] = v
			if v <= li {
				npe = j
			}
		}
		// Right edge j == pe+1: prev[pe+1] is outside the window.
		if j == pe+1 && j <= m {
			best := math.Float64bits(prev[j-1])
			if y := math.Float64bits(cur[j-1]); y < best {
				best = y
			}
			v := math.Abs(ai-b[j-1]) + math.Float64frombits(best)
			cur[j] = v
			if v <= li {
				npe = j
			}
			j++
		}
		// Dead tail j > pe+1: no prev-row predecessor; the row stays
		// alive only through the in-row chain, and ends when it dies.
		for ; j <= m && cur[j-1] <= li; j++ {
			v := math.Abs(ai-b[j-1]) + cur[j-1]
			cur[j] = v
			if v <= li {
				npe = j
			}
		}
		cells += j - start
		if npe < 0 {
			// Unreachable for a finite upper bound (the optimal path
			// crosses every row inside the limits); should the bound's
			// arithmetic ever fail, degrade to the full DP.
			dz.cells += uint64(cells)
			return dz.full(a, b)
		}
		// The row tracks only its last alive cell; the first one is
		// rarely more than a step from start.
		for ps = start; cur[ps] > li; ps++ {
		}
		pe = npe
		prev, cur = cur, prev
	}
	dz.cells += uint64(cells)
	return prev[m]
}

// limits returns lim[1..n], the per-row alive limits of the pruned DP:
// lim[i] = thr - Σ_{r>i} L_r, where L_r <= min_j cost(r,j) bounds the
// cost of row r, which every warping path visits at least once. The
// bound must hold for any finite input; the stock normalized series are
// CDFs, but 217 of 1,680 carry rounding drops of up to 2.8e-14.
//
// Row minima. For x⁺ the running-max envelope of x (x⁺_k = max_{t<=k}
// x_t) and δx = max_k (x⁺_k - x_k) its inversion depth, the triangle
// inequality gives |a_r - b_j| >= |a⁺_r - b⁺_j| - δa - δb. Both
// envelopes are non-decreasing, so min_j |a⁺_r - b⁺_j| sits at a⁺_r's
// insertion point in b⁺ and one merge walk finds every row's minimum in
// O(n+m). Rounding is monotone, so fl|x - y| is unimodal over a sorted
// y and the walk returns the exact float minimum. For monotone inputs
// (δa = δb = 0) the envelopes are the series themselves and L_r is the
// exact minimum of the DP's own row costs. Otherwise eight roundings
// separate the real inequality from the float costs and L_r, each moving
// a value of at most 4S by at most 4u·S (u = 2⁻⁵³, S the largest
// |input|), so L_r = m_r - (δa + δb + 64u·S), clamped at 0, stays below
// every float cost of the row. Where S·2⁻⁴⁷ underflows, every value is
// subnormal and those additions are exact. The envelopes, depths and
// largest magnitudes depend on one series each, so they come with the
// Series (see Series.Set); only the merge walk and the suffix sums are
// per pair.
//
// Float margin. The DP value of a cell is the minimum over paths of
// their front-to-back float sums; on the optimal path P* each cell's
// value is its prefix sum. Costs are non-negative and
// fl(s+c) >= (s+c)(1-u), so for the cell (i,j) of P* at step k of its
// N <= n+m steps, D* >= (1-u)^N·(D(i,j) + Σ_{r>i} L_r). The suffix sum
// rounds up by at most (1+u)^n and lim's subtraction by one more u, so
// P*'s cells pass D(i,j) <= lim[i] whenever thr >= ub·(1+(2n+m+2)u).
// thr = ub·(1 + 2(n+m+2)u) covers that with room: k = 2(n+m+2) is
// even, so 1 + k·2⁻⁵³ is exact and round(ub·(1+ku)) is at least every
// float up to ub·(1+γ) for the γ < ku the chain needs.
//
// Non-monotone inputs too large for that arithmetic (S > 2¹⁰⁰⁰) get
// L = 0, which is plain upper-bound pruning. Monotone ones need no S:
// their minima are exact at any scale.
func (dz *Distancer) limits(a, b *Series, ub float64) []float64 {
	n, m := len(a.x), len(b.x)
	if cap(dz.lim) < n+1 {
		dz.lim = make([]float64, n+1)
	}
	lim := dz.lim[:n+1]
	thr := ub * (1 + float64(2*(n+m+2))*0x1p-53)

	// Inputs are finite here (ub is), so plain comparisons suffice. One
	// merge walk: k counts the b⁺ values <= a⁺_r, and the row minimum is
	// the distance to the nearer of b⁺_{k-1} and b⁺_k (+Inf past an end).
	eb := b.env
	k := 0
	for r, x := range a.env {
		for k < m && eb[k] <= x {
			k++
		}
		d := math.Inf(1)
		if k > 0 {
			d = x - eb[k-1]
		}
		if k < m && eb[k]-x < d {
			d = eb[k] - x
		}
		lim[r+1] = d
	}
	slack := 0.0
	if a.depth > 0 || b.depth > 0 {
		if s := max(a.absMax, b.absMax); s > 0x1p1000 {
			slack = math.Inf(1)
		} else {
			slack = a.depth + b.depth + s*0x1p-47
		}
	}
	suf := 0.0
	for i := n; i >= 1; i-- {
		l := lim[i] - slack
		lim[i] = thr - suf
		if l > 0 {
			suf += l
		}
	}
	return lim
}

// full is the classic unpruned, unbanded DP on the reusable buffers.
func (dz *Distancer) full(a, b []float64) float64 {
	n, m := len(a), len(b)
	prev, cur := dz.rows(m)
	for j := range prev {
		prev[j] = math.Inf(1)
	}
	prev[0] = 0
	for i := 1; i <= n; i++ {
		cur[0] = math.Inf(1)
		for j := 1; j <= m; j++ {
			cost := math.Abs(a[i-1] - b[j-1])
			best := prev[j]
			if prev[j-1] < best {
				best = prev[j-1]
			}
			if cur[j-1] < best {
				best = cur[j-1]
			}
			cur[j] = cost + best
		}
		prev, cur = cur, prev
	}
	dz.cells += uint64(n * m)
	return prev[m]
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// NormalizeSeries applies the paper's §III-B1 two-axis normalization to a
// raw counter delta time series (event counts per sample interval):
//
//   - y-axis: the series is converted to its CDF — the cumulative fraction
//     of the metric's total events observed up to each sample, scaled to
//     [0,100]. A steady workload becomes the straight diagonal; phases
//     appear as knees in the curve. This bounds pointwise distances to
//     [0,100] and erases absolute magnitudes (Fig. 1): a workload with 10⁹
//     LLC misses and one with 10³ compare purely by *when* their events
//     happen.
//   - x-axis: the curve is resampled onto an execution-time percentile
//     grid with gridPoints+1 samples, so different execution lengths
//     compare directly.
//
// A series with no events at all maps to the diagonal (the "uninformative
// steady" shape), making it indistinguishable from a constant-rate
// workload — both are phase-free.
func NormalizeSeries(series []float64, gridPoints int) []float64 {
	dz := pool.Get().(*Distancer)
	defer pool.Put(dz)
	return dz.NormalizeSeries(series, gridPoints)
}

// NormalizeSeries is the package-level NormalizeSeries on the
// Distancer's reusable cumulative-sum scratch buffer. The returned grid
// is always freshly allocated (callers keep it).
func (dz *Distancer) NormalizeSeries(series []float64, gridPoints int) []float64 {
	return dz.NormalizeSeriesInto(nil, series, gridPoints)
}

// NormalizeSeriesInto is NormalizeSeries writing the grid into dst's
// storage when it has room for gridPoints+1 samples, and into a new
// slice otherwise. It returns the grid.
func (dz *Distancer) NormalizeSeriesInto(dst, series []float64, gridPoints int) []float64 {
	if cap(dst) < gridPoints+1 {
		dst = make([]float64, gridPoints+1)
	}
	dst = dst[:gridPoints+1]
	n := len(series)
	if n == 0 {
		clear(dst)
		return dst
	}
	// cum[0] = 0 anchors the curve at the start of execution, so sample i
	// sits at time fraction i/n exactly; without the anchor, series of
	// different lengths carry an O(1/n) systematic offset that shows up
	// as fake DTW distance between identically-shaped workloads.
	if cap(dz.cum) < n+1 {
		dz.cum = make([]float64, n+1)
	}
	cum := dz.cum[:n+1]
	cum[0] = 0
	total := 0.0
	for i, v := range series {
		if v < 0 {
			v = 0 // deltas are counts; clamp defensively
		}
		total += v
		cum[i+1] = total
	}
	if total == 0 {
		// No events: diagonal.
		for i := range cum {
			cum[i] = 100 * float64(i) / float64(n)
		}
	} else {
		inv := 100 / total
		for i := range cum {
			cum[i] *= inv
		}
	}
	stat.ResampleToPercentilesInto(dst, cum)
	return dst
}

// NormalizeSeriesValueCDF is the alternative reading of §III-B1 that maps
// each value through the series' own empirical value-CDF instead of
// accumulating events over time. It is kept for the ablation study: it is
// also magnitude-invariant, but it amplifies sampling noise on steady
// series (every flat series rank-transforms to full-scale noise), which
// inverts the paper's LMbench/Nbench trend results. See DESIGN.md.
func NormalizeSeriesValueCDF(series []float64, gridPoints int) []float64 {
	if len(series) == 0 {
		return make([]float64, gridPoints+1)
	}
	return stat.ResampleToPercentiles(stat.CDFNormalize(series), gridPoints)
}
