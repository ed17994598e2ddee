package metric

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"

	"perspector/internal/cluster"
	"perspector/internal/dtw"
	"perspector/internal/mat"
	"perspector/internal/obs"
	"perspector/internal/par"
	"perspector/internal/perf"
	"perspector/internal/stat"
)

// staleVer marks a cache slot that has never been computed. Workload
// series versions start at 0 and only increment, so the sentinel can
// never collide with a real version.
const staleVer = ^uint64(0)

// Artifacts holds the shared intermediates of one suite's scoring run.
// Before the engine existed, every score recomputed its inputs from the
// raw measurement (the counter matrix twice, the normalized matrix per
// score); Artifacts computes each intermediate once, on first request,
// and hands the cached value to every metric that follows.
//
// Artifacts also supports *append*: IncrementalRun grows a measurement
// workload-by-workload (or chunk-by-chunk within a workload). Only the
// time-series caches update in place — the per-workload normalized
// series and the pairwise-DTW matrix recompute just the entries touching
// a changed series. Everything derived from the counter totals (the raw
// and own-normalized matrices, the distance matrices) is dropped on any
// totals change and rebuilt lazily by the batch code: a totals change
// reruns the k-means sweep anyway, next to which those rebuilds are
// free, and one code path keeps the results bit-identical by
// construction.
//
// An Artifacts value is not safe for concurrent use: the engine runs the
// registry's metrics serially per suite (suites fan out, metrics do not),
// so the lazy single-slot caches need no locks. Mutation (appendWorkload,
// appendSamples) must likewise be serialized with scoring.
type Artifacts struct {
	// Meas is the suite measurement being scored.
	Meas *perf.SuiteMeasurement
	// Opts is the scoring configuration; it must not change between
	// metric computations (cached intermediates depend on it).
	Opts Options
	// JointNorm is the counter matrix under the joint normalization of
	// Eq. 9–10 across every suite of the scoring run. The engine sets it
	// after JointNormalize; metrics that declare NeedsJointNorm may read
	// it directly. For a suite scored alone it degenerates to the suite's
	// own bounds.
	JointNorm *mat.Matrix

	raw     *mat.Matrix
	ownNorm *mat.Matrix
	sq      [][]float64
	dist    [][]float64

	// seriesVer[i] counts sample appends to workload i's series; the
	// per-counter caches below record the version they were computed at
	// and recompute only slots whose version moved. Indices beyond
	// len(seriesVer) are version 0 (never mutated).
	seriesVer  []uint64
	normSeries map[perf.Counter]*seriesCache
	trendDists map[perf.Counter]*pairCache

	// Input-version counters backing the per-metric memo: totalsVer
	// counts changes to the counter matrix (appended rows, totals
	// deltas), seriesEpoch counts any series change anywhere in the
	// suite, and jointVer counts changes to JointNorm's *content*
	// (bumped by IncrementalRun.updateJoint). A metric's result is
	// reusable iff the versions its declared capabilities map to are all
	// unchanged — see scoreArtifacts.
	totalsVer   uint64
	seriesEpoch uint64
	jointVer    uint64
	memo        map[string]memoEntry

	scratch []*workerScratch
	// pairs is TrendDists' list of DTW runs, reused across counters.
	pairs [][2]int
}

// workerScratch is one pool worker's reusable buffers: the trend
// stage's DTW scratch and the cluster stage's k-means and silhouette
// scratch.
type workerScratch struct {
	dz  dtw.Distancer
	km  cluster.KMeansScratch
	sil cluster.SilhouetteScratch
}

// memoKey is the input signature a memoized metric value was computed
// at. rows and totalsVer always participate; seriesEpoch and jointVer
// only when the metric declares the corresponding capability (the zero
// value stands in otherwise), so e.g. a sample-only append leaves the
// cluster/coverage/spread signatures untouched.
type memoKey struct {
	rows        int
	totalsVer   uint64
	seriesEpoch uint64
	jointVer    uint64
}

// memoEntry is one memoized metric value.
type memoEntry struct {
	key   memoKey
	value float64
}

// memoKeyFor builds the metric's input signature from its capabilities.
func (a *Artifacts) memoKeyFor(c Capabilities) memoKey {
	k := memoKey{rows: len(a.Meas.Workloads), totalsVer: a.totalsVer}
	if c.NeedsSeries {
		k.seriesEpoch = a.seriesEpoch
	}
	if c.NeedsJointNorm {
		k.jointVer = a.jointVer
	}
	return k
}

// memoLookup returns the memoized value for the named metric if its
// input signature still matches.
func (a *Artifacts) memoLookup(name string, key memoKey) (float64, bool) {
	e, ok := a.memo[name]
	if !ok || e.key != key {
		return 0, false
	}
	return e.value, true
}

// memoStore records a computed metric value under its input signature.
func (a *Artifacts) memoStore(name string, key memoKey, v float64) {
	if a.memo == nil {
		a.memo = make(map[string]memoEntry)
	}
	a.memo[name] = memoEntry{key: key, value: v}
}

// bumpJointVersion marks JointNorm's content as changed; the engine
// calls it whenever it replaces the matrix with one that differs.
func (a *Artifacts) bumpJointVersion() { a.jointVer++ }

// seriesCache is the per-counter normalized-series cache: norm[i] is
// workload i's warmup-trimmed, CDF/percentile-normalized series, in[i]
// the same series with the inputs of DTW's cost-to-go bound that depend
// on it alone (dtw.Series), and ver[i] the series version both were
// computed at. A changed workload recomputes only its own slots, so the
// bound inputs cost one pass per series, not one per pair.
type seriesCache struct {
	norm [][]float64
	in   []dtw.Series
	ver  []uint64
}

// pairCache is the per-counter pairwise-DTW cache: d is the symmetric
// n×n distance matrix over the normalized series, ver[i] the series
// version d's row/column i was computed at.
type pairCache struct {
	d   [][]float64
	ver []uint64
}

// NewArtifacts wraps a measurement for scoring. Intermediates are
// computed lazily; nothing runs until a metric asks.
func NewArtifacts(sm *perf.SuiteMeasurement, opts Options) *Artifacts {
	return &Artifacts{Meas: sm, Opts: opts}
}

// HasSeries reports whether any workload carries sampled time-series
// data. Totals-only imports (e.g. a counters CSV) have none; metrics
// that declare NeedsSeries are skipped for such measurements.
func (a *Artifacts) HasSeries() bool {
	for i := range a.Meas.Workloads {
		if a.Meas.Workloads[i].Series.Len() > 0 {
			return true
		}
	}
	return false
}

// Raw returns the n×m counter matrix restricted to Opts.Counters.
func (a *Artifacts) Raw() *mat.Matrix {
	if a.raw == nil {
		a.raw = matrixFor(a.Meas, a.Opts.Counters)
	}
	return a.raw
}

// OwnNorm returns the counter matrix min-max normalized with the suite's
// own per-counter bounds — the intrinsic-score normalization used by
// ClusterScore (§III-A), as opposed to the cross-suite JointNorm.
func (a *Artifacts) OwnNorm() *mat.Matrix {
	if a.ownNorm == nil {
		a.ownNorm = normalizeColumns(a.Raw())
	}
	return a.ownNorm
}

// SqDist returns the pairwise squared Euclidean distance matrix over
// OwnNorm; one O(n²) computation serves k-means++ seeding and the first
// Lloyd pass of every k-means in the sweep, and Dist.
func (a *Artifacts) SqDist() [][]float64 {
	if a.sq == nil {
		a.sq = cluster.SqDistances(a.OwnNorm())
	}
	return a.sq
}

// Dist returns the pairwise Euclidean distance matrix over OwnNorm, the
// square roots of SqDist, for every silhouette of the k-means sweep.
func (a *Artifacts) Dist() [][]float64 {
	if a.dist == nil {
		a.dist = cluster.Distances(a.SqDist())
	}
	return a.dist
}

// seriesVersion returns workload i's series version (0 if never mutated).
func (a *Artifacts) seriesVersion(i int) uint64 {
	if i < len(a.seriesVer) {
		return a.seriesVer[i]
	}
	return 0
}

// bumpSeriesVersion marks workload i's series as changed.
func (a *Artifacts) bumpSeriesVersion(i int) {
	for len(a.seriesVer) <= i {
		a.seriesVer = append(a.seriesVer, 0)
	}
	a.seriesVer[i]++
	a.seriesEpoch++
}

// series brings counter c's series cache up to date and returns it.
func (a *Artifacts) series(ctx context.Context, c perf.Counter) (*seriesCache, error) {
	n := len(a.Meas.Workloads)
	if a.normSeries == nil {
		a.normSeries = make(map[perf.Counter]*seriesCache)
	}
	sc := a.normSeries[c]
	if sc == nil {
		sc = &seriesCache{}
		a.normSeries[c] = sc
	}
	if grow := n - len(sc.ver); grow > 0 {
		// One allocation per slice, not one per doubling.
		sc.ver = slices.Grow(sc.ver, grow)
		sc.norm = slices.Grow(sc.norm, grow)
		sc.in = slices.Grow(sc.in, grow)
		for len(sc.ver) < n {
			sc.ver = append(sc.ver, staleVer)
			sc.norm = append(sc.norm, nil)
			sc.in = append(sc.in, dtw.Series{})
		}
	}
	var stale []int
	for i := 0; i < n; i++ {
		if sc.ver[i] != a.seriesVersion(i) {
			stale = append(stale, i)
		}
	}
	if len(stale) == 0 {
		return sc, nil
	}
	a.ensureScratch(par.Workers())
	err := par.DoErr(ctx, len(stale), func(w, k int) error {
		i := stale[k]
		s := a.Meas.Workloads[i].Series.Samples[c]
		if len(s) == 0 {
			return fmt.Errorf("metric: TrendScore: workload %q has no samples for %v",
				a.Meas.Workloads[i].Workload, c)
		}
		s = TrimWarmup(s, a.Opts.WarmupFrac)
		if a.Opts.TrendValueCDF {
			sc.norm[i] = dtw.NormalizeSeriesValueCDF(s, a.Opts.DTWGrid)
		} else {
			// A recomputed slot rewrites its own grid: a stream chunk
			// recomputes every counter of the workload it changed.
			sc.norm[i] = a.worker(w).dz.NormalizeSeriesInto(sc.norm[i], s, a.Opts.DTWGrid)
		}
		sc.in[i].Set(sc.norm[i])
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, i := range stale {
		sc.ver[i] = a.seriesVersion(i)
	}
	return sc, nil
}

// TrendDists returns the symmetric pairwise DTW distance matrix over the
// normalized series of counter c. The matrix is cached per counter and
// grown incrementally: only pairs involving a workload whose series
// changed (or that is new) since the last call are recomputed — the
// windowed update that turns an append from O(n²) DTW into O(n).
//
// Within one call, series that are equal bit for bit share one DTW row:
// each pair runs DTW on its series' first copies, once, and a pair of
// copies is 0. DTW is symmetric bit for bit (|x-y| and |y-x| round
// alike, and each cell adds one cost to a min over a symmetric
// predecessor set; every normalized series has DTWGrid+1 points, so a
// Sakoe–Chiba band is symmetric too), so the shared value is the one the
// pair itself would compute. The call's work counts go to the context's
// obs recorder.
func (a *Artifacts) TrendDists(ctx context.Context, c perf.Counter) ([][]float64, error) {
	sc, err := a.series(ctx, c)
	if err != nil {
		return nil, err
	}
	norm := sc.norm
	n := len(norm)
	if a.trendDists == nil {
		a.trendDists = make(map[perf.Counter]*pairCache)
	}
	pc := a.trendDists[c]
	if pc == nil {
		pc = &pairCache{}
		a.trendDists[c] = pc
	}
	if grow := n - len(pc.ver); grow > 0 {
		pc.ver = slices.Grow(pc.ver, grow)
		for len(pc.ver) < n {
			pc.ver = append(pc.ver, staleVer)
		}
	}
	stale := make([]bool, n)
	anyStale := false
	for i := 0; i < n; i++ {
		if pc.ver[i] != a.seriesVersion(i) {
			stale[i] = true
			anyStale = true
		}
	}
	if !anyStale && len(pc.d) == n {
		return pc.d, nil
	}
	if len(pc.d) != n {
		nd := make([][]float64, n)
		for i := range nd {
			nd[i] = make([]float64, n)
			if i < len(pc.d) {
				copy(nd[i], pc.d[i])
			}
		}
		pc.d = nd
	}
	// A pair is affected when either series changed. Run DTW on the
	// affected pairs of first copies, in the serial double loop's
	// lexicographic order; every other affected pair copies its first
	// copies' value below, which is cached when neither changed.
	rep := firstCopies(norm)
	// Size the pair list exactly: every pair of first copies less the
	// pairs of unchanged ones.
	reps, fresh := 0, 0
	for i := 0; i < n; i++ {
		if rep[i] == i {
			reps++
			if !stale[i] {
				fresh++
			}
		}
	}
	pairs := slices.Grow(a.pairs[:0], reps*(reps-1)/2-fresh*(fresh-1)/2)
	for i := 0; i < n; i++ {
		if rep[i] != i {
			continue
		}
		for j := i + 1; j < n; j++ {
			if rep[j] == j && (stale[i] || stale[j]) {
				pairs = append(pairs, [2]int{i, j})
			}
		}
	}
	a.pairs = pairs
	a.ensureScratch(par.Workers())
	err = par.DoErr(ctx, len(pairs), func(w, p int) error {
		i, j := pairs[p][0], pairs[p][1]
		// Per-worker reusable DP scratch: the O(W²) DTW loop allocates
		// nothing per pair.
		dz := &a.worker(w).dz
		var d float64
		if a.Opts.DTWBand > 0 {
			var derr error
			d, derr = dz.DistanceBanded(norm[i], norm[j], a.Opts.DTWBand)
			if derr != nil {
				return fmt.Errorf("metric: TrendScore DTW: %w", derr)
			}
		} else {
			d = dz.DistanceSeries(&sc.in[i], &sc.in[j])
		}
		pc.d[i][j] = d
		pc.d[j][i] = d
		return nil
	})
	// Drain the workers' cell counts on failure too, so they are not
	// reported to a later call's recorder.
	var cells uint64
	for _, ws := range a.scratch {
		if ws != nil {
			cells += ws.dz.TakeWork()
		}
	}
	rec := obs.FromContext(ctx)
	rec.Count(obs.CounterDTWCells, int64(cells))
	if err != nil {
		return nil, err
	}
	affected := 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if !stale[i] && !stale[j] {
				continue
			}
			affected++
			if ri, rj := rep[i], rep[j]; ri != i || rj != j {
				d := 0.0
				if ri != rj {
					d = pc.d[ri][rj]
				}
				pc.d[i][j] = d
				pc.d[j][i] = d
			}
		}
	}
	rec.Count(obs.CounterDTWPairs, int64(len(pairs)))
	rec.Count(obs.CounterDTWPairsReused, int64(affected-len(pairs)))
	for i := 0; i < n; i++ {
		pc.ver[i] = a.seriesVersion(i)
	}
	return pc.d, nil
}

// firstCopies returns rep[i], the smallest index whose series equals
// norm[i] bit for bit. A stable sort by bit pattern puts each run of
// copies in index order, so the run's first index is its first copy.
func firstCopies(norm [][]float64) []int {
	order := make([]int, len(norm))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(x, y int) int { return compareBits(norm[x], norm[y]) })
	rep := make([]int, len(norm))
	for k, i := range order {
		rep[i] = i
		if k > 0 && compareBits(norm[order[k-1]], norm[i]) == 0 {
			rep[i] = rep[order[k-1]]
		}
	}
	return rep
}

// compareBits orders series by their float bit patterns, then length.
func compareBits(x, y []float64) int {
	for k := 0; k < len(x) && k < len(y); k++ {
		if c := cmp.Compare(math.Float64bits(x[k]), math.Float64bits(y[k])); c != 0 {
			return c
		}
	}
	return cmp.Compare(len(x), len(y))
}

// appendWorkload appends one workload measurement. The new row changes
// the counter matrix and the series set; the series caches grow on their
// next access.
func (a *Artifacts) appendWorkload(m perf.Measurement) {
	a.Meas.Workloads = append(a.Meas.Workloads, m)
	a.seriesEpoch++
	a.totalsChanged()
}

// appendSamples extends workload idx in place: delta accumulates into
// the counter totals and samples (if any) append to the time series.
func (a *Artifacts) appendSamples(idx int, delta perf.Values, samples *perf.TimeSeries) {
	w := &a.Meas.Workloads[idx]
	if delta != (perf.Values{}) {
		for c, d := range delta {
			w.Totals[c] += d
		}
		a.totalsChanged()
	}
	if samples != nil && samples.Len() > 0 {
		if w.Series.Len() == 0 {
			w.Series.Interval = samples.Interval
		}
		for c := range w.Series.Samples {
			w.Series.Samples[c] = append(w.Series.Samples[c], samples.Samples[c]...)
		}
		a.bumpSeriesVersion(idx)
	}
}

// totalsChanged records a change to the counter matrix and drops every
// intermediate derived from it; the next access rebuilds each through
// the batch code path.
func (a *Artifacts) totalsChanged() {
	a.totalsVer++
	a.raw, a.ownNorm, a.sq, a.dist = nil, nil, nil, nil
}

// ensureScratch grows the per-worker scratch table to at least n
// slots. It must be called from the serial section before a parallel
// region hands out worker ids: growing the slice while workers index it
// would race.
func (a *Artifacts) ensureScratch(n int) {
	for len(a.scratch) < n {
		a.scratch = append(a.scratch, nil)
	}
}

// worker returns worker w's reusable scratch. Worker ids from
// par.Do/DoErr are stable within a pool, so each slot is owned by one
// goroutine at a time. The table is sized by ensureScratch at each
// parallel entry point, so a SetWorkers raise between scoring runs gets
// fresh slots instead of indexing past the table; the fallback covers
// only a SetWorkers racing a live run.
func (a *Artifacts) worker(w int) *workerScratch {
	if w >= len(a.scratch) {
		// Pool width grew after ensureScratch (SetWorkers mid-run); fall
		// back to a throwaway instance rather than racing on the slice.
		return &workerScratch{}
	}
	if a.scratch[w] == nil {
		a.scratch[w] = &workerScratch{}
	}
	return a.scratch[w]
}

// normalizeColumns min-max normalizes each column of x into [0,1] using
// the column's own bounds (used when a suite is scored in isolation).
func normalizeColumns(x *mat.Matrix) *mat.Matrix {
	out := mat.New(x.Rows(), x.Cols())
	for j := 0; j < x.Cols(); j++ {
		col := stat.Normalize(x.Col(j))
		for i, v := range col {
			out.Set(i, j, v)
		}
	}
	return out
}

// matrixFor extracts the n×m counter matrix of a suite restricted to the
// selected counters.
func matrixFor(sm *perf.SuiteMeasurement, counters []perf.Counter) *mat.Matrix {
	return mat.FromRows(sm.Matrix(counters))
}

// JointNormalize min-max normalizes the matrices of several suites with
// shared per-counter bounds (Eq. 9–10): the bounds come from the
// concatenation of all suites, so relative ranges between suites survive.
func JointNormalize(xs []*mat.Matrix) ([]*mat.Matrix, error) {
	mins, maxs, err := jointBounds(xs)
	if err != nil {
		return nil, err
	}
	return applyJointNorm(xs, mins, maxs), nil
}

// jointBounds computes the global per-counter min/max across every
// matrix (Eq. 9). Columns are independent, so the bound scan fans out
// per column; each task writes only its own mins[j]/maxs[j] slot.
func jointBounds(xs []*mat.Matrix) (mins, maxs []float64, err error) {
	if len(xs) == 0 {
		return nil, nil, fmt.Errorf("metric: JointNormalize with no matrices")
	}
	m := xs[0].Cols()
	for _, x := range xs {
		if x.Cols() != m {
			return nil, nil, fmt.Errorf("metric: JointNormalize column mismatch %d vs %d", x.Cols(), m)
		}
		if x.Rows() == 0 {
			return nil, nil, fmt.Errorf("metric: JointNormalize with empty matrix")
		}
	}
	mins = make([]float64, m)
	maxs = make([]float64, m)
	par.Do(m, func(_, j int) {
		first := true
		for _, x := range xs {
			for i := 0; i < x.Rows(); i++ {
				v := x.At(i, j)
				if first || v < mins[j] {
					mins[j] = v
				}
				if first || v > maxs[j] {
					maxs[j] = v
				}
				first = false
			}
		}
	})
	return mins, maxs, nil
}

// applyJointNorm normalizes every matrix with the shared bounds: one
// task per suite, each writing its own out[k].
func applyJointNorm(xs []*mat.Matrix, mins, maxs []float64) []*mat.Matrix {
	m := len(mins)
	out := make([]*mat.Matrix, len(xs))
	par.Do(len(xs), func(_, k int) {
		x := xs[k]
		nx := mat.New(x.Rows(), m)
		for j := 0; j < m; j++ {
			col := stat.NormalizeWith(x.Col(j), mins[j], maxs[j])
			for i, v := range col {
				nx.Set(i, j, v)
			}
		}
		out[k] = nx
	})
	return out
}

// TotalsOnly returns a shallow copy of sm with every time series dropped,
// keeping workload names and counter totals. Scoring the copy makes the
// trend metric's NeedsSeries capability check skip itself — the engine
// path that replaced the old hand-rolled ScoreSuiteNoTrend.
func TotalsOnly(sm *perf.SuiteMeasurement) *perf.SuiteMeasurement {
	out := &perf.SuiteMeasurement{
		Suite:     sm.Suite,
		Workloads: make([]perf.Measurement, len(sm.Workloads)),
	}
	for i, w := range sm.Workloads {
		out.Workloads[i] = perf.Measurement{Workload: w.Workload, Totals: w.Totals}
	}
	return out
}
