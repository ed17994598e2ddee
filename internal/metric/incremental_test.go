package metric

// Incremental-scoring oracle tests: every append step of an
// IncrementalRun must produce scores bit-identical to a fresh batch
// ScoreSuites over the accumulated measurement — the batch path is the
// exact-recompute golden oracle. Comparisons are exact (float64 ==);
// failures print hex floats so a one-ulp drift is visible.

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"testing"

	"perspector/internal/par"
	"perspector/internal/perf"
	"perspector/internal/suites"
)

// cloneSuite deep-copies a suite measurement so the batch oracle scores
// its own data, free of any aliasing with the incremental run's state.
func cloneSuite(sm *perf.SuiteMeasurement) *perf.SuiteMeasurement {
	out := &perf.SuiteMeasurement{
		Suite:     sm.Suite,
		Workloads: make([]perf.Measurement, len(sm.Workloads)),
	}
	for i := range sm.Workloads {
		w := &sm.Workloads[i]
		cw := perf.Measurement{Workload: w.Workload, Totals: w.Totals}
		cw.Series.Interval = w.Series.Interval
		for c := range w.Series.Samples {
			if len(w.Series.Samples[c]) > 0 {
				cw.Series.Samples[c] = append([]float64(nil), w.Series.Samples[c]...)
			}
		}
		out.Workloads[i] = cw
	}
	return out
}

func hexFloat(v float64) string { return strconv.FormatFloat(v, 'x', -1, 64) }

// verifyAgainstOracle scores the run incrementally and batch-rescores a
// deep copy of the same accumulated data; both must agree bit-for-bit
// (or fail with the same error).
func verifyAgainstOracle(t *testing.T, ctx context.Context, run *IncrementalRun, step string) {
	t.Helper()
	got, gerr := run.Scores(ctx)
	sms := make([]*perf.SuiteMeasurement, run.Suites())
	for i := range sms {
		sms[i] = cloneSuite(run.Measurement(i))
	}
	want, werr := ScoreSuites(ctx, sms, run.opts, run.reg)
	if (gerr != nil) != (werr != nil) {
		t.Fatalf("%s: incremental err %v vs batch err %v", step, gerr, werr)
	}
	if gerr != nil {
		if gerr.Error() != werr.Error() {
			t.Fatalf("%s: error mismatch\nincremental: %v\nbatch:       %v", step, gerr, werr)
		}
		return
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d suites incremental vs %d batch", step, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: suite %q diverged\nincremental: C=%s T=%s V=%s S=%s\nbatch:       C=%s T=%s V=%s S=%s",
				step, want[i].Suite,
				hexFloat(got[i].Cluster), hexFloat(got[i].Trend), hexFloat(got[i].Coverage), hexFloat(got[i].Spread),
				hexFloat(want[i].Cluster), hexFloat(want[i].Trend), hexFloat(want[i].Coverage), hexFloat(want[i].Spread))
		}
	}
}

// splitMeasurement cuts one workload measurement into a first chunk (half
// the series samples, half the totals) and the remainder (totals delta
// plus the series tail); applying both reassembles the original exactly
// (uint64 halves sum back, series concatenate back).
func splitMeasurement(m *perf.Measurement) (first perf.Measurement, delta perf.Values, tail *perf.TimeSeries) {
	first = perf.Measurement{Workload: m.Workload}
	half := m.Series.Len() / 2
	first.Series.Interval = m.Series.Interval
	tail = &perf.TimeSeries{Interval: m.Series.Interval}
	for c := range m.Series.Samples {
		s := m.Series.Samples[c]
		h := half
		if h > len(s) {
			h = len(s)
		}
		first.Series.Samples[c] = append([]float64(nil), s[:h]...)
		tail.Samples[c] = append([]float64(nil), s[h:]...)
	}
	for c := range m.Totals {
		h := m.Totals[c] / 2
		first.Totals[c] = h
		delta[c] = m.Totals[c] - h
	}
	return first, delta, tail
}

// stockMeasurements measures the named stock suites at a reduced config,
// capping each at maxWorkloads to keep the per-step batch oracle cheap.
func stockMeasurements(t *testing.T, names []string, maxWorkloads int) []*perf.SuiteMeasurement {
	t.Helper()
	cfg := suites.DefaultConfig()
	cfg.Instructions = 20_000
	cfg.Samples = 12
	out := make([]*perf.SuiteMeasurement, len(names))
	for i, name := range names {
		s, err := suites.ByName(name, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sm, err := suites.RunContext(context.Background(), s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(sm.Workloads) > maxWorkloads {
			sm.Workloads = sm.Workloads[:maxWorkloads]
		}
		out[i] = sm
	}
	return out
}

func incrementalTestOptions() Options {
	opts := DefaultOptions()
	opts.DTWGrid = 24
	opts.KMeansRestarts = 2
	return opts
}

// TestIncrementalCompareGoldenStockSuites drives a six-suite compare run
// append-by-append: workloads are added round-robin across the stock
// suites (odd-indexed ones in two chunks, exercising the
// totals-update/series-append path), and after *every* append step the
// incremental scores must be bit-identical to a batch rescore of the
// accumulated data — including the incremental joint-norm propagation
// across all six suites.
func TestIncrementalCompareGoldenStockSuites(t *testing.T) {
	if testing.Short() {
		t.Skip("measures all six stock suites")
	}
	ctx := context.Background()
	full := stockMeasurements(t, []string{"parsec", "spec17", "ligra", "lmbench", "nbench", "sgxgauge"}, 8)
	opts := incrementalTestOptions()

	empty := make([]*perf.SuiteMeasurement, len(full))
	for i, sm := range full {
		empty[i] = &perf.SuiteMeasurement{Suite: sm.Suite}
	}
	run, err := NewIncrementalRun(empty, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Seed every suite with its first workload (a compare run over an
	// empty suite has no joint bounds — same error either path).
	for i, sm := range full {
		if err := run.AppendWorkload(i, *cloneWorkload(&sm.Workloads[0])); err != nil {
			t.Fatal(err)
		}
	}
	verifyAgainstOracle(t, ctx, run, "seed")

	maxN := 0
	for _, sm := range full {
		if len(sm.Workloads) > maxN {
			maxN = len(sm.Workloads)
		}
	}
	for w := 1; w < maxN; w++ {
		for i, sm := range full {
			if w >= len(sm.Workloads) {
				continue
			}
			m := &sm.Workloads[w]
			step := sm.Suite + "/" + m.Workload
			if w%2 == 0 || m.Series.Len() < 2 {
				if err := run.AppendWorkload(i, *cloneWorkload(m)); err != nil {
					t.Fatal(err)
				}
				verifyAgainstOracle(t, ctx, run, step)
				continue
			}
			firstChunk, delta, tail := splitMeasurement(m)
			if err := run.AppendWorkload(i, firstChunk); err != nil {
				t.Fatal(err)
			}
			verifyAgainstOracle(t, ctx, run, step+" (half)")
			if err := run.AppendSamples(i, m.Workload, delta, tail); err != nil {
				t.Fatal(err)
			}
			verifyAgainstOracle(t, ctx, run, step+" (rest)")
		}
	}
}

// TestIncrementalSingleSuiteGolden runs the single-suite (stage.Score)
// path over full nbench, verifying every append step.
func TestIncrementalSingleSuiteGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("measures a stock suite")
	}
	ctx := context.Background()
	full := stockMeasurements(t, []string{"nbench"}, 1<<30)[0]
	opts := incrementalTestOptions()

	run, err := NewIncrementalRun([]*perf.SuiteMeasurement{{Suite: full.Suite}}, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	for w := range full.Workloads {
		m := &full.Workloads[w]
		if w%2 == 0 || m.Series.Len() < 2 {
			if err := run.AppendWorkload(0, *cloneWorkload(m)); err != nil {
				t.Fatal(err)
			}
			verifyAgainstOracle(t, ctx, run, m.Workload)
			continue
		}
		firstChunk, delta, tail := splitMeasurement(m)
		if err := run.AppendWorkload(0, firstChunk); err != nil {
			t.Fatal(err)
		}
		verifyAgainstOracle(t, ctx, run, m.Workload+" (half)")
		if err := run.AppendSamples(0, m.Workload, delta, tail); err != nil {
			t.Fatal(err)
		}
		verifyAgainstOracle(t, ctx, run, m.Workload+" (rest)")
	}
}

func cloneWorkload(m *perf.Measurement) *perf.Measurement {
	cw := perf.Measurement{Workload: m.Workload, Totals: m.Totals}
	cw.Series.Interval = m.Series.Interval
	for c := range m.Series.Samples {
		if len(m.Series.Samples[c]) > 0 {
			cw.Series.Samples[c] = append([]float64(nil), m.Series.Samples[c]...)
		}
	}
	return &cw
}

// TestIncrementalRandomAppendsMatchOracle is the property test: a seeded
// random sequence of appends — new workloads, totals-only deltas, series
// chunks, values drawn from a tiny integer range so normalization bounds
// move, tie, and degenerate (span 0) often — must match the batch oracle
// bit-for-bit after every operation. Suite 0 carries series (trend
// exercised); suite 1 is totals-only (trend skipped via capability).
func TestIncrementalRandomAppendsMatchOracle(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run("workers="+strconv.Itoa(workers), func(t *testing.T) {
			defer par.SetWorkers(par.SetWorkers(workers))
			ctx := context.Background()
			rnd := rand.New(rand.NewSource(7))
			opts := DefaultOptions()
			opts.DTWGrid = 8
			opts.KMeansRestarts = 1

			run, err := NewIncrementalRun([]*perf.SuiteMeasurement{
				{Suite: "streamy"}, {Suite: "totals-only"},
			}, opts, nil)
			if err != nil {
				t.Fatal(err)
			}
			randTotals := func() perf.Values {
				var v perf.Values
				for c := range v {
					v[c] = uint64(rnd.Intn(5))
				}
				return v
			}
			randSeries := func(minLen int) *perf.TimeSeries {
				ts := &perf.TimeSeries{Interval: 100}
				n := minLen + rnd.Intn(6)
				for c := range ts.Samples {
					s := make([]float64, n)
					for i := range s {
						s[i] = float64(rnd.Intn(4))
					}
					ts.Samples[c] = s
				}
				return ts
			}
			newWorkload := func(suite, id int) {
				m := perf.Measurement{
					Workload: "w" + strconv.Itoa(suite) + "-" + strconv.Itoa(id),
					Totals:   randTotals(),
				}
				if suite == 0 {
					m.Series = *randSeries(2)
				}
				if err := run.AppendWorkload(suite, m); err != nil {
					t.Fatal(err)
				}
			}
			newWorkload(0, 0)
			newWorkload(1, 0)
			verifyAgainstOracle(t, ctx, run, "seed")

			nextID := []int{1, 1}
			for step := 0; step < 60; step++ {
				suite := rnd.Intn(2)
				label := "step " + strconv.Itoa(step)
				switch op := rnd.Intn(3); {
				case op == 0 || nextID[suite] < 2:
					newWorkload(suite, nextID[suite])
					nextID[suite]++
				default:
					// Extend a random existing workload: maybe a totals
					// delta, maybe a series chunk (suite 0 only), maybe both,
					// sometimes neither (a no-op chunk must also hold).
					idx := rnd.Intn(nextID[suite])
					name := "w" + strconv.Itoa(suite) + "-" + strconv.Itoa(idx)
					var delta perf.Values
					if rnd.Intn(2) == 0 {
						delta = randTotals()
					}
					var chunk *perf.TimeSeries
					if suite == 0 && rnd.Intn(2) == 0 {
						chunk = randSeries(0)
					}
					if err := run.AppendSamples(suite, name, delta, chunk); err != nil {
						t.Fatal(err)
					}
				}
				verifyAgainstOracle(t, ctx, run, label)
			}
		})
	}
}

// TestArtifactsScratchGrowsWithWorkers is the regression test for the
// construction-time scratch sizing bug: NewArtifacts used to capture
// par.Workers() once, so raising the pool width afterwards made wider
// worker ids fall back to throwaway distancers forever. The table must
// now grow to the live worker count at each parallel entry point.
func TestArtifactsScratchGrowsWithWorkers(t *testing.T) {
	defer par.SetWorkers(par.SetWorkers(1))
	sm := testMeasurement(t)
	opts := DefaultOptions()
	a := NewArtifacts(sm, opts)
	ctx := context.Background()
	if _, err := a.TrendDists(ctx, perf.CPUCycles); err != nil {
		t.Fatal(err)
	}
	if len(a.scratch) != 1 {
		t.Fatalf("scratch sized %d under 1 worker, want 1", len(a.scratch))
	}
	want, err := trendMetric{}.Compute(ctx, NewArtifacts(cloneSuite(sm), opts))
	if err != nil {
		t.Fatal(err)
	}

	par.SetWorkers(4)
	// A fresh counter forces NormSeries/TrendDists through the parallel
	// region again; the scratch table must widen to the new pool.
	if _, err := a.TrendDists(ctx, perf.LLCLoads); err != nil {
		t.Fatal(err)
	}
	if len(a.scratch) < 4 {
		t.Fatalf("scratch sized %d after SetWorkers(4), want >= 4", len(a.scratch))
	}
	got, err := trendMetric{}.Compute(ctx, a)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("trend diverged across worker widths: %s vs %s", hexFloat(got), hexFloat(want))
	}
}

// TestIncrementalGrowFromEmpty starts a compare run over two suites with
// zero workloads — the shape a streaming client produces: the first
// rescore fails (joint normalization over empty matrices) exactly as the
// batch path fails, and the run must stay usable: appends that arrive
// after the failed rescore (which cached 0×0 raw matrices) grow the
// artifacts and converge to the batch result bit for bit.
func TestIncrementalGrowFromEmpty(t *testing.T) {
	ctx := context.Background()
	opts := incrementalTestOptions()
	sms := []*perf.SuiteMeasurement{{Suite: "left"}, {Suite: "right"}}
	run, err := NewIncrementalRun(sms, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Both suites empty: incremental and batch must fail identically.
	verifyAgainstOracle(t, ctx, run, "both empty")

	rnd := rand.New(rand.NewSource(11))
	newMeas := func(name string) perf.Measurement {
		m := perf.Measurement{Workload: name}
		m.Series.Interval = 100
		for c := 0; c < int(perf.NumCounters); c++ {
			m.Totals[perf.Counter(c)] = uint64(rnd.Intn(4000))
			for s := 0; s < 4; s++ {
				m.Series.Samples[perf.Counter(c)] = append(m.Series.Samples[perf.Counter(c)],
					float64(rnd.Intn(150)))
			}
		}
		return m
	}
	// One suite populated, the other still empty: still the batch error.
	for i := 0; i < 3; i++ {
		if err := run.AppendWorkload(0, newMeas(fmt.Sprintf("l%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	verifyAgainstOracle(t, ctx, run, "right empty")
	// Fill the second suite after the failed rescore: the cached empty
	// matrices must not poison the growth path.
	for i := 0; i < 3; i++ {
		if err := run.AppendWorkload(1, newMeas(fmt.Sprintf("r%d", i))); err != nil {
			t.Fatal(err)
		}
		verifyAgainstOracle(t, ctx, run, fmt.Sprintf("after r%d", i))
	}
}

// countingMetric wraps a metric and counts its computations per suite,
// keyed "suite/metric".
type countingMetric struct {
	Metric
	mu     *sync.Mutex
	counts map[string]int
}

func (m countingMetric) Compute(ctx context.Context, a *Artifacts) (float64, error) {
	m.mu.Lock()
	m.counts[a.Meas.Suite+"/"+m.Name()]++
	m.mu.Unlock()
	return m.Metric.Compute(ctx, a)
}

// TestIncrementalMemoSkipsUnchangedMetrics pins the per-metric memo
// contract: after each append, exactly the metrics whose inputs changed
// are recomputed. A samples-only chunk touches only the trend; a totals
// delta inside the joint bounds touches only its own suite; a delta that
// moves the joint bounds also recomputes the other suite's Coverage and
// Spread, but not its Cluster or Trend.
func TestIncrementalMemoSkipsUnchangedMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("measures two stock suites")
	}
	ctx := context.Background()
	sms := stockMeasurements(t, []string{"nbench", "lmbench"}, 6)
	opts := incrementalTestOptions()

	var mu sync.Mutex
	counts := make(map[string]int)
	var ms []Metric
	for _, m := range DefaultRegistry().Metrics() {
		ms = append(ms, countingMetric{Metric: m, mu: &mu, counts: counts})
	}
	reg, err := NewRegistry(ms...)
	if err != nil {
		t.Fatal(err)
	}
	run, err := NewIncrementalRun(sms, opts, reg)
	if err != nil {
		t.Fatal(err)
	}
	// step scores the run, checks the computations since the last step
	// against want (absent keys must not have been computed), and checks
	// the scores against an uncounted batch run.
	prev := make(map[string]int)
	step := func(label string, want map[string]int) {
		t.Helper()
		got, err := run.Scores(ctx)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		for k, n := range counts {
			if d := n - prev[k]; d != want[k] {
				t.Errorf("%s: %s computed %d times, want %d", label, k, d, want[k])
			}
			prev[k] = n
		}
		for k, n := range want {
			if _, ok := counts[k]; !ok && n != 0 {
				t.Errorf("%s: %s never computed, want %d", label, k, n)
			}
		}
		batch := make([]*perf.SuiteMeasurement, run.Suites())
		for i := range batch {
			batch[i] = cloneSuite(run.Measurement(i))
		}
		batchScores, err := ScoreSuites(ctx, batch, opts, nil)
		if err != nil {
			t.Fatalf("%s: batch: %v", label, err)
		}
		for i := range got {
			if got[i] != batchScores[i] {
				t.Fatalf("%s: suite %q diverged from batch: %+v vs %+v", label, got[i].Suite, got[i], batchScores[i])
			}
		}
	}
	all := func(suite string) map[string]int {
		return map[string]int{
			suite + "/cluster": 1, suite + "/trend": 1,
			suite + "/coverage": 1, suite + "/spread": 1,
		}
	}
	first := all("nbench")
	for k, v := range all("lmbench") {
		first[k] = v
	}
	step("initial", first)

	nb := run.Measurement(0)
	w0 := &nb.Workloads[0]
	chunk := &perf.TimeSeries{Interval: w0.Series.Interval}
	for c := range chunk.Samples {
		chunk.Samples[c] = append([]float64(nil), w0.Series.Samples[c][:3]...)
	}
	if err := run.AppendSamples(0, w0.Workload, perf.Values{}, chunk); err != nil {
		t.Fatal(err)
	}
	step("samples only", map[string]int{"nbench/trend": 1})

	// A +1 on a value strictly inside the joint bounds of its counter
	// leaves every JointNorm entry of lmbench unchanged.
	idx, ctr := -1, perf.Counter(0)
	for _, c := range opts.Counters {
		lo, hi := uint64(1<<63), uint64(0)
		for _, sm := range []*perf.SuiteMeasurement{nb, run.Measurement(1)} {
			for i := range sm.Workloads {
				v := sm.Workloads[i].Totals.Get(c)
				lo, hi = min(lo, v), max(hi, v)
			}
		}
		for i := range nb.Workloads {
			if v := nb.Workloads[i].Totals.Get(c); v > lo && v+1 < hi {
				idx, ctr = i, c
				break
			}
		}
		if idx >= 0 {
			break
		}
	}
	if idx < 0 {
		t.Fatal("no nbench counter value strictly inside its joint bounds")
	}
	var delta perf.Values
	delta[ctr] = 1
	if err := run.AppendSamples(0, nb.Workloads[idx].Workload, delta, nil); err != nil {
		t.Fatal(err)
	}
	step("interior totals delta", all("nbench"))

	for c := range delta {
		delta[c] = 1 << 40
	}
	if err := run.AppendSamples(0, w0.Workload, delta, nil); err != nil {
		t.Fatal(err)
	}
	moved := all("nbench")
	moved["lmbench/coverage"] = 1
	moved["lmbench/spread"] = 1
	step("bound-moving totals delta", moved)
}
