package perspector_test

// Benchmark harness: one benchmark per paper table/figure (the cost of
// regenerating it) plus ablation benchmarks for the design choices called
// out in DESIGN.md. Quality numbers — who wins, by what factor — are
// emitted via b.ReportMetric so `go test -bench` output doubles as the
// experiment log.
//
// All figure benchmarks run against a shared, lazily-built measurement set
// with a reduced (but non-trivial) simulation budget so `-bench=.`
// completes in minutes, not hours. EXPERIMENTS.md records full-budget
// results produced by cmd/figures.

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"perspector"
	"perspector/internal/cluster"
	"perspector/internal/dtw"
	"perspector/internal/lhs"
	"perspector/internal/mat"
	"perspector/internal/metric"
	"perspector/internal/obs"
	"perspector/internal/pca"
	"perspector/internal/perf"
	"perspector/internal/rng"
)

var (
	benchOnce sync.Once
	benchMeas []*perspector.Measurement
	benchErr  error
)

func benchConfig() perspector.Config {
	// Benchmarks use the paper's full configuration: reducing the
	// instruction budget or the sample interval starves low-activity
	// counters of the OS-noise trickle, reintroducing sparse-event
	// staircases that invert trend metrics. The suite simulation runs
	// once (sync.Once) and costs a few seconds.
	return perspector.DefaultConfig()
}

func measurements(b *testing.B) []*perspector.Measurement {
	b.Helper()
	benchOnce.Do(func() {
		benchMeas, benchErr = perspector.MeasureAll(benchConfig())
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchMeas
}

func suiteMeas(b *testing.B, name string) *perspector.Measurement {
	b.Helper()
	for _, m := range measurements(b) {
		if m.Suite == name {
			return m
		}
	}
	b.Fatalf("suite %q not measured", name)
	return nil
}

// benchFig3 scores all six suites under one event group and reports the
// best suite's value per score as metrics.
func benchFig3(b *testing.B, group string) {
	ms := measurements(b)
	opts := perspector.DefaultOptions()
	counters, err := perspector.EventGroup(group)
	if err != nil {
		b.Fatal(err)
	}
	opts.Counters = counters
	var scores []perspector.Scores
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scores, err = perspector.Compare(ms, opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	// Emit the discriminating quantities of the figure.
	var worstCluster, bestTrend, bestCoverage float64
	for _, s := range scores {
		if s.Cluster > worstCluster {
			worstCluster = s.Cluster
		}
		if s.Trend > bestTrend {
			bestTrend = s.Trend
		}
		if s.Coverage > bestCoverage {
			bestCoverage = s.Coverage
		}
	}
	b.ReportMetric(worstCluster, "worst-cluster")
	b.ReportMetric(bestTrend, "best-trend")
	b.ReportMetric(bestCoverage*1000, "best-coverage(x1e3)")
}

// BenchmarkFig3aAllCounters regenerates Fig. 3a: four scores, six suites,
// all 14 Table-IV events.
func BenchmarkFig3aAllCounters(b *testing.B) { benchFig3(b, "all") }

// BenchmarkFig3bLLCOnly regenerates Fig. 3b: focused scoring on
// LLC-related events.
func BenchmarkFig3bLLCOnly(b *testing.B) { benchFig3(b, "llc") }

// BenchmarkFig3cTLBOnly regenerates Fig. 3c: focused scoring on
// TLB-related events.
func BenchmarkFig3cTLBOnly(b *testing.B) { benchFig3(b, "tlb") }

// BenchmarkFig1TrendNormalization regenerates Fig. 1: the two-axis
// normalization of the LLC-load-miss series of the five SGXGauge
// workloads the paper plots.
func BenchmarkFig1TrendNormalization(b *testing.B) {
	sgx := suiteMeas(b, "sgxgauge")
	want := map[string]bool{
		"sgxgauge.pagerank": true, "sgxgauge.hashjoin": true,
		"sgxgauge.bfs": true, "sgxgauge.btree": true, "sgxgauge.openssl": true,
	}
	var series [][]float64
	for _, w := range sgx.Workloads {
		if want[w.Workload] {
			series = append(series, w.Series.Series(perf.LLCLoadMisses))
		}
	}
	if len(series) != 5 {
		b.Fatalf("found %d of the 5 Fig. 1 workloads", len(series))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range series {
			dtw.NormalizeSeries(s, 100)
		}
	}
}

// BenchmarkFig2CoverageVsSpread regenerates Fig. 2's synthetic
// demonstration: an outlier-inflated point set scores high coverage but
// poor spread; a uniform set scores well on both.
func BenchmarkFig2CoverageVsSpread(b *testing.B) {
	src := rng.New(2023)
	const dims = 8
	wa := mat.New(16, dims)
	for i := 0; i < 14; i++ {
		for j := 0; j < dims; j++ {
			wa.Set(i, j, 0.45+0.1*src.Float64())
		}
	}
	for j := 0; j < dims; j++ {
		wa.Set(14, j, 0) // two corner outliers inflate the variance
		wa.Set(15, j, 1)
	}
	wb := mat.New(16, dims)
	for i := 0; i < 16; i++ {
		for j := 0; j < dims; j++ {
			wb.Set(i, j, src.Float64())
		}
	}
	opts := perspector.DefaultOptions()
	var spA, spB float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if _, err = metric.CoverageScore(wa, opts); err != nil {
			b.Fatal(err)
		}
		if _, err = metric.CoverageScore(wb, opts); err != nil {
			b.Fatal(err)
		}
		if spA, err = metric.SpreadScore(wa, opts); err != nil {
			b.Fatal(err)
		}
		if spB, err = metric.SpreadScore(wb, opts); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(spA/spB, "spread-ratio-WA/WB")
}

// BenchmarkFig4Clustering regenerates Fig. 4: 2-D PCA projection and
// k-means labels for Nbench and SGXGauge.
func BenchmarkFig4Clustering(b *testing.B) {
	for _, name := range []string{"nbench", "sgxgauge"} {
		m := suiteMeas(b, name)
		x := mat.FromRows(m.Matrix(perf.AllCounters()))
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				normed, err := metric.JointNormalize([]*mat.Matrix{x})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := pca.Fit(normed[0], 1.0); err != nil {
					b.Fatal(err)
				}
				if _, err := cluster.KMeans(normed[0], 2, cluster.DefaultKMeansOptions(1)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig5LLCMissTrends regenerates Fig. 5: normalized LLC-miss
// trend curves of Nbench vs SPEC'17 and the trend-score gap between them.
func BenchmarkFig5LLCMissTrends(b *testing.B) {
	nb := suiteMeas(b, "nbench")
	sp := suiteMeas(b, "spec17")
	opts := perspector.DefaultOptions()
	opts.Counters = []perspector.Counter{perf.LLCLoadMisses}
	var tNb, tSp float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if tNb, err = metric.TrendScore(nb, opts); err != nil {
			b.Fatal(err)
		}
		if tSp, err = metric.TrendScore(sp, opts); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if tNb > 0 {
		b.ReportMetric(tSp/tNb, "spec17/nbench-trend")
	}
}

// BenchmarkFig6PCACoverage regenerates Fig. 6: joint normalization of
// LMbench and SPEC'17 plus a shared PCA plane.
func BenchmarkFig6PCACoverage(b *testing.B) {
	lm := suiteMeas(b, "lmbench")
	sp := suiteMeas(b, "spec17")
	xl := mat.FromRows(lm.Matrix(perf.AllCounters()))
	xs := mat.FromRows(sp.Matrix(perf.AllCounters()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		normed, err := metric.JointNormalize([]*mat.Matrix{xl, xs})
		if err != nil {
			b.Fatal(err)
		}
		union := normed[0].VStack(normed[1])
		res, err := pca.Fit(union, 1.0)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := res.Project(normed[0]); err != nil {
			b.Fatal(err)
		}
		if _, err := res.Project(normed[1]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSubsetGeneration regenerates §IV-C: SPEC'17 43→8 via LHS,
// reporting the score deviation.
func BenchmarkSubsetGeneration(b *testing.B) {
	sp := suiteMeas(b, "spec17")
	opts := perspector.DefaultOptions()
	so := perspector.DefaultSubsetOptions(8)
	var res *perspector.SubsetResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		res, err = perspector.GenerateSubset(sp, opts, so)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(100*res.Deviation, "deviation-%")
}

// BenchmarkSimulateSuite measures raw simulator throughput: executing the
// Nbench suite end to end (the substrate cost behind every figure).
func BenchmarkSimulateSuite(b *testing.B) {
	cfg := benchConfig()
	s, err := perspector.SuiteByName("nbench", cfg)
	if err != nil {
		b.Fatal(err)
	}
	totalInstr := cfg.Instructions * uint64(len(s.Specs))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := perspector.Measure(s, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(totalInstr), "instructions/op")
}

// BenchmarkSimulateWorkload measures the simulator on a single workload —
// the first Nbench kernel — so per-core throughput is separable from the
// suite-level number, which folds in the worker fan-out and any
// cross-workload machine reuse.
func BenchmarkSimulateWorkload(b *testing.B) {
	cfg := benchConfig()
	s, err := perspector.SuiteByName("nbench", cfg)
	if err != nil {
		b.Fatal(err)
	}
	s.Specs = s.Specs[:1]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := perspector.Measure(s, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(cfg.Instructions), "instructions/op")
}

// BenchmarkSimulateSuiteTotalsOnly is BenchmarkSimulateSuite through the
// counters-only fast path: no sampled series is built, and the totals are
// pinned bit-identical to the full run by TestCountersOnlyMatchesFullTotals.
func BenchmarkSimulateSuiteTotalsOnly(b *testing.B) {
	cfg := benchConfig()
	cfg.TotalsOnly = true
	s, err := perspector.SuiteByName("nbench", cfg)
	if err != nil {
		b.Fatal(err)
	}
	totalInstr := cfg.Instructions * uint64(len(s.Specs))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := perspector.Measure(s, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(totalInstr), "instructions/op")
}

// BenchmarkSimulateSuiteRecorder is BenchmarkSimulateSuite with a live
// telemetry recorder attached — the pair quantifies the span overhead
// the observability acceptance criterion bounds at 2%. A fresh recorder
// per iteration keeps the arena from amortizing across iterations.
func BenchmarkSimulateSuiteRecorder(b *testing.B) {
	cfg := benchConfig()
	s, err := perspector.SuiteByName("nbench", cfg)
	if err != nil {
		b.Fatal(err)
	}
	totalInstr := cfg.Instructions * uint64(len(s.Specs))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx := obs.WithRecorder(context.Background(), obs.NewRecorder())
		if _, err := perspector.MeasureContext(ctx, s, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(totalInstr), "instructions/op")
}

// --- Ablation benchmarks (DESIGN.md "Design choices" section) ---

// BenchmarkAblationKMeansSeeding compares k-means++ seeding against the
// same pipeline with a single restart (effectively random-ish seeding):
// the metric is the inertia ratio (1.0 = no benefit from restarts).
func BenchmarkAblationKMeansSeeding(b *testing.B) {
	sp := suiteMeas(b, "spec17")
	x := mat.FromRows(sp.Matrix(perf.AllCounters()))
	normed, err := metric.JointNormalize([]*mat.Matrix{x})
	if err != nil {
		b.Fatal(err)
	}
	data := normed[0]
	multi := cluster.DefaultKMeansOptions(1)
	single := cluster.DefaultKMeansOptions(1)
	single.Restarts = 1
	var inertiaMulti, inertiaSingle float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rm, err := cluster.KMeans(data, 6, multi)
		if err != nil {
			b.Fatal(err)
		}
		rs, err := cluster.KMeans(data, 6, single)
		if err != nil {
			b.Fatal(err)
		}
		inertiaMulti, inertiaSingle = rm.Inertia, rs.Inertia
	}
	b.StopTimer()
	if inertiaMulti > 0 {
		b.ReportMetric(inertiaSingle/inertiaMulti, "single/multi-inertia")
	}
}

// BenchmarkAblationDTWBand compares full DTW against a Sakoe–Chiba band
// of width 10 on the TrendScore pipeline: the band trades a bounded
// distance error for a large speedup.
func BenchmarkAblationDTWBand(b *testing.B) {
	sgx := suiteMeas(b, "sgxgauge")
	for _, variant := range []struct {
		name string
		band int
	}{{"full", 0}, {"band10", 10}} {
		b.Run(variant.name, func(b *testing.B) {
			opts := perspector.DefaultOptions()
			opts.DTWBand = variant.band
			var t float64
			for i := 0; i < b.N; i++ {
				var err error
				t, err = metric.TrendScore(sgx, opts)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(t, "trend")
		})
	}
}

// BenchmarkAblationTrendNormalization compares the event-CDF trend
// normalization (used by TrendScore) against the value-CDF alternative
// reading of §III-B1. The metric is the LMbench/PARSEC trend ratio: the
// paper requires LMbench (steady micros) well below PARSEC; the value-CDF
// variant inverts that by rank-amplifying sampling noise.
func BenchmarkAblationTrendNormalization(b *testing.B) {
	lm := suiteMeas(b, "lmbench")
	pa := suiteMeas(b, "parsec")
	trend := func(m *perspector.Measurement, valueCDF bool) float64 {
		opts := perspector.DefaultOptions()
		opts.TrendValueCDF = valueCDF
		t, err := metric.TrendScore(m, opts)
		if err != nil {
			b.Fatal(err)
		}
		return t
	}
	var ratioEvent, ratioValue float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ratioEvent = trend(lm, false) / trend(pa, false)
		ratioValue = trend(lm, true) / trend(pa, true)
	}
	b.StopTimer()
	b.ReportMetric(ratioEvent, "lmbench/parsec-eventCDF")
	b.ReportMetric(ratioValue, "lmbench/parsec-valueCDF")
}

// BenchmarkAblationJointNormalization compares joint vs isolated min-max
// normalization for the CoverageScore (§III-C1). The metric is the ratio
// of Nbench's coverage under isolated normalization to its coverage under
// joint normalization: isolated normalization wildly inflates the tiny
// suite because its minuscule ranges stretch to [0,1].
func BenchmarkAblationJointNormalization(b *testing.B) {
	nb := suiteMeas(b, "nbench")
	sp := suiteMeas(b, "spec17")
	xn := mat.FromRows(nb.Matrix(perf.AllCounters()))
	xs := mat.FromRows(sp.Matrix(perf.AllCounters()))
	opts := perspector.DefaultOptions()
	var joint, isolated float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		normedJ, err := metric.JointNormalize([]*mat.Matrix{xn, xs})
		if err != nil {
			b.Fatal(err)
		}
		if joint, err = metric.CoverageScore(normedJ[0], opts); err != nil {
			b.Fatal(err)
		}
		normedI, err := metric.JointNormalize([]*mat.Matrix{xn})
		if err != nil {
			b.Fatal(err)
		}
		if isolated, err = metric.CoverageScore(normedI[0], opts); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if joint > 0 {
		b.ReportMetric(isolated/joint, "isolated/joint-coverage")
	}
}

// BenchmarkAblationLHSVsRandomSubset compares LHS-driven subset selection
// against uniform random subsets of the same size: the metric is each
// strategy's mean score deviation (lower is better).
func BenchmarkAblationLHSVsRandomSubset(b *testing.B) {
	sp := suiteMeas(b, "spec17")
	opts := perspector.DefaultOptions()
	var lhsDev, randDev float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := perspector.GenerateSubset(sp, opts, perspector.DefaultSubsetOptions(8))
		if err != nil {
			b.Fatal(err)
		}
		lhsDev = res.Deviation

		// Random baseline: pick 8 uniformly, score identically.
		src := rng.New(99)
		idx := src.Perm(len(sp.Workloads))[:8]
		sub := &perf.SuiteMeasurement{Suite: "rand"}
		for _, k := range idx {
			sub.Workloads = append(sub.Workloads, sp.Workloads[k])
		}
		scores, err := metric.ScoreSuites(context.Background(), []*perf.SuiteMeasurement{sp, sub}, opts, nil)
		if err != nil {
			b.Fatal(err)
		}
		randDev = deviationOf(scores[0], scores[1])
	}
	b.StopTimer()
	b.ReportMetric(100*lhsDev, "lhs-deviation-%")
	b.ReportMetric(100*randDev, "random-deviation-%")
}

func deviationOf(full, sub metric.Scores) float64 {
	rel := func(f, s float64) float64 {
		if f == 0 {
			if s == 0 {
				return 0
			}
			return 1
		}
		d := (s - f) / f
		if d < 0 {
			d = -d
		}
		return d
	}
	return (rel(full.Cluster, sub.Cluster) + rel(full.Trend, sub.Trend) +
		rel(full.Coverage, sub.Coverage) + rel(full.Spread, sub.Spread)) / 4
}

// BenchmarkAblationHierarchicalBaseline runs the prior-work pipeline
// (Table I): normalize → PCA → agglomerative hierarchical clustering →
// cut. The metric is the silhouette of the resulting flat clustering,
// comparable against Perspector's k-means silhouettes.
func BenchmarkAblationHierarchicalBaseline(b *testing.B) {
	sp := suiteMeas(b, "spec17")
	x := mat.FromRows(sp.Matrix(perf.AllCounters()))
	normed, err := metric.JointNormalize([]*mat.Matrix{x})
	if err != nil {
		b.Fatal(err)
	}
	res, err := pca.Fit(normed[0], 0.98)
	if err != nil {
		b.Fatal(err)
	}
	reduced := res.Transformed
	var sil float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dg, err := cluster.Hierarchical(reduced, cluster.AverageLinkage)
		if err != nil {
			b.Fatal(err)
		}
		labels, err := dg.Cut(6)
		if err != nil {
			b.Fatal(err)
		}
		sil, err = cluster.Silhouette(reduced, labels, 6)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(sil, "silhouette")
}

// BenchmarkAblationWarmupDrop quantifies the warmup-sample sensitivity of
// the TrendScore: with no warmup exclusion, cold-start fills masquerade
// as phases for steady suites.
func BenchmarkAblationWarmupDrop(b *testing.B) {
	nb := suiteMeas(b, "nbench")
	var with, without float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts := perspector.DefaultOptions()
		var err error
		if with, err = metric.TrendScore(nb, opts); err != nil {
			b.Fatal(err)
		}
		opts.WarmupFrac = 0
		if without, err = metric.TrendScore(nb, opts); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if with > 0 {
		b.ReportMetric(without/with, "noWarmupDrop/withDrop-trend")
	}
}

// BenchmarkLHSSampling isolates the Latin Hypercube sampler at the
// paper's dimensions (8 samples × 14 counters, maximin over 32 designs).
func BenchmarkLHSSampling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := lhs.SampleMaximin(8, 14, uint64(i+1), 32); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationPrefetcher re-measures one suite on a machine with the
// next-line prefetcher enabled and reports how the suite's CoverageScore
// moves — the "tune a suite for a target system" use case from the
// paper's abstract: scores are a property of (suite, machine), and a
// microarchitectural change shifts them.
func BenchmarkAblationPrefetcher(b *testing.B) {
	base := benchConfig()
	pf := base
	pf.Machine.NextLinePrefetch = true
	suite, err := perspector.SuiteByName("lmbench", base)
	if err != nil {
		b.Fatal(err)
	}
	opts := perspector.DefaultOptions()
	var covBase, covPf float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mBase, err := perspector.Measure(suite, base)
		if err != nil {
			b.Fatal(err)
		}
		mPf, err := perspector.Measure(suite, pf)
		if err != nil {
			b.Fatal(err)
		}
		sBase, err := perspector.Score(mBase, opts)
		if err != nil {
			b.Fatal(err)
		}
		sPf, err := perspector.Score(mPf, opts)
		if err != nil {
			b.Fatal(err)
		}
		covBase, covPf = sBase.Coverage, sPf.Coverage
	}
	b.StopTimer()
	if covBase > 0 {
		b.ReportMetric(covPf/covBase, "prefetch/base-coverage")
	}
}

// --- Incremental scoring A/B (streaming-score acceptance pair) ---

// benchStreamMeasurement fabricates a deterministic measurement with n
// workloads, each carrying totals and a samples-long delta series per
// counter — the shape a perspectord stream accumulates chunk by chunk.
func benchStreamMeasurement(seed uint64, n, samples int) *perf.SuiteMeasurement {
	src := rng.New(seed)
	sm := &perf.SuiteMeasurement{Suite: "streambench"}
	for i := 0; i < n; i++ {
		m := perf.Measurement{Workload: fmt.Sprintf("w%02d", i)}
		m.Series.Interval = 1000
		for c := 0; c < int(perf.NumCounters); c++ {
			m.Totals[perf.Counter(c)] = uint64(src.Intn(50000))
			for s := 0; s < samples; s++ {
				m.Series.Samples[perf.Counter(c)] = append(
					m.Series.Samples[perf.Counter(c)], float64(src.Intn(2000)))
			}
		}
		sm.Workloads = append(sm.Workloads, m)
	}
	return sm
}

// BenchmarkFullRescore is the batch baseline of the incremental A/B
// pair: one op scores a fixed 64-workload measurement from scratch —
// the cost a streaming client would pay per chunk without the
// incremental engine.
func BenchmarkFullRescore(b *testing.B) {
	sm := benchStreamMeasurement(2023, 64, 64)
	opts := perspector.DefaultOptions()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := metric.ScoreSuites(ctx, []*perf.SuiteMeasurement{sm}, opts, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// benchIncrementalAppend is the shared body of the incremental append
// benchmarks: a run already holding the 64-workload measurement with
// every artifact cached, where one op appends a chunk to one workload
// and rescores. withTotals selects whether the chunk carries a counter
// totals delta alongside its series samples.
func benchIncrementalAppend(b *testing.B, withTotals bool) {
	sm := benchStreamMeasurement(2023, 64, 64)
	opts := perspector.DefaultOptions()
	ctx := context.Background()
	run, err := metric.NewIncrementalRun([]*perf.SuiteMeasurement{sm}, opts, nil)
	if err != nil {
		b.Fatal(err)
	}
	// Build every cache once; the benchmark starts in the steady state.
	if _, err := run.Scores(ctx); err != nil {
		b.Fatal(err)
	}
	names := make([]string, len(run.Measurement(0).Workloads))
	for i := range names {
		names[i] = run.Measurement(0).Workloads[i].Workload
	}
	src := rng.New(7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var delta perf.Values
		tail := &perf.TimeSeries{Interval: 1000}
		for c := 0; c < int(perf.NumCounters); c++ {
			if withTotals {
				delta[perf.Counter(c)] = uint64(src.Intn(500))
			}
			tail.Samples[perf.Counter(c)] = []float64{
				float64(src.Intn(2000)), float64(src.Intn(2000))}
		}
		if err := run.AppendSamples(0, names[i%len(names)], delta, tail); err != nil {
			b.Fatal(err)
		}
		if _, err := run.Scores(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIncrementalAppend measures the steady state of the streaming
// path: one op appends a sample chunk (two series samples per counter)
// to one workload and rescores. The counter matrix is untouched, so the
// cluster/coverage/spread results stay memoized and only the touched
// row's DTW pair distances recompute; the property test in
// internal/metric pins each update bit-identical to the batch path.
func BenchmarkIncrementalAppend(b *testing.B) { benchIncrementalAppend(b, false) }

// BenchmarkIncrementalAppendTotals is the worst-case chunk: a counter
// totals delta rides along with the samples, so the normalization
// bounds, the distance matrix and every totals-derived metric (the full
// k-means sweep included) recompute alongside the DTW row.
func BenchmarkIncrementalAppendTotals(b *testing.B) { benchIncrementalAppend(b, true) }
