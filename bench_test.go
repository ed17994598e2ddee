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
	"sync"
	"testing"

	"perspector"
	"perspector/internal/benchset"
	"perspector/internal/cluster"
	"perspector/internal/figdata"
	"perspector/internal/lhs"
	"perspector/internal/mat"
	"perspector/internal/metric"
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
// workloads the paper plots, with cmd/figures' grid and warmup drop.
func BenchmarkFig1TrendNormalization(b *testing.B) {
	sgx := suiteMeas(b, "sgxgauge")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := figdata.Fig1(sgx, 10, 0.1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2CoverageVsSpread regenerates Fig. 2's synthetic
// demonstration: an outlier-inflated point set scores high coverage but
// poor spread; a uniform set scores well on both.
func BenchmarkFig2CoverageVsSpread(b *testing.B) {
	opts := perspector.DefaultOptions()
	var res *figdata.Fig2Result
	for i := 0; i < b.N; i++ {
		var err error
		if res, err = figdata.Fig2(benchConfig().Seed, opts); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(res.SpreadA/res.SpreadB, "spread-ratio-WA/WB")
}

// BenchmarkFig4Clustering regenerates Fig. 4: 2-D PCA projection and
// k-means labels for Nbench and SGXGauge.
func BenchmarkFig4Clustering(b *testing.B) {
	for _, name := range []string{"nbench", "sgxgauge"} {
		m := suiteMeas(b, name)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := figdata.Fig4(m, 1); err != nil {
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
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := figdata.Fig6(lm, sp); err != nil {
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

// The simulator and incremental-scoring benchmarks below share their
// bodies with cmd/benchjson through internal/benchset, so a `go test
// -bench` number and a BENCH_history.jsonl number measure the same work.

// BenchmarkSimulateSuite measures raw simulator throughput: executing the
// Nbench suite end to end (the substrate cost behind every figure).
func BenchmarkSimulateSuite(b *testing.B) { benchset.SimulateSuite(b) }

// BenchmarkSimulateWorkload measures the simulator on a single workload,
// so per-core throughput is separable from the suite-level number.
func BenchmarkSimulateWorkload(b *testing.B) { benchset.SimulateWorkload(b) }

// BenchmarkSimulateSuiteTotalsOnly is BenchmarkSimulateSuite through the
// counters-only fast path.
func BenchmarkSimulateSuiteTotalsOnly(b *testing.B) { benchset.SimulateSuiteTotalsOnly(b) }

// BenchmarkSimulateSuiteRecorder is BenchmarkSimulateSuite with a live
// telemetry recorder attached — the pair quantifies the span overhead
// the observability acceptance criterion bounds at 2%.
func BenchmarkSimulateSuiteRecorder(b *testing.B) { benchset.SimulateSuiteRecorder(b) }

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

// BenchmarkFullRescore is the batch baseline of the incremental A/B
// pair: one op scores a fixed 64-workload measurement from scratch.
func BenchmarkFullRescore(b *testing.B) { benchset.FullRescore(b) }

// BenchmarkIncrementalAppend (benchjson's IncrRescore) measures the
// steady state of the streaming path: one op appends a sample chunk to
// one workload and rescores; the property test in internal/metric pins
// each update bit-identical to the batch path.
func BenchmarkIncrementalAppend(b *testing.B) { benchset.IncrRescore(b) }

// BenchmarkIncrementalAppendTotals is the worst-case chunk: a counter
// totals delta rides along with the samples.
func BenchmarkIncrementalAppendTotals(b *testing.B) { benchset.IncrRescoreTotals(b) }
