// Package perspector quantifies the quality of benchmark suites, as
// described in "Perspector: Benchmarking Benchmark Suites" (DATE 2023).
//
// Perspector assigns four scores to a suite of workloads based on the
// hardware-counter signatures of their executions:
//
//   - ClusterScore (lower is better): how much the workloads clump
//     together in counter space — clumped workloads are redundant.
//   - TrendScore (higher is better): how diverse the workloads' counter
//     time series are, i.e. how much real phase behaviour the suite shows.
//   - CoverageScore (higher is better): how much of the counter parameter
//     space the suite's workloads cover (PCA component variance).
//   - SpreadScore (lower is better): how uniformly the workloads fill
//     that space (Kolmogorov–Smirnov distance to uniform).
//
// Because no hardware PMU is available to a pure-Go library, executions
// run on the built-in microarchitecture simulator (caches, TLBs, branch
// predictor, page-fault model) against synthetic models of six well-known
// suites — SPEC CPU2017, PARSEC, Ligra, LMbench, Nbench and SGXGauge — or
// against caller-defined workloads.
//
// # Quickstart
//
//	cfg := perspector.DefaultConfig()
//	suite, _ := perspector.SuiteByName("parsec", cfg)
//	meas, _ := perspector.Measure(suite, cfg)
//	scores, _ := perspector.Score(meas, perspector.DefaultOptions())
//	fmt.Printf("%+v\n", scores)
//
// To compare suites the way the paper's Fig. 3 does (joint normalization
// across all suites), measure each suite and call Compare.
package perspector

import (
	"context"
	"fmt"
	"io"

	"perspector/internal/cluster"
	"perspector/internal/core"
	"perspector/internal/metric"
	"perspector/internal/par"
	"perspector/internal/perf"
	"perspector/internal/suites"
	"perspector/internal/trace"
	"perspector/internal/workload"
)

// Config controls workload construction and simulator execution.
type Config = suites.Config

// DefaultConfig returns the configuration used for the paper reproduction:
// 400k instructions per workload, 100 PMU samples, the Table-II machine.
func DefaultConfig() Config { return suites.DefaultConfig() }

// Suite is a named set of workload specifications.
type Suite = suites.Suite

// Workload describes one synthetic workload (name, instruction budget,
// phases). Build custom suites from these.
type Workload = workload.Spec

// Phase is one execution phase of a workload: instruction mix, memory
// access patterns, branch behaviour and syscall rate.
type Phase = workload.Phase

// Memory access pattern specs for building custom workloads.
type (
	// Sequential sweeps a working set cyclically with a fixed stride.
	Sequential = workload.Sequential
	// Streams interleaves several independent sequential streams.
	Streams = workload.Streams
	// Random draws uniformly over the working set.
	Random = workload.Random
	// Zipf draws pages from a power-law distribution.
	Zipf = workload.Zipf
	// PointerChase walks a random permutation cycle (linked structures).
	PointerChase = workload.PointerChase
	// HotCold mixes a small hot region with a large cold one.
	HotCold = workload.HotCold
	// Alternating switches between two sub-patterns every Period accesses.
	Alternating = workload.Alternating
)

// Measurement is the result of executing every workload of a suite:
// counter totals and sampled time series per workload.
type Measurement = perf.SuiteMeasurement

// Counter identifies one of the 14 PMU events of the paper's Table IV.
type Counter = perf.Counter

// Options configures score computation (event group, PCA variance, DTW
// grid, seeds).
type Options = metric.Options

// Scores holds the four Perspector metrics for one suite.
type Scores = metric.Scores

// SubsetOptions configures representative-subset generation.
type SubsetOptions = core.SubsetOptions

// SubsetResult reports a generated subset and its score deviation from
// the full suite.
type SubsetResult = core.SubsetResult

// PhaseChange is one detected phase boundary in a counter time series.
type PhaseChange = core.PhaseChange

// DefaultOptions mirrors the paper's setup: all 14 counters, 98 % PCA
// variance, full DTW on a 100-point percentile grid.
func DefaultOptions() Options { return metric.DefaultOptions() }

// StockSuites returns models of the six suites evaluated in the paper
// (Table III), in paper order: PARSEC, SPEC'17, Ligra, LMbench, Nbench,
// SGXGauge.
func StockSuites(cfg Config) []Suite { return suites.All(cfg) }

// SuiteByName returns one registered suite by name — the six stock
// suites plus the spec-only families ("bigdatabench", "cpu2026"). The
// error for an unknown name lists every registered suite.
func SuiteByName(name string, cfg Config) (Suite, error) { return suites.ByName(name, cfg) }

// RegisteredSuites returns every suite in the registry — the stock six
// (in paper order) followed by the spec-only families.
func RegisteredSuites(cfg Config) []Suite { return suites.Registered(cfg) }

// SuiteNames returns the names of every registered suite, stock six
// first, spec-only families after.
func SuiteNames() []string { return suites.Names() }

// LoadSuiteFile loads a declarative suite-spec JSON file (the format
// under internal/suites/specs and examples/suites) and builds it under
// cfg: unpinned workloads take cfg.Instructions and per-workload seeds
// derive from cfg.Seed, exactly as for registered suites.
func LoadSuiteFile(path string, cfg Config) (Suite, error) {
	sp, err := suites.LoadSpecFile(path)
	if err != nil {
		return Suite{}, err
	}
	return sp.Build(cfg)
}

// NewSuite builds a custom suite from caller-defined workloads. Every
// workload is validated.
func NewSuite(name string, workloads []Workload) (Suite, error) {
	if name == "" {
		return Suite{}, fmt.Errorf("perspector: suite needs a name")
	}
	if len(workloads) == 0 {
		return Suite{}, fmt.Errorf("perspector: suite %q needs at least one workload", name)
	}
	for i := range workloads {
		if err := workloads[i].Validate(); err != nil {
			return Suite{}, fmt.Errorf("perspector: suite %q workload %d: %w", name, i, err)
		}
	}
	return Suite{Name: name, Specs: workloads}, nil
}

// SetWorkers bounds the library's internal parallelism (measurement
// fan-out, pairwise DTW, the k-means sweep over k, per-suite scoring) and returns
// the previous bound. n < 1 resets to runtime.NumCPU. Every result is
// bit-identical at any worker count — parallel reductions happen in a
// fixed serial order — so this trades only wall-clock time, never output.
// The PERSPECTOR_WORKERS environment variable sets the initial bound.
func SetWorkers(n int) int { return par.SetWorkers(n) }

// Workers reports the current parallelism bound (see SetWorkers).
func Workers() int { return par.Workers() }

// Measure executes every workload of the suite on the simulator and
// returns counter totals plus sampled time series. Execution is
// deterministic for a given Config and parallel across workloads.
func Measure(s Suite, cfg Config) (*Measurement, error) { return suites.Run(s, cfg) }

// MeasureContext is Measure with end-to-end cancellation: ctx flows
// through the worker-pool fan-out into every simulator loop, so a
// cancelled or expired context stops the run within one sample batch
// (partial measurements are discarded). Failures and cancellations carry
// the measurement stage and the suite/workload that was executing;
// errors.Is(err, context.Canceled) and context.DeadlineExceeded work
// through the wrapping.
func MeasureContext(ctx context.Context, s Suite, cfg Config) (*Measurement, error) {
	return suites.RunContext(ctx, s, cfg)
}

// MeasureAll measures all six stock suites in paper order.
func MeasureAll(cfg Config) ([]*Measurement, error) { return suites.RunAll(cfg) }

// MeasureAllContext is MeasureAll with cancellation (see MeasureContext).
func MeasureAllContext(ctx context.Context, cfg Config) ([]*Measurement, error) {
	return suites.RunAllContext(ctx, cfg)
}

// MeasureMulticore executes every workload as `threads` homologous
// process clones (private seeds and address spaces) on a shared-L3
// multicore machine — the rate-style setup. Counter totals and series
// aggregate across the clones. This extends the paper's single-core
// methodology; use Measure to reproduce the paper.
func MeasureMulticore(s Suite, cfg Config, threads int) (*Measurement, error) {
	return suites.RunMulticore(s, cfg, threads)
}

// MeasureMulticoreContext is MeasureMulticore with cancellation (see
// MeasureContext).
func MeasureMulticoreContext(ctx context.Context, s Suite, cfg Config, threads int) (*Measurement, error) {
	return suites.RunMulticoreContext(ctx, s, cfg, threads)
}

// Score computes the four Perspector scores for one suite in isolation.
// Coverage and Spread are normalized against the suite's own counter
// ranges; use Compare to score several suites against shared ranges.
func Score(m *Measurement, opts Options) (Scores, error) {
	return metric.ScoreSuite(context.Background(), m, opts, nil)
}

// ScoreContext is Score with cancellation: ctx flows through the scoring
// engine's fan-outs (silhouette k-sweep, pairwise DTW, series
// normalization), so a cancelled context aborts scoring promptly with a
// stage-tagged error. Results are bit-identical to Score.
func ScoreContext(ctx context.Context, m *Measurement, opts Options) (Scores, error) {
	return metric.ScoreSuite(ctx, m, opts, nil)
}

// Compare scores several suites under the joint normalization of the
// paper's Eq. 9–10, making the Coverage and Spread scores directly
// comparable across suites — this is how Fig. 3 is produced.
func Compare(ms []*Measurement, opts Options) ([]Scores, error) {
	return metric.ScoreSuites(context.Background(), ms, opts, nil)
}

// CompareContext is Compare with cancellation (see ScoreContext).
func CompareContext(ctx context.Context, ms []*Measurement, opts Options) ([]Scores, error) {
	return metric.ScoreSuites(ctx, ms, opts, nil)
}

// EventGroup returns the counter subset for focused scoring (§IV-B):
// "all", "llc" or "tlb".
func EventGroup(name string) ([]Counter, error) {
	g, err := perf.GroupByName(name)
	if err != nil {
		return nil, err
	}
	return g.Counters, nil
}

// GenerateSubset selects a representative subset of a measured suite via
// Latin Hypercube Sampling over the normalized counter space (§IV-C) and
// reports how far the subset's scores deviate from the full suite's.
func GenerateSubset(m *Measurement, opts Options, so SubsetOptions) (*SubsetResult, error) {
	return core.Subset(m, opts, so)
}

// DefaultSubsetOptions returns the §IV-C configuration for the given
// subset size.
func DefaultSubsetOptions(size int) SubsetOptions { return core.DefaultSubsetOptions(size) }

// DetectPhases finds phase boundaries in a counter delta series using a
// two-window mean-shift detector (the extension the paper motivates via
// its phase-detection citation [26]).
func DetectPhases(series []float64, window int, threshold float64) ([]PhaseChange, error) {
	return core.DetectPhases(series, window, threshold)
}

// PhaseProfile summarizes the detected phase behaviour of a suite.
type PhaseProfile = core.PhaseProfile

// ProfilePhases counts phase boundaries for every workload of a measured
// suite over the selected counters.
func ProfilePhases(m *Measurement, opts Options, window int, threshold float64) (*PhaseProfile, error) {
	return core.ProfilePhases(m, opts, window, threshold)
}

// BaselineResult is the outcome of the prior-work redundancy pipeline
// (normalize → PCA → hierarchical clustering) from the paper's Table I.
type BaselineResult = core.BaselineResult

// Linkage selects the agglomeration rule of the baseline pipeline.
type Linkage = cluster.Linkage

// Linkage values for HierarchicalBaseline.
const (
	SingleLinkage   = cluster.SingleLinkage
	CompleteLinkage = cluster.CompleteLinkage
	AverageLinkage  = cluster.AverageLinkage
)

// HierarchicalBaseline runs the prior-work methodology the paper
// critiques (§II): PCA-reduce the counter matrix and cut an agglomerative
// dendrogram into k flat clusters, returning the silhouette Perspector
// adds on top and one representative workload per cluster.
func HierarchicalBaseline(m *Measurement, opts Options, linkage Linkage, k int) (*BaselineResult, error) {
	return core.HierarchicalBaseline(m, opts, linkage, k)
}

// Augmentation is the result of greedy suite construction.
type Augmentation = core.Augmentation

// AugmentObjective scores a candidate suite during greedy construction;
// higher is better.
type AugmentObjective = core.AugmentObjective

// Augment greedily adds k workloads from a measured candidate pool to a
// measured base suite, maximizing the objective (nil = the default
// balance of the four scores) at every step — metric-driven suite
// construction, the abstract's "systematically and rigorously create a
// suite of workloads".
func Augment(base, candidates *Measurement, opts Options, k int, objective AugmentObjective) (*Augmentation, error) {
	return core.Augment(base, candidates, opts, k, objective)
}

// Stability reports mean and standard deviation of the four scores
// across repeated measurements of the same suite.
type Stability = core.Stability

// ScoreStability scores several independent measurements of one suite
// (e.g. Measure with different Config seeds) and aggregates mean ± sd per
// metric — the run-to-run variation a sound comparison should report.
func ScoreStability(runs []*Measurement, opts Options) (*Stability, error) {
	return core.ScoreStability(runs, opts)
}

// ScoreTotalsOnly scores a measurement as if it carried only counter
// totals (e.g. imported from a perf-derived CSV): any time series are
// dropped, the trend metric's needs-series capability check skips it, and
// the remaining three scores go through the same engine path as Score.
// TrendScore is 0 in the result.
func ScoreTotalsOnly(m *Measurement, opts Options) (Scores, error) {
	return metric.ScoreSuite(context.Background(), metric.TotalsOnly(m), opts, nil)
}

// RedundantPair is a pair of PMU counters whose values are strongly
// correlated across a suite's workloads.
type RedundantPair = core.RedundantPair

// CounterRedundancy reports counter pairs with |Pearson r| >= threshold
// across the suite's workloads, strongest first — the counters a
// researcher can drop to stay within the hardware PMU budget without
// losing characterization power (the paper's multiplexing footnote).
func CounterRedundancy(m *Measurement, opts Options, threshold float64) ([]RedundantPair, error) {
	return core.CounterRedundancy(m, opts, threshold)
}

// Ranking orders compared suites per metric plus an overall mean-rank
// recommendation.
type Ranking = core.Ranking

// Rank turns one Compare result into per-metric and overall orderings.
func Rank(scores []Scores) (*Ranking, error) { return core.Rank(scores) }

// ExportJSON writes a measurement (totals and time series) in the
// portable trace format, so it can be archived or re-scored without
// re-simulating.
func ExportJSON(w io.Writer, m *Measurement) error { return trace.WriteJSON(w, m) }

// ImportJSON reads a measurement in the trace format. The data may come
// from ExportJSON or from an external collector (e.g. converted perf
// output) that follows the same schema; Perspector scores it exactly like
// simulated data.
func ImportJSON(r io.Reader) (*Measurement, error) { return trace.ReadJSON(r) }

// ExportCSV writes the workload × counter totals matrix.
func ExportCSV(w io.Writer, m *Measurement, counters []Counter) error {
	return trace.WriteCSV(w, m, counters)
}

// ImportCSV reads a totals matrix (no time series: TrendScore is
// unavailable on such data, the other three scores work).
func ImportCSV(r io.Reader, suiteName string) (*Measurement, error) {
	return trace.ReadCSV(r, suiteName)
}

// Calibrate adjusts each workload's instruction budget so every workload
// consumes approximately the same number of CPU cycles — the paper's
// methodology of "tweaking the input values" so execution times match
// (§IV). It probes each workload at the Config budget, derives its CPI,
// and rescales. Budgets are clamped to [minInstr, maxInstr].
func Calibrate(s Suite, cfg Config, targetCycles, minInstr, maxInstr uint64) (Suite, error) {
	return suites.Calibrate(s, cfg, targetCycles, minInstr, maxInstr)
}
