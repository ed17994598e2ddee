// Package metric is the staged scoring engine behind Perspector's four
// suite-quality scores. It separates *what* is measured from *how* it is
// scored:
//
//   - Artifacts holds every intermediate a scoring run needs — the
//     counter matrix, the per-suite and joint-normalized matrices, the
//     silhouette distance matrix, and the warmup-trimmed normalized time
//     series — computed once per suite and shared by all metrics.
//   - Metric is the pluggable unit: a name, capability requirements
//     (e.g. needs-series), and a Compute over the shared Artifacts. The
//     four §III paper scores are the stock implementations.
//   - Registry is an ordered metric set; ScoreSuites drives it over one
//     or many suites under the joint normalization of Eq. 9–10, skipping
//     metrics whose capabilities a measurement cannot satisfy (a
//     totals-only import simply comes back with Trend absent).
//
// Every computation funnels through par.DoErr with the caller's context,
// so a cancelled context stops scoring promptly; reductions happen in a
// fixed serial order, so results are bit-identical at any worker count.
package metric

import (
	"fmt"

	"perspector/internal/perf"
)

// Options configures score computation.
type Options struct {
	// Counters is the event group to score over (the "focused scoring"
	// of §IV-B). Defaults to all Table-IV counters.
	Counters []perf.Counter
	// KMeansSeed drives k-means restarts deterministically.
	KMeansSeed uint64
	// KMeansRestarts is the number of k-means++ restarts per k.
	KMeansRestarts int
	// DTWGrid is the number of percentile-grid intervals used by the
	// TrendScore normalization (§III-B1); the series are resampled to
	// DTWGrid+1 points.
	DTWGrid int
	// DTWBand is the Sakoe–Chiba half-width; 0 means full DTW.
	DTWBand int
	// PCAVariance is the retained-variance fraction of Eq. 11–12.
	PCAVariance float64
	// SpreadSeed seeds the uniform draws of Eq. 14.
	SpreadSeed uint64
	// WarmupFrac is the fraction of leading time-series samples dropped
	// before trend analysis. Short simulated runs make cold-start effects
	// (cache/TLB fill, first-touch faults) a visible artificial "phase"
	// that real minutes-long executions do not show; discarding warmup is
	// the standard counter-measurement methodology.
	WarmupFrac float64
	// TrendValueCDF switches the TrendScore's y-axis normalization from
	// the event-CDF-over-time reading of §III-B1 to the alternative
	// value-CDF reading. Kept for the ablation study only: the value-CDF
	// variant rank-amplifies sampling noise on steady workloads and
	// inverts the paper's LMbench/Nbench trend results (see DESIGN.md).
	TrendValueCDF bool
}

// DefaultOptions mirrors the paper's configuration: all counters, 98 %
// retained variance, full DTW on a 100-point percentile grid.
func DefaultOptions() Options {
	return Options{
		Counters:       perf.AllCounters(),
		KMeansSeed:     1,
		KMeansRestarts: 8,
		DTWGrid:        100,
		PCAVariance:    0.98,
		SpreadSeed:     7,
		WarmupFrac:     0.1,
	}
}

// Validate checks the option ranges.
func (o *Options) Validate() error {
	if len(o.Counters) == 0 {
		return fmt.Errorf("metric: no counters selected")
	}
	if o.DTWGrid < 1 {
		return fmt.Errorf("metric: DTWGrid %d < 1", o.DTWGrid)
	}
	if o.PCAVariance <= 0 || o.PCAVariance > 1 {
		return fmt.Errorf("metric: PCAVariance %v out of (0,1]", o.PCAVariance)
	}
	if o.KMeansRestarts < 1 {
		return fmt.Errorf("metric: KMeansRestarts %d < 1", o.KMeansRestarts)
	}
	if o.WarmupFrac < 0 || o.WarmupFrac > 0.9 {
		return fmt.Errorf("metric: WarmupFrac %v out of [0, 0.9]", o.WarmupFrac)
	}
	return nil
}

// TrimWarmup drops the leading frac of the non-empty series s — the
// WarmupFrac rule — keeping at least its last sample.
func TrimWarmup(s []float64, frac float64) []float64 {
	drop := int(frac * float64(len(s)))
	if drop >= len(s) {
		drop = len(s) - 1
	}
	return s[drop:]
}

// Scores holds the four Perspector metrics for one suite.
// Lower is better for Cluster and Spread; higher is better for Trend and
// Coverage (§IV-A). The struct is comparable on purpose: equivalence
// tests pin engine results bit-for-bit with ==.
type Scores struct {
	Suite    string
	Cluster  float64
	Trend    float64
	Coverage float64
	Spread   float64
}

// set stores a metric's value into its named slot. The Scores struct is
// the paper-shaped result; a registry metric whose name has no slot here
// is a configuration error, reported rather than silently dropped.
func (s *Scores) set(name string, v float64) error {
	switch name {
	case MetricCluster:
		s.Cluster = v
	case MetricTrend:
		s.Trend = v
	case MetricCoverage:
		s.Coverage = v
	case MetricSpread:
		s.Spread = v
	default:
		return fmt.Errorf("metric: %q has no slot in Scores", name)
	}
	return nil
}
