package metric

import (
	"context"
	"fmt"

	"perspector/internal/cluster"
	"perspector/internal/obs"
	"perspector/internal/par"
	"perspector/internal/pca"
	"perspector/internal/rng"
	"perspector/internal/stat"
)

// Names of the four stock paper metrics, as registered in
// DefaultRegistry and as accepted by Registry.Without.
const (
	MetricCluster  = "cluster"
	MetricTrend    = "trend"
	MetricCoverage = "coverage"
	MetricSpread   = "spread"
)

// Capabilities declares what a metric needs from a measurement and from
// the scoring run. The engine skips a metric whose needs the input cannot
// satisfy (leaving its Scores slot zero) instead of erroring: a
// totals-only CSV import simply comes back without a TrendScore.
type Capabilities struct {
	// NeedsSeries: the metric reads sampled time series; skipped for
	// totals-only measurements.
	NeedsSeries bool
	// NeedsJointNorm: the metric reads Artifacts.JointNorm; the engine
	// runs JointNormalize across the suites only if some registered
	// metric asks for it.
	NeedsJointNorm bool
}

// Metric is one suite-quality score over shared Artifacts.
type Metric interface {
	// Name keys the metric's slot in Scores and in Registry.Without.
	Name() string
	// Requires declares the metric's input capabilities.
	Requires() Capabilities
	// Compute evaluates the metric. Implementations poll ctx (directly or
	// through par.DoErr) so a cancelled scoring run stops promptly, and
	// reduce in fixed serial order so values are bit-identical at any
	// worker count.
	Compute(ctx context.Context, a *Artifacts) (float64, error)
}

// clusterMetric implements §III-A / Eq. 6: min-max normalize the suite's
// counter matrix, run k-means for every k in [2, n−1], compute the
// silhouette of each clustering, and average. Lower (poorer clustering)
// is better: the workloads do not clump.
//
// Suites with fewer than 4 workloads have no k in [2, n−1] beyond the
// trivial ones; for n == 3 the single k=2 silhouette is returned, and for
// n < 3 the score is 0 by the k=1 convention of Eq. 3.
type clusterMetric struct{}

func (clusterMetric) Name() string           { return MetricCluster }
func (clusterMetric) Requires() Capabilities { return Capabilities{} }

func (clusterMetric) Compute(ctx context.Context, a *Artifacts) (float64, error) {
	n := len(a.Meas.Workloads)
	if n < 3 {
		return 0, nil
	}
	x := a.OwnNorm()
	// One O(n²) squared-distance matrix serves every k-means of the
	// sweep, and its square roots every silhouette.
	sq, dist := a.SqDist(), a.Dist()
	ks := n - 2 // k in [2, n-1]
	sils := make([]float64, ks)
	work := make([]cluster.KMeansWork, ks)
	pairs := make([]int, ks)
	a.ensureScratch(par.Workers())
	err := par.DoErr(ctx, ks, func(w, i int) error {
		k := i + 2
		km := cluster.DefaultKMeansOptions(rng.ChildSeed(a.Opts.KMeansSeed, k))
		km.Restarts = a.Opts.KMeansRestarts
		// The worker's k-means buffers serve every k it runs; the result
		// is read before the worker's next call overwrites it.
		res, err := a.worker(w).km.KMeansSq(x, sq, k, km)
		if err != nil {
			return fmt.Errorf("metric: ClusterScore k=%d: %w", k, err)
		}
		work[i] = res.Work
		// k-means can return fewer than k distinct labels only via the
		// empty-cluster repair, which guarantees non-empty clusters; the
		// silhouette is computed over exactly k clusters.
		s, p, err := a.worker(w).sil.SilhouetteDist(dist, res.Labels, k)
		pairs[i] = p
		if err != nil {
			return fmt.Errorf("metric: ClusterScore silhouette k=%d: %w", k, err)
		}
		sils[i] = s
		return nil
	})
	// Report the work of every k-means and silhouette that ran, on
	// failure too.
	var total cluster.KMeansWork
	silPairs := 0
	for i, w := range work {
		total.Restarts += w.Restarts
		total.Iters += w.Iters
		total.ItersSkipped += w.ItersSkipped
		silPairs += pairs[i]
	}
	rec := obs.FromContext(ctx)
	rec.Count(obs.CounterKMeansRestarts, int64(total.Restarts))
	rec.Count(obs.CounterKMeansIters, int64(total.Iters))
	rec.Count(obs.CounterKMeansItersSkipped, int64(total.ItersSkipped))
	rec.Count(obs.CounterSilhouettePairs, int64(silPairs))
	if err != nil {
		return 0, err
	}
	// Ordered reduction: the sum accumulates in k order exactly as the
	// serial loop did, so the score is bit-identical at any worker count.
	sum := 0.0
	for _, s := range sils {
		sum += s
	}
	return sum / float64(ks), nil
}

// trendMetric implements §III-B / Eq. 7–8: for every selected counter,
// normalize each workload's delta time series (CDF y-axis to [0,100],
// execution-percentile x-axis), compute all pairwise DTW distances, and
// average; the TrendScore is the mean over counters. Higher is better:
// the suite's workloads exhibit distinct phase behaviour.
type trendMetric struct{}

func (trendMetric) Name() string           { return MetricTrend }
func (trendMetric) Requires() Capabilities { return Capabilities{NeedsSeries: true} }

func (trendMetric) Compute(ctx context.Context, a *Artifacts) (float64, error) {
	n := len(a.Meas.Workloads)
	if n < 2 {
		return 0, nil
	}
	total := 0.0
	for _, c := range a.Opts.Counters {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		// TrendDists computes (or incrementally extends) the cached
		// pairwise DTW matrix; only pairs touching a changed series are
		// recomputed on an appended measurement.
		dists, err := a.TrendDists(ctx, c)
		if err != nil {
			return 0, err
		}
		// Reduce in the lexicographic order of the serial double loop, so
		// the sum never reassociates and the score is bit-identical to the
		// batch path at any worker count.
		sum := 0.0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				sum += 2 * dists[i][j] // Eq. 7 sums ordered pairs; DTW is symmetric
			}
		}
		total += sum / float64(n*(n-1))
	}
	return total / float64(len(a.Opts.Counters)), nil
}

// coverageMetric implements §III-C / Eq. 11–13 on the joint-normalized
// matrix: PCA retaining Opts.PCAVariance of the variance, then the mean
// variance of the retained components. Higher is better.
type coverageMetric struct{}

func (coverageMetric) Name() string           { return MetricCoverage }
func (coverageMetric) Requires() Capabilities { return Capabilities{NeedsJointNorm: true} }

func (coverageMetric) Compute(_ context.Context, a *Artifacts) (float64, error) {
	if a.JointNorm == nil {
		return 0, fmt.Errorf("metric: CoverageScore without joint-normalized matrix")
	}
	res, err := pca.Fit(a.JointNorm, a.Opts.PCAVariance)
	if err != nil {
		return 0, fmt.Errorf("metric: CoverageScore: %w", err)
	}
	return res.MeanComponentVariance(), nil
}

// spreadMetric implements §III-D / Eq. 14 on the joint-normalized matrix:
// for each workload (row), the two-sample KS statistic between its
// normalized counter values and an equal number of seeded uniform draws;
// the score is the mean over workloads. Lower is better (closer to a
// uniform covering of the parameter space).
type spreadMetric struct{}

func (spreadMetric) Name() string           { return MetricSpread }
func (spreadMetric) Requires() Capabilities { return Capabilities{NeedsJointNorm: true} }

func (spreadMetric) Compute(_ context.Context, a *Artifacts) (float64, error) {
	x := a.JointNorm
	if x == nil {
		return 0, fmt.Errorf("metric: SpreadScore without joint-normalized matrix")
	}
	if x.Rows() == 0 {
		return 0, fmt.Errorf("metric: SpreadScore on empty matrix")
	}
	src := rng.New(a.Opts.SpreadSeed)
	m := x.Cols()
	// One scratch row of uniforms, refilled in place: the RNG draw
	// sequence matches the old allocate-per-row loop exactly, and
	// KSTwoSample copies its inputs before sorting, so reuse is safe.
	uniform := make([]float64, m)
	sum := 0.0
	for i := 0; i < x.Rows(); i++ {
		for j := range uniform {
			uniform[j] = src.Float64()
		}
		sum += stat.KSTwoSample(x.RowView(i), uniform)
	}
	return sum / float64(x.Rows()), nil
}

// Registry is an ordered set of metrics. Order matters twice: metrics
// compute in registration order, and error precedence follows it.
type Registry struct {
	metrics []Metric
}

// NewRegistry builds a registry from the given metrics, in order.
// Duplicate names are rejected at construction so a scoring run never
// silently overwrites one metric's slot with another's.
func NewRegistry(ms ...Metric) (*Registry, error) {
	seen := make(map[string]bool, len(ms))
	for _, m := range ms {
		if seen[m.Name()] {
			return nil, fmt.Errorf("metric: duplicate metric %q", m.Name())
		}
		seen[m.Name()] = true
	}
	return &Registry{metrics: append([]Metric(nil), ms...)}, nil
}

// DefaultRegistry returns the four paper metrics in §III order:
// cluster, trend, coverage, spread.
func DefaultRegistry() *Registry {
	return &Registry{metrics: []Metric{
		clusterMetric{}, trendMetric{}, coverageMetric{}, spreadMetric{},
	}}
}

// Metrics returns the registered metrics in order. The slice is shared;
// callers must not mutate it.
func (r *Registry) Metrics() []Metric { return r.metrics }

// Without returns a registry with the named metrics removed — e.g.
// Without(MetricTrend) scores totals-style even when series exist.
func (r *Registry) Without(names ...string) *Registry {
	drop := make(map[string]bool, len(names))
	for _, n := range names {
		drop[n] = true
	}
	out := &Registry{}
	for _, m := range r.metrics {
		if !drop[m.Name()] {
			out.metrics = append(out.metrics, m)
		}
	}
	return out
}

// needs reports whether any registered metric requires the capability
// selected by pick.
func (r *Registry) needs(pick func(Capabilities) bool) bool {
	for _, m := range r.metrics {
		if pick(m.Requires()) {
			return true
		}
	}
	return false
}
