package metric

import (
	"context"

	"perspector/internal/perf"
)

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

// NormSeries returns the warmup-trimmed, CDF/percentile-normalized delta
// series of every workload for counter c (the Fig. 1 normalization that
// TrendScore's DTW compares). The result is cached per counter; only
// workloads whose series changed since the last call are recomputed, in
// place, so a caller must not keep the grids across an append.
func (a *Artifacts) NormSeries(ctx context.Context, c perf.Counter) ([][]float64, error) {
	sc, err := a.series(ctx, c)
	if err != nil {
		return nil, err
	}
	return sc.norm, nil
}
