package core

import (
	"context"
	"fmt"
	"math"

	"perspector/internal/metric"
	"perspector/internal/perf"
)

// Stability quantifies how sensitive a suite's Perspector scores are to
// the stochastic parts of measurement (workload input seeds, sampling
// alignment). A score that swings across seeds is not a property of the
// suite; reporting the spread keeps conclusions honest — the same reason
// hardware papers report run-to-run variation.
type Stability struct {
	Suite string
	// Mean and StdDev of each score across the runs.
	Mean, StdDev metric.Scores
	// Runs is the number of measurements aggregated.
	Runs int
}

// RelativeStdDev returns per-score coefficient-of-variation values
// (StdDev/|Mean|, 0 when the mean is 0), a unitless stability summary.
func (s *Stability) RelativeStdDev() metric.Scores {
	rel := func(sd, mean float64) float64 {
		if mean == 0 {
			return 0
		}
		return sd / math.Abs(mean)
	}
	return metric.Scores{
		Suite:    s.Suite,
		Cluster:  rel(s.StdDev.Cluster, s.Mean.Cluster),
		Trend:    rel(s.StdDev.Trend, s.Mean.Trend),
		Coverage: rel(s.StdDev.Coverage, s.Mean.Coverage),
		Spread:   rel(s.StdDev.Spread, s.Mean.Spread),
	}
}

// ScoreStability scores several independent measurements of the same
// suite (typically produced with different Config seeds) in isolation and
// aggregates mean and standard deviation per metric. All measurements
// must belong to the same suite.
func ScoreStability(runs []*perf.SuiteMeasurement, opts metric.Options) (*Stability, error) {
	if len(runs) < 2 {
		return nil, fmt.Errorf("core: ScoreStability needs at least 2 runs, got %d", len(runs))
	}
	name := runs[0].Suite
	var all []metric.Scores
	for i, sm := range runs {
		if sm.Suite != name {
			return nil, fmt.Errorf("core: ScoreStability run %d is suite %q, want %q", i, sm.Suite, name)
		}
		s, err := metric.ScoreSuite(context.Background(), sm, opts, nil)
		if err != nil {
			return nil, fmt.Errorf("core: ScoreStability run %d: %w", i, err)
		}
		all = append(all, s)
	}

	n := float64(len(all))
	var mean metric.Scores
	mean.Suite = name
	for _, s := range all {
		mean.Cluster += s.Cluster / n
		mean.Trend += s.Trend / n
		mean.Coverage += s.Coverage / n
		mean.Spread += s.Spread / n
	}
	var sd metric.Scores
	sd.Suite = name
	for _, s := range all {
		sd.Cluster += sq(s.Cluster - mean.Cluster)
		sd.Trend += sq(s.Trend - mean.Trend)
		sd.Coverage += sq(s.Coverage - mean.Coverage)
		sd.Spread += sq(s.Spread - mean.Spread)
	}
	inv := 1 / (n - 1)
	sd.Cluster = math.Sqrt(sd.Cluster * inv)
	sd.Trend = math.Sqrt(sd.Trend * inv)
	sd.Coverage = math.Sqrt(sd.Coverage * inv)
	sd.Spread = math.Sqrt(sd.Spread * inv)

	return &Stability{Suite: name, Mean: mean, StdDev: sd, Runs: len(all)}, nil
}

func sq(v float64) float64 { return v * v }
