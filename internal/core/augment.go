package core

import (
	"context"
	"fmt"
	"math"

	"perspector/internal/metric"
	"perspector/internal/perf"
)

// Augmentation is the result of greedy suite construction: which
// candidate workloads to add to a base suite, in order, and the suite's
// scores after each addition.
type Augmentation struct {
	// Chosen are indices into the candidate measurement, in the order
	// they were added.
	Chosen []int
	// Names are the corresponding workload names.
	Names []string
	// Trace[k] is the score of base+Chosen[:k] (Trace[0] = base alone),
	// so the marginal value of every addition is visible.
	Trace []metric.Scores
}

// AugmentObjective scores a suite for the greedy search; higher is
// better. The default balances the paper's four criteria.
type AugmentObjective func(metric.Scores) float64

// DefaultObjective prefers high coverage and trend, low clustering and
// spread, each term scaled to comparable magnitudes.
func DefaultObjective(s metric.Scores) float64 {
	return 4*s.Coverage + s.Trend/100 - s.Cluster - s.Spread/2
}

// Augment greedily grows a measured base suite with workloads from a
// measured candidate pool: at each of k steps it adds the candidate that
// maximizes the objective of the combined suite. This operationalizes the
// abstract's "systematically and rigorously create a suite of workloads":
// start from a seed suite, offer a pool, and let the metrics choose.
//
// Scores along the trace are computed in isolation (own-bounds
// normalization), which is the right frame for iterating on one suite.
func Augment(base, candidates *perf.SuiteMeasurement, opts metric.Options, k int, objective AugmentObjective) (*Augmentation, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if k < 1 {
		return nil, fmt.Errorf("core: Augment with k=%d", k)
	}
	if k > len(candidates.Workloads) {
		return nil, fmt.Errorf("core: Augment wants %d additions from %d candidates",
			k, len(candidates.Workloads))
	}
	if len(base.Workloads) == 0 {
		return nil, fmt.Errorf("core: Augment with empty base suite")
	}
	if objective == nil {
		objective = DefaultObjective
	}

	current := &perf.SuiteMeasurement{Suite: base.Suite}
	current.Workloads = append(current.Workloads, base.Workloads...)
	baseScore, err := metric.ScoreSuite(context.Background(), current, opts, nil)
	if err != nil {
		return nil, err
	}
	aug := &Augmentation{Trace: []metric.Scores{baseScore}}
	used := make([]bool, len(candidates.Workloads))

	for step := 0; step < k; step++ {
		bestIdx, bestVal := -1, math.Inf(-1)
		var bestScore metric.Scores
		for c := range candidates.Workloads {
			if used[c] {
				continue
			}
			trial := &perf.SuiteMeasurement{Suite: current.Suite}
			trial.Workloads = append(trial.Workloads, current.Workloads...)
			trial.Workloads = append(trial.Workloads, candidates.Workloads[c])
			s, err := metric.ScoreSuite(context.Background(), trial, opts, nil)
			if err != nil {
				return nil, fmt.Errorf("core: Augment trial %q: %w",
					candidates.Workloads[c].Workload, err)
			}
			if v := objective(s); v > bestVal {
				bestVal = v
				bestIdx = c
				bestScore = s
			}
		}
		used[bestIdx] = true
		current.Workloads = append(current.Workloads, candidates.Workloads[bestIdx])
		aug.Chosen = append(aug.Chosen, bestIdx)
		aug.Names = append(aug.Names, candidates.Workloads[bestIdx].Workload)
		aug.Trace = append(aug.Trace, bestScore)
	}
	return aug, nil
}
