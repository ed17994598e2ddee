package core

import (
	"context"
	"fmt"
	"math"

	"perspector/internal/lhs"
	"perspector/internal/mat"
	"perspector/internal/metric"
	"perspector/internal/perf"
	"perspector/internal/stat"
)

// SubsetResult reports a generated workload subset and how faithfully it
// reproduces the full suite's Perspector scores (§IV-C).
type SubsetResult struct {
	// Indices are the selected workload positions within the suite,
	// ascending.
	Indices []int
	// Names are the corresponding workload names.
	Names []string
	// Full and Subset are the four scores of the complete suite and of
	// the selected subset, computed under joint normalization so the
	// coverage/spread comparison is apples-to-apples.
	Full, Subset metric.Scores
	// Deviation is the mean relative deviation across the four scores,
	// the "6.53 %" quantity the paper reports for SPEC'17 43→8.
	Deviation float64
}

// SubsetOptions configures subset generation.
type SubsetOptions struct {
	// Size is the number of workloads to select.
	Size int
	// Seed drives the LHS design.
	Seed uint64
	// MaximinTries is the number of LHS designs drawn; the maximin-distance
	// one is kept. 1 means plain LHS.
	MaximinTries int
}

// DefaultSubsetOptions returns the §IV-C configuration (SPEC'17 43→8).
// Subset quality is seed-sensitive (EXPERIMENTS.md reports the spread);
// the default seed is a representative good draw.
func DefaultSubsetOptions(size int) SubsetOptions {
	return SubsetOptions{Size: size, Seed: 6, MaximinTries: 32}
}

// Subset selects a representative subset of the suite's workloads via
// Latin Hypercube Sampling over the normalized counter space: the LHS
// design places Size well-spread points in the m-dimensional unit cube,
// and each point is matched to its nearest workload (without
// replacement). It then scores the full suite and the subset and reports
// the deviation.
func Subset(sm *perf.SuiteMeasurement, opts metric.Options, so SubsetOptions) (*SubsetResult, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	n := len(sm.Workloads)
	if so.Size < 2 {
		return nil, fmt.Errorf("core: subset size %d too small (need >= 2)", so.Size)
	}
	if so.Size >= n {
		return nil, fmt.Errorf("core: subset size %d not below suite size %d", so.Size, n)
	}
	if so.MaximinTries < 1 {
		return nil, fmt.Errorf("core: MaximinTries %d < 1", so.MaximinTries)
	}

	// Candidates live in rank-normalized space: each dimension is one PMU
	// counter (the LHS dimensions of §IV-C), and each workload's value is
	// replaced by its empirical-CDF rank within the suite. LHS strata are
	// equal-probability regions, so rank space is the space in which "one
	// point per region" translates to "one workload per quantile band";
	// min-max space would instead pull every LHS point toward the handful
	// of extreme-valued workloads and select near-duplicates.
	candidates := rankNormalizeColumns(metric.NewArtifacts(sm, opts).Raw())
	design, err := lhs.SampleMaximin(so.Size, candidates.Cols(), so.Seed, so.MaximinTries)
	if err != nil {
		return nil, fmt.Errorf("core: subset LHS: %w", err)
	}
	idx, err := lhs.NearestRows(design, candidates)
	if err != nil {
		return nil, fmt.Errorf("core: subset matching: %w", err)
	}

	sub := &perf.SuiteMeasurement{Suite: sm.Suite + "-subset"}
	names := make([]string, len(idx))
	for k, i := range idx {
		sub.Workloads = append(sub.Workloads, sm.Workloads[i])
		names[k] = sm.Workloads[i].Workload
	}

	// Joint normalization across full suite and subset keeps the
	// coverage/spread scores comparable.
	scores, err := metric.ScoreSuites(context.Background(), []*perf.SuiteMeasurement{sm, sub}, opts, nil)
	if err != nil {
		return nil, err
	}
	res := &SubsetResult{
		Indices: idx,
		Names:   names,
		Full:    scores[0],
		Subset:  scores[1],
	}
	res.Deviation = scoreDeviation(res.Full, res.Subset)
	return res, nil
}

// rankNormalizeColumns replaces each column's values by their empirical
// CDF ranks in (0,1]: the k-th smallest of n values maps to k/n. Ties map
// to the same (highest) rank.
func rankNormalizeColumns(x *mat.Matrix) *mat.Matrix {
	n := x.Rows()
	out := mat.New(n, x.Cols())
	for j := 0; j < x.Cols(); j++ {
		col := x.Col(j)
		ecdf := stat.NewECDF(col)
		for i := 0; i < n; i++ {
			out.Set(i, j, ecdf.At(col[i]))
		}
	}
	return out
}

// scoreDeviation is the mean relative deviation across the four scores.
// Scores whose full-suite value is ~0 are compared absolutely to avoid
// division blow-ups.
func scoreDeviation(full, sub metric.Scores) float64 {
	pairs := [][2]float64{
		{full.Cluster, sub.Cluster},
		{full.Trend, sub.Trend},
		{full.Coverage, sub.Coverage},
		{full.Spread, sub.Spread},
	}
	sum := 0.0
	for _, p := range pairs {
		f, s := p[0], p[1]
		if math.Abs(f) < 1e-9 {
			sum += math.Abs(s - f)
			continue
		}
		sum += math.Abs(s-f) / math.Abs(f)
	}
	return sum / float64(len(pairs))
}
