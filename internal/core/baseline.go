package core

import (
	"fmt"

	"perspector/internal/cluster"
	"perspector/internal/metric"
	"perspector/internal/pca"
	"perspector/internal/perf"
)

// This file implements the prior-work methodology of the paper's Table I
// (Phansalkar et al., Panda et al.): normalize → PCA → agglomerative
// hierarchical clustering. Perspector's §II critiques it for lacking a
// cluster-quality metric and ignoring phases; having it in the library
// makes the comparison runnable instead of rhetorical.

// BaselineResult is the outcome of the prior-work redundancy pipeline.
type BaselineResult struct {
	// Labels assigns each workload to one of K flat clusters.
	Labels []int
	// K is the number of clusters the dendrogram was cut into.
	K int
	// Silhouette is the quality of that flat clustering — the number the
	// prior work never computed.
	Silhouette float64
	// RetainedComponents is the PCA dimensionality after the variance
	// truncation.
	RetainedComponents int
	// Representatives proposes one workload index per cluster (the member
	// closest to its cluster's centroid in PCA space) — the subset the
	// prior-work methodology would run.
	Representatives []int
}

// HierarchicalBaseline runs the Table-I prior-work pipeline on a measured
// suite: per-counter min-max normalization, PCA retaining
// opts.PCAVariance, agglomerative clustering with the given linkage, cut
// at k clusters. It returns flat labels, the silhouette of the cut, and a
// representative workload per cluster.
func HierarchicalBaseline(sm *perf.SuiteMeasurement, opts metric.Options, linkage cluster.Linkage, k int) (*BaselineResult, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	n := len(sm.Workloads)
	if k < 1 || k > n {
		return nil, fmt.Errorf("core: baseline cut k=%d out of range for %d workloads", k, n)
	}
	x := metric.NewArtifacts(sm, opts).OwnNorm()
	res, err := pca.Fit(x, opts.PCAVariance)
	if err != nil {
		return nil, fmt.Errorf("core: baseline PCA: %w", err)
	}
	reduced := res.Transformed

	dg, err := cluster.Hierarchical(reduced, linkage)
	if err != nil {
		return nil, fmt.Errorf("core: baseline clustering: %w", err)
	}
	labels, err := dg.Cut(k)
	if err != nil {
		return nil, fmt.Errorf("core: baseline cut: %w", err)
	}
	sil, err := cluster.Silhouette(reduced, labels, k)
	if err != nil {
		return nil, fmt.Errorf("core: baseline silhouette: %w", err)
	}

	// Representatives: the member nearest its cluster centroid.
	d := reduced.Cols()
	centroids := make([][]float64, k)
	counts := make([]int, k)
	for c := range centroids {
		centroids[c] = make([]float64, d)
	}
	for i, c := range labels {
		counts[c]++
		row := reduced.RowView(i)
		for j := 0; j < d; j++ {
			centroids[c][j] += row[j]
		}
	}
	for c := 0; c < k; c++ {
		for j := 0; j < d; j++ {
			centroids[c][j] /= float64(counts[c])
		}
	}
	reps := make([]int, k)
	best := make([]float64, k)
	for c := range best {
		best[c] = -1
	}
	for i, c := range labels {
		row := reduced.RowView(i)
		dist := 0.0
		for j := 0; j < d; j++ {
			diff := row[j] - centroids[c][j]
			dist += diff * diff
		}
		if best[c] < 0 || dist < best[c] {
			best[c] = dist
			reps[c] = i
		}
	}

	return &BaselineResult{
		Labels:             labels,
		K:                  k,
		Silhouette:         sil,
		RetainedComponents: res.K(),
		Representatives:    reps,
	}, nil
}

// PhaseProfile summarizes the phase behaviour of a measured suite: for
// each workload, the number of detected phase boundaries, aggregated over
// the selected counters. This operationalizes the "phase analysis"
// capability (Table I, "PA?") that Perspector adds over prior work.
type PhaseProfile struct {
	// Boundaries[i] is the total number of phase boundaries detected
	// across the selected counters for workload i.
	Boundaries []int
	// MeanBoundaries is the suite-level average.
	MeanBoundaries float64
}

// ProfilePhases runs the phase detector over every workload and counter.
// window/threshold follow DetectPhases; warmup follows opts.WarmupFrac.
func ProfilePhases(sm *perf.SuiteMeasurement, opts metric.Options, window int, threshold float64) (*PhaseProfile, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	prof := &PhaseProfile{Boundaries: make([]int, len(sm.Workloads))}
	total := 0
	for i := range sm.Workloads {
		for _, c := range opts.Counters {
			series := sm.Workloads[i].Series.Series(c)
			if len(series) == 0 {
				return nil, fmt.Errorf("core: ProfilePhases: workload %q has no samples for %v",
					sm.Workloads[i].Workload, c)
			}
			changes, err := DetectPhases(metric.TrimWarmup(series, opts.WarmupFrac), window, threshold)
			if err != nil {
				return nil, err
			}
			prof.Boundaries[i] += len(changes)
		}
		total += prof.Boundaries[i]
	}
	if len(sm.Workloads) > 0 {
		prof.MeanBoundaries = float64(total) / float64(len(sm.Workloads))
	}
	return prof, nil
}
