// Package figdata computes the data behind every figure of the paper as
// structured values, decoupled from rendering. cmd/figures formats these
// for the terminal; tests assert the figures' defining properties without
// scraping text output.
package figdata

import (
	"fmt"

	"perspector/internal/cluster"
	"perspector/internal/dtw"
	"perspector/internal/mat"
	"perspector/internal/metric"
	"perspector/internal/pca"
	"perspector/internal/perf"
	"perspector/internal/rng"
)

// Fig1Series is one workload's raw and normalized LLC-load-miss trend
// (the paper's Fig. 1).
type Fig1Series struct {
	Workload   string
	RawMin     float64
	RawMax     float64
	RawLen     int
	Normalized []float64 // event-CDF over time percentiles, in [0,100]
}

// Fig1Workloads are the five SGXGauge workloads the paper plots.
var Fig1Workloads = []string{
	"sgxgauge.pagerank", "sgxgauge.hashjoin", "sgxgauge.bfs",
	"sgxgauge.btree", "sgxgauge.openssl",
}

// Fig1 extracts and normalizes the LLC-load-miss series of the Fig. 1
// workloads from an SGXGauge measurement. grid controls the percentile
// resolution of the normalized curve; warmupFrac samples are dropped
// first (see DESIGN.md decision log).
func Fig1(sgx *perf.SuiteMeasurement, grid int, warmupFrac float64) ([]Fig1Series, error) {
	if grid < 1 {
		return nil, fmt.Errorf("figdata: Fig1 grid %d < 1", grid)
	}
	want := map[string]bool{}
	for _, w := range Fig1Workloads {
		want[w] = true
	}
	var out []Fig1Series
	for i := range sgx.Workloads {
		m := &sgx.Workloads[i]
		if !want[m.Workload] {
			continue
		}
		raw := m.Series.Series(perf.LLCLoadMisses)
		if len(raw) == 0 {
			return nil, fmt.Errorf("figdata: Fig1 workload %q has no samples", m.Workload)
		}
		lo, hi := raw[0], raw[0]
		for _, v := range raw {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		drop := int(warmupFrac * float64(len(raw)))
		if drop >= len(raw) {
			drop = len(raw) - 1
		}
		out = append(out, Fig1Series{
			Workload:   m.Workload,
			RawMin:     lo,
			RawMax:     hi,
			RawLen:     len(raw),
			Normalized: dtw.NormalizeSeries(raw[drop:], grid),
		})
	}
	if len(out) != len(Fig1Workloads) {
		return nil, fmt.Errorf("figdata: Fig1 found %d of %d workloads", len(out), len(Fig1Workloads))
	}
	return out, nil
}

// Fig2Result is the coverage-vs-spread demonstration of the paper's
// Fig. 2: suite WA has outlier-inflated coverage and poor spread; suite
// WB fills the space uniformly.
type Fig2Result struct {
	CoverageA, CoverageB float64
	SpreadA, SpreadB     float64
}

// Fig2 builds the two synthetic point sets and scores them.
func Fig2(seed uint64, opts metric.Options) (*Fig2Result, error) {
	src := rng.New(seed)
	const dims = 8
	wa := mat.New(16, dims)
	for i := 0; i < 14; i++ {
		for j := 0; j < dims; j++ {
			wa.Set(i, j, 0.45+0.1*src.Float64())
		}
	}
	for j := 0; j < dims; j++ {
		wa.Set(14, j, 0)
		wa.Set(15, j, 1)
	}
	wb := mat.New(16, dims)
	for i := 0; i < 16; i++ {
		for j := 0; j < dims; j++ {
			wb.Set(i, j, src.Float64())
		}
	}
	var res Fig2Result
	var err error
	if res.CoverageA, err = metric.CoverageScore(wa, opts); err != nil {
		return nil, err
	}
	if res.CoverageB, err = metric.CoverageScore(wb, opts); err != nil {
		return nil, err
	}
	if res.SpreadA, err = metric.SpreadScore(wa, opts); err != nil {
		return nil, err
	}
	if res.SpreadB, err = metric.SpreadScore(wb, opts); err != nil {
		return nil, err
	}
	return &res, nil
}

// Fig4Point is one workload in the 2-PC projection with its k-means
// cluster label (the paper's Fig. 4).
type Fig4Point struct {
	Workload string
	PC1, PC2 float64
	Cluster  int
}

// Fig4 projects a suite's normalized counter matrix onto its first two
// principal components and labels the workloads with k-means (k=2).
func Fig4(sm *perf.SuiteMeasurement, seed uint64) ([]Fig4Point, error) {
	x := mat.FromRows(sm.Matrix(perf.AllCounters()))
	normed, err := metric.JointNormalize([]*mat.Matrix{x})
	if err != nil {
		return nil, err
	}
	res, err := pca.Fit(normed[0], 1.0)
	if err != nil {
		return nil, err
	}
	km, err := cluster.KMeans(normed[0], 2, cluster.DefaultKMeansOptions(seed))
	if err != nil {
		return nil, err
	}
	out := make([]Fig4Point, len(sm.Workloads))
	for i := range sm.Workloads {
		p := Fig4Point{Workload: sm.Workloads[i].Workload, Cluster: km.Labels[i]}
		p.PC1 = res.Transformed.At(i, 0)
		if res.K() > 1 {
			p.PC2 = res.Transformed.At(i, 1)
		}
		out[i] = p
	}
	return out, nil
}

// Fig5Series is one workload's normalized LLC-miss trend curve (the
// paper's Fig. 5).
type Fig5Series struct {
	Workload string
	Curve    []float64 // in [0,100] over grid+1 time percentiles
}

// Fig5 normalizes the LLC-load-miss trends of the first n workloads of a
// suite.
func Fig5(sm *perf.SuiteMeasurement, n, grid int, warmupFrac float64) ([]Fig5Series, error) {
	if n < 1 || grid < 1 {
		return nil, fmt.Errorf("figdata: Fig5 n=%d grid=%d invalid", n, grid)
	}
	if n > len(sm.Workloads) {
		n = len(sm.Workloads)
	}
	out := make([]Fig5Series, n)
	for i := 0; i < n; i++ {
		raw := sm.Workloads[i].Series.Series(perf.LLCLoadMisses)
		if len(raw) == 0 {
			return nil, fmt.Errorf("figdata: Fig5 workload %q has no samples", sm.Workloads[i].Workload)
		}
		drop := int(warmupFrac * float64(len(raw)))
		if drop >= len(raw) {
			drop = len(raw) - 1
		}
		out[i] = Fig5Series{
			Workload: sm.Workloads[i].Workload,
			Curve:    dtw.NormalizeSeries(raw[drop:], grid),
		}
	}
	return out, nil
}

// Fig6Result is the joint-PCA projection of two suites (the paper's
// Fig. 6: LMbench vs SPEC'17 coverage).
type Fig6Result struct {
	// A and B are the projected points of the two suites on the plane of
	// the union's first two principal components.
	A, B []Fig4Point
	// SpanA1, SpanA2, SpanB1, SpanB2 are the PC1/PC2 extents per suite.
	SpanA1, SpanA2, SpanB1, SpanB2 float64
}

// Fig6 jointly normalizes two measured suites, fits one PCA on the union
// and projects both.
func Fig6(a, b *perf.SuiteMeasurement) (*Fig6Result, error) {
	xa := mat.FromRows(a.Matrix(perf.AllCounters()))
	xb := mat.FromRows(b.Matrix(perf.AllCounters()))
	normed, err := metric.JointNormalize([]*mat.Matrix{xa, xb})
	if err != nil {
		return nil, err
	}
	union := normed[0].VStack(normed[1])
	res, err := pca.Fit(union, 1.0)
	if err != nil {
		return nil, err
	}
	projA, err := res.Project(normed[0])
	if err != nil {
		return nil, err
	}
	projB, err := res.Project(normed[1])
	if err != nil {
		return nil, err
	}
	points := func(sm *perf.SuiteMeasurement, proj *mat.Matrix) []Fig4Point {
		out := make([]Fig4Point, len(sm.Workloads))
		for i := range sm.Workloads {
			p := Fig4Point{Workload: sm.Workloads[i].Workload, PC1: proj.At(i, 0)}
			if res.K() > 1 {
				p.PC2 = proj.At(i, 1)
			}
			out[i] = p
		}
		return out
	}
	r := &Fig6Result{A: points(a, projA), B: points(b, projB)}
	r.SpanA1, r.SpanA2 = spans(r.A)
	r.SpanB1, r.SpanB2 = spans(r.B)
	return r, nil
}

func spans(ps []Fig4Point) (s1, s2 float64) {
	if len(ps) == 0 {
		return 0, 0
	}
	min1, max1 := ps[0].PC1, ps[0].PC1
	min2, max2 := ps[0].PC2, ps[0].PC2
	for _, p := range ps[1:] {
		if p.PC1 < min1 {
			min1 = p.PC1
		}
		if p.PC1 > max1 {
			max1 = p.PC1
		}
		if p.PC2 < min2 {
			min2 = p.PC2
		}
		if p.PC2 > max2 {
			max2 = p.PC2
		}
	}
	return max1 - min1, max2 - min2
}
