package core

import (
	"context"
	"math"
	"testing"

	"perspector/internal/mat"
	"perspector/internal/metric"
	"perspector/internal/perf"
	"perspector/internal/rng"
)

// synthSuite builds a SuiteMeasurement directly from counter vectors and
// per-counter series, bypassing the simulator, so metric behaviour can be
// tested against constructed ground truth.
func synthSuite(name string, vectors [][]float64, seriesPer [][]float64) *perf.SuiteMeasurement {
	sm := &perf.SuiteMeasurement{Suite: name}
	for i, v := range vectors {
		var m perf.Measurement
		m.Workload = name + "-" + string(rune('a'+i))
		for c := 0; c < len(v) && c < int(perf.NumCounters); c++ {
			m.Totals[c] = uint64(v[c])
		}
		if seriesPer != nil {
			for c := perf.Counter(0); c < perf.NumCounters; c++ {
				m.Series.Samples[c] = append([]float64(nil), seriesPer[i]...)
			}
		}
		sm.Workloads = append(sm.Workloads, m)
	}
	return sm
}

func flatSeries(level float64, n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = level
	}
	return s
}

func stepSeries(a, b float64, n int) []float64 {
	return stepSeriesAt(a, b, n, n/2)
}

// stepSeriesAt switches from level a to level b at sample `at`. Different
// switch positions give different *shapes*, which is what the CDF/
// percentile normalization preserves (magnitude is deliberately erased).
func stepSeriesAt(a, b float64, n, at int) []float64 {
	s := make([]float64, n)
	for i := range s {
		if i < at {
			s[i] = a
		} else {
			s[i] = b
		}
	}
	return s
}

func fullVec(base float64, src *rng.Source) []float64 {
	v := make([]float64, perf.NumCounters)
	for i := range v {
		v[i] = base + src.Float64()*base
	}
	return v
}

func TestClusterScoreClusteredVsSpread(t *testing.T) {
	src := rng.New(1)
	// Clustered: two tight groups of 6.
	var clustered [][]float64
	for i := 0; i < 6; i++ {
		clustered = append(clustered, fullVec(100, src))
	}
	for i := 0; i < 6; i++ {
		clustered = append(clustered, fullVec(100000, src))
	}
	// Spread: 12 vectors i.i.d. uniform per counter — scattered through
	// the whole parameter space, the paper's notion of "well-spread".
	var spread [][]float64
	for i := 0; i < 12; i++ {
		v := make([]float64, perf.NumCounters)
		for j := range v {
			v[j] = 1e6 * src.Float64()
		}
		spread = append(spread, v)
	}
	opts := metric.DefaultOptions()
	cClustered, err := metric.ClusterScore(synthSuite("c", clustered, nil), opts)
	if err != nil {
		t.Fatal(err)
	}
	cSpread, err := metric.ClusterScore(synthSuite("s", spread, nil), opts)
	if err != nil {
		t.Fatal(err)
	}
	// Eq. 6 averages the silhouette over every k in [2, n−1], so even two
	// perfect blobs score well below 1 (the forced k>2 splits are poor);
	// the discriminating property is the clustered/spread ordering with a
	// clear margin.
	if cClustered <= cSpread+0.05 {
		t.Fatalf("clustered score %v not clearly above spread score %v", cClustered, cSpread)
	}
}

func TestClusterScoreTinySuites(t *testing.T) {
	opts := metric.DefaultOptions()
	// n < 3: 0 by convention.
	s, err := metric.ClusterScore(synthSuite("t", [][]float64{{1, 2}, {3, 4}}, nil), opts)
	if err != nil {
		t.Fatal(err)
	}
	if s != 0 {
		t.Fatalf("n=2 score = %v", s)
	}
	// n = 3: single k=2 silhouette, must not error.
	if _, err := metric.ClusterScore(synthSuite("t3", [][]float64{{1, 1}, {2, 2}, {9, 9}}, nil), opts); err != nil {
		t.Fatal(err)
	}
}

func TestClusterScoreDeterministic(t *testing.T) {
	src := rng.New(2)
	var vecs [][]float64
	for i := 0; i < 10; i++ {
		vecs = append(vecs, fullVec(1000, src))
	}
	sm := synthSuite("d", vecs, nil)
	opts := metric.DefaultOptions()
	a, err := metric.ClusterScore(sm, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := metric.ClusterScore(sm, opts)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("non-deterministic: %v vs %v", a, b)
	}
}

func TestTrendScorePhasedVsFlat(t *testing.T) {
	// Suite A: workloads with diverse step series. Suite B: all flat.
	phased := synthSuite("p", [][]float64{{1}, {1}, {1}, {1}},
		[][]float64{
			stepSeriesAt(10, 1000, 60, 15),
			stepSeriesAt(1000, 10, 60, 45),
			flatSeries(500, 60),
			stepSeriesAt(5, 50, 60, 30),
		})
	flat := synthSuite("f", [][]float64{{1}, {1}, {1}, {1}},
		[][]float64{
			flatSeries(100, 60),
			flatSeries(200, 60),
			flatSeries(300, 60),
			flatSeries(400, 60),
		})
	opts := metric.DefaultOptions()
	tp, err := metric.TrendScore(phased, opts)
	if err != nil {
		t.Fatal(err)
	}
	tf, err := metric.TrendScore(flat, opts)
	if err != nil {
		t.Fatal(err)
	}
	if tp <= tf {
		t.Fatalf("phased trend %v not above flat trend %v", tp, tf)
	}
}

func TestTrendScoreMagnitudeInvariant(t *testing.T) {
	// Scaling one workload's series by 10^6 must not change the score —
	// the whole point of the Fig. 1 normalization.
	mk := func(scale float64) *perf.SuiteMeasurement {
		s1 := stepSeries(10, 100, 50)
		for i := range s1 {
			s1[i] *= scale
		}
		return synthSuite("m", [][]float64{{1}, {1}},
			[][]float64{s1, stepSeries(100, 10, 50)})
	}
	opts := metric.DefaultOptions()
	a, err := metric.TrendScore(mk(1), opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := metric.TrendScore(mk(1e6), opts)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a-b) > 1e-6*(1+a) {
		t.Fatalf("trend not magnitude invariant: %v vs %v", a, b)
	}
}

func TestTrendScoreBandedOption(t *testing.T) {
	phased := synthSuite("p", [][]float64{{1}, {1}, {1}},
		[][]float64{
			stepSeriesAt(10, 1000, 60, 15),
			stepSeriesAt(1000, 10, 60, 45),
			flatSeries(500, 60),
		})
	full := metric.DefaultOptions()
	banded := metric.DefaultOptions()
	banded.DTWBand = 10
	tf, err := metric.TrendScore(phased, full)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := metric.TrendScore(phased, banded)
	if err != nil {
		t.Fatal(err)
	}
	// A band restricts warping: banded pairwise distances dominate full.
	if tb < tf-1e-9 {
		t.Fatalf("banded trend %v below full %v", tb, tf)
	}
	// Too-narrow bands against unequal grid lengths cannot occur (the
	// grid fixes lengths), but a zero band must equal the full DP.
	zero := metric.DefaultOptions()
	zero.DTWBand = 0
	tz, err := metric.TrendScore(phased, zero)
	if err != nil {
		t.Fatal(err)
	}
	if tz != tf {
		t.Fatalf("band 0 trend %v != full %v", tz, tf)
	}
}

func TestTrendScoreValueCDFOption(t *testing.T) {
	sm := synthSuite("v", [][]float64{{1}, {1}},
		[][]float64{
			stepSeriesAt(10, 1000, 60, 20),
			flatSeries(500, 60),
		})
	event := metric.DefaultOptions()
	value := metric.DefaultOptions()
	value.TrendValueCDF = true
	te, err := metric.TrendScore(sm, event)
	if err != nil {
		t.Fatal(err)
	}
	tv, err := metric.TrendScore(sm, value)
	if err != nil {
		t.Fatal(err)
	}
	if te == tv {
		t.Fatal("value-CDF option had no effect")
	}
}

func TestTrendScoreSingleWorkload(t *testing.T) {
	sm := synthSuite("one", [][]float64{{1}}, [][]float64{flatSeries(1, 10)})
	s, err := metric.TrendScore(sm, metric.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if s != 0 {
		t.Fatalf("single-workload trend = %v", s)
	}
}

func TestTrendScoreMissingSeries(t *testing.T) {
	sm := synthSuite("bad", [][]float64{{1}, {2}}, nil)
	if _, err := metric.TrendScore(sm, metric.DefaultOptions()); err == nil {
		t.Fatal("missing series accepted")
	}
}

func TestJointNormalizePreservesRelativeRange(t *testing.T) {
	// Suite A spans [0,10k], suite B spans [0,100k] in counter 0: after
	// joint normalization A's max is 0.1, B's max is 1 (§III-C1).
	a := mat.FromRows([][]float64{{0}, {10000}})
	b := mat.FromRows([][]float64{{0}, {100000}})
	normed, err := metric.JointNormalize([]*mat.Matrix{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if got := normed[0].At(1, 0); math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("A max = %v, want 0.1", got)
	}
	if got := normed[1].At(1, 0); math.Abs(got-1) > 1e-12 {
		t.Fatalf("B max = %v, want 1", got)
	}
}

func TestJointNormalizeErrors(t *testing.T) {
	if _, err := metric.JointNormalize(nil); err == nil {
		t.Fatal("empty input accepted")
	}
	a := mat.New(1, 2)
	b := mat.New(1, 3)
	if _, err := metric.JointNormalize([]*mat.Matrix{a, b}); err == nil {
		t.Fatal("column mismatch accepted")
	}
	if _, err := metric.JointNormalize([]*mat.Matrix{mat.New(0, 2)}); err == nil {
		t.Fatal("empty matrix accepted")
	}
}

func TestCoverageScoreWideVsNarrow(t *testing.T) {
	src := rng.New(3)
	wide := mat.New(12, 4)
	narrow := mat.New(12, 4)
	for i := 0; i < 12; i++ {
		for j := 0; j < 4; j++ {
			wide.Set(i, j, src.Float64())            // spans [0,1]
			narrow.Set(i, j, 0.5+0.01*src.Float64()) // tiny blob
		}
	}
	opts := metric.DefaultOptions()
	cw, err := metric.CoverageScore(wide, opts)
	if err != nil {
		t.Fatal(err)
	}
	cn, err := metric.CoverageScore(narrow, opts)
	if err != nil {
		t.Fatal(err)
	}
	if cw <= cn {
		t.Fatalf("wide coverage %v not above narrow %v", cw, cn)
	}
}

func TestSpreadScoreUniformVsClumped(t *testing.T) {
	src := rng.New(4)
	m := 14
	uniform := mat.New(8, m)
	clumped := mat.New(8, m)
	for i := 0; i < 8; i++ {
		for j := 0; j < m; j++ {
			uniform.Set(i, j, src.Float64())
			clumped.Set(i, j, 0.48+0.04*src.Float64())
		}
	}
	opts := metric.DefaultOptions()
	su, err := metric.SpreadScore(uniform, opts)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := metric.SpreadScore(clumped, opts)
	if err != nil {
		t.Fatal(err)
	}
	if su >= sc {
		t.Fatalf("uniform spread %v not below clumped %v", su, sc)
	}
	if su > 0.5 {
		t.Fatalf("uniform rows should KS below 0.5, got %v", su)
	}
}

func TestScoreSuitesEndToEnd(t *testing.T) {
	src := rng.New(5)
	mkSeries := func(kind int) [][]float64 {
		var out [][]float64
		for i := 0; i < 6; i++ {
			if kind == 0 {
				out = append(out, flatSeries(100+float64(i), 40))
			} else {
				out = append(out, stepSeriesAt(float64(10*(i+1)), float64(1000*(i+1)), 40, 5+6*i))
			}
		}
		return out
	}
	var flatVecs, phasedVecs [][]float64
	for i := 0; i < 6; i++ {
		flatVecs = append(flatVecs, fullVec(1000, src))
		phasedVecs = append(phasedVecs, fullVec(100*math.Pow(3, float64(i)), src))
	}
	a := synthSuite("flat", flatVecs, mkSeries(0))
	b := synthSuite("phased", phasedVecs, mkSeries(1))
	scores, err := metric.ScoreSuites(context.Background(), []*perf.SuiteMeasurement{a, b}, metric.DefaultOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != 2 || scores[0].Suite != "flat" || scores[1].Suite != "phased" {
		t.Fatalf("scores = %+v", scores)
	}
	if scores[1].Trend <= scores[0].Trend {
		t.Fatal("phased suite should out-trend flat suite")
	}
	for _, s := range scores {
		if s.Spread < 0 || s.Spread > 1 {
			t.Fatalf("spread out of [0,1]: %+v", s)
		}
		if s.Cluster < -1 || s.Cluster > 1 {
			t.Fatalf("cluster out of [-1,1]: %+v", s)
		}
		if s.Coverage < 0 {
			t.Fatalf("negative coverage: %+v", s)
		}
	}
}

func TestScoreSuiteMatchesScoreSuites(t *testing.T) {
	src := rng.New(6)
	var vecs [][]float64
	var series [][]float64
	for i := 0; i < 5; i++ {
		vecs = append(vecs, fullVec(500, src))
		series = append(series, stepSeries(float64(i+1), float64(100*(i+1)), 30))
	}
	sm := synthSuite("solo", vecs, series)
	one, err := metric.ScoreSuite(context.Background(), sm, metric.DefaultOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	many, err := metric.ScoreSuites(context.Background(), []*perf.SuiteMeasurement{sm}, metric.DefaultOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if one != many[0] {
		t.Fatalf("ScoreSuite %+v != ScoreSuites[0] %+v", one, many[0])
	}
}

func TestOptionsValidation(t *testing.T) {
	sm := synthSuite("v", [][]float64{{1}, {2}, {3}, {4}}, nil)
	bad := metric.DefaultOptions()
	bad.Counters = nil
	if _, err := metric.ClusterScore(sm, bad); err == nil {
		t.Fatal("no counters accepted")
	}
	bad = metric.DefaultOptions()
	bad.DTWGrid = 0
	if _, err := metric.TrendScore(sm, bad); err == nil {
		t.Fatal("zero grid accepted")
	}
	bad = metric.DefaultOptions()
	bad.PCAVariance = 0
	if _, err := metric.CoverageScore(mat.New(2, 2), bad); err == nil {
		t.Fatal("zero variance accepted")
	}
	bad = metric.DefaultOptions()
	bad.KMeansRestarts = 0
	if _, err := metric.ClusterScore(sm, bad); err == nil {
		t.Fatal("zero restarts accepted")
	}
}

func TestFocusedScoringChangesScores(t *testing.T) {
	// A suite that forms two tight blobs in LLC space but is uniformly
	// spread in TLB space must score worse (higher ClusterScore) under
	// the LLC event group than under the TLB group — the §IV-B effect.
	src := rng.New(7)
	var vecs [][]float64
	for i := 0; i < 10; i++ {
		v := make([]float64, perf.NumCounters)
		for j := range v {
			v[j] = 1000 + 500*src.Float64()
		}
		// TLB counters: spread smoothly across the range.
		for _, c := range perf.GroupTLB().Counters {
			v[c] = 1000 * float64(i+1) * (1 + 0.2*src.Float64())
		}
		// LLC counters: two tight blobs.
		blob := 1000.0
		if i >= 5 {
			blob = 1e6
		}
		for _, c := range perf.GroupLLC().Counters {
			v[c] = blob * (1 + 0.01*src.Float64())
		}
		vecs = append(vecs, v)
	}
	sm := synthSuite("focus", vecs, nil)
	llcOpts := metric.DefaultOptions()
	llcOpts.Counters = perf.GroupLLC().Counters
	tlbOpts := metric.DefaultOptions()
	tlbOpts.Counters = perf.GroupTLB().Counters
	cLLC, err := metric.ClusterScore(sm, llcOpts)
	if err != nil {
		t.Fatal(err)
	}
	cTLB, err := metric.ClusterScore(sm, tlbOpts)
	if err != nil {
		t.Fatal(err)
	}
	if cLLC <= cTLB {
		t.Fatalf("LLC-focused cluster %v should exceed TLB-focused %v (blobs live in LLC space)", cLLC, cTLB)
	}
}
