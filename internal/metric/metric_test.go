package metric

import (
	"context"
	"errors"
	"testing"

	"perspector/internal/stage"
	"perspector/internal/suites"

	"perspector/internal/perf"
)

// testMeasurement simulates a trimmed nbench: small enough for table
// tests, large enough that every metric produces a nonzero score.
func testMeasurement(t *testing.T) *perf.SuiteMeasurement {
	t.Helper()
	cfg := suites.DefaultConfig()
	cfg.Instructions = 20_000
	cfg.Samples = 10
	s, err := suites.ByName("nbench", cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Specs = s.Specs[:4]
	m, err := suites.RunContext(context.Background(), s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func scoreWith(t *testing.T, m *perf.SuiteMeasurement, reg *Registry) Scores {
	t.Helper()
	s, err := ScoreSuite(context.Background(), m, DefaultOptions(), reg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestCapabilitySkipsTrendWithoutSeries: a totals-only measurement (no
// time series) must not fail scoring — the trend metric's needs-series
// capability check skips it, and the three totals-based scores are
// bit-identical to the full-series run.
func TestCapabilitySkipsTrendWithoutSeries(t *testing.T) {
	m := testMeasurement(t)
	full := scoreWith(t, m, nil)
	if full.Trend == 0 {
		t.Fatal("full measurement produced no trend score")
	}
	totals := scoreWith(t, TotalsOnly(m), nil)
	if totals.Trend != 0 {
		t.Fatalf("totals-only trend = %v, want 0 (skipped)", totals.Trend)
	}
	if totals.Cluster != full.Cluster || totals.Coverage != full.Coverage || totals.Spread != full.Spread {
		t.Fatalf("totals-based scores changed:\n  full   %+v\n  totals %+v", full, totals)
	}
}

// TestRegistryWithout runs the engine under every single-metric removal
// and checks exactly that score is absent.
func TestRegistryWithout(t *testing.T) {
	m := testMeasurement(t)
	full := scoreWith(t, m, nil)
	cases := []struct {
		remove string
		pick   func(Scores) float64
	}{
		{MetricCluster, func(s Scores) float64 { return s.Cluster }},
		{MetricTrend, func(s Scores) float64 { return s.Trend }},
		{MetricCoverage, func(s Scores) float64 { return s.Coverage }},
		{MetricSpread, func(s Scores) float64 { return s.Spread }},
	}
	for _, tc := range cases {
		t.Run(tc.remove, func(t *testing.T) {
			got := scoreWith(t, m, DefaultRegistry().Without(tc.remove))
			if tc.pick(got) != 0 {
				t.Fatalf("removed metric %s still scored %v", tc.remove, tc.pick(got))
			}
			for _, other := range cases {
				if other.remove == tc.remove {
					continue
				}
				if other.pick(got) != other.pick(full) {
					t.Fatalf("removing %s changed %s: %v != %v",
						tc.remove, other.remove, other.pick(got), other.pick(full))
				}
			}
		})
	}
}

func TestNewRegistryRejectsDuplicates(t *testing.T) {
	ms := DefaultRegistry().Metrics()
	if _, err := NewRegistry(ms[0], ms[0]); err == nil {
		t.Fatal("duplicate metric name accepted")
	}
}

func TestScoresSetUnknownName(t *testing.T) {
	var s Scores
	if err := s.set("bogus", 1); err == nil {
		t.Fatal("unknown score name accepted")
	}
}

// TestScoreSuitesCancelled: a cancelled context must surface as a
// stage-tagged cancellation, not a success or an untyped error.
func TestScoreSuitesCancelled(t *testing.T) {
	m := testMeasurement(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := ScoreSuites(ctx, []*perf.SuiteMeasurement{m, m}, DefaultOptions(), nil)
	if err == nil {
		t.Fatal("cancelled scoring succeeded")
	}
	if !stage.Canceled(err) {
		t.Fatalf("error not recognized as cancellation: %v", err)
	}
	var se *stage.Error
	if !errors.As(err, &se) {
		t.Fatalf("error carries no stage tag: %v", err)
	}
	// After cancellation the engine must still work on a fresh context —
	// no poisoned shared state, no stuck workers.
	if _, err := ScoreSuite(context.Background(), m, DefaultOptions(), nil); err != nil {
		t.Fatalf("engine unusable after cancelled run: %v", err)
	}
}

// TestTotalsOnlyRegistryWithTrendAlone: if the registry holds only the
// trend metric and the input has no series, every slot stays zero but
// the run still succeeds.
func TestTotalsOnlyRegistryWithTrendAlone(t *testing.T) {
	m := TotalsOnly(testMeasurement(t))
	reg := DefaultRegistry().Without(MetricCluster, MetricCoverage, MetricSpread)
	got := scoreWith(t, m, reg)
	want := Scores{Suite: m.Suite}
	if got != want {
		t.Fatalf("got %+v, want zero scores", got)
	}
}

func TestTrimWarmup(t *testing.T) {
	s := []float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	for _, c := range []struct {
		s    []float64
		frac float64
		want int // samples kept
	}{
		{s, 0, 10},
		{s, 0.1, 9},
		{s, 0.25, 8}, // int(2.5) drops 2
		{s, 0.9, 1},
		{s, 1, 1}, // the last sample always stays
		{s[:1], 0.9, 1},
	} {
		got := TrimWarmup(c.s, c.frac)
		if len(got) != c.want || got[len(got)-1] != c.s[len(c.s)-1] {
			t.Errorf("TrimWarmup(%d samples, %g) kept %v, want the last %d", len(c.s), c.frac, got, c.want)
		}
	}
}
