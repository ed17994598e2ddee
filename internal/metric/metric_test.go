package metric

import (
	"context"
	"errors"
	"strings"
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

// keepSeries copies sm keeping the time series of only the given
// counters, as a trace from a tool that samples only those events.
func keepSeries(sm *perf.SuiteMeasurement, keep []perf.Counter) *perf.SuiteMeasurement {
	out := TotalsOnly(sm)
	for i := range out.Workloads {
		out.Workloads[i].Series.Interval = sm.Workloads[i].Series.Interval
		for _, c := range keep {
			out.Workloads[i].Series.Samples[c] = sm.Workloads[i].Series.Samples[c]
		}
	}
	return out
}

// TestTrendNeedsOnlyTheGroupsSeries: whether the trend metric runs
// depends on the scored group's counters alone. A trace that samples
// only a group's counters scores that group exactly like the full
// trace, and adding the series of a counter outside the group moves no
// bit. Under every counter the same trace lacks series, so Trend is
// skipped and the totals-based scores hold.
func TestTrendNeedsOnlyTheGroupsSeries(t *testing.T) {
	ctx := context.Background()
	full := testMeasurement(t)
	for _, g := range []perf.Group{perf.GroupLLC(), perf.GroupTLB()} {
		opts := DefaultOptions()
		opts.Counters = g.Counters
		want, err := ScoreSuite(ctx, full, opts, nil)
		if err != nil {
			t.Fatal(err)
		}
		if want.Trend == 0 {
			t.Fatalf("%s: full trace scored no trend", g.Name)
		}
		for _, keep := range [][]perf.Counter{g.Counters, append([]perf.Counter{perf.CPUCycles}, g.Counters...)} {
			got, err := ScoreSuite(ctx, keepSeries(full, keep), opts, nil)
			if err != nil {
				t.Fatalf("%s, series of %v: %v", g.Name, keep, err)
			}
			if got != want {
				t.Fatalf("%s, series of %v only:\n  got  %+v\n  want %+v", g.Name, keep, got, want)
			}
		}
	}

	llcOnly := keepSeries(full, perf.GroupLLC().Counters)
	all := scoreWith(t, full, nil)
	got := scoreWith(t, llcOnly, nil)
	if got.Trend != 0 || got.Cluster != all.Cluster || got.Coverage != all.Coverage || got.Spread != all.Spread {
		t.Fatalf("LLC-only trace under every counter:\n  got  %+v\n  want %+v with Trend 0", got, all)
	}
}

func TestMissingSeries(t *testing.T) {
	full := testMeasurement(t)
	if got := MissingSeries(full, perf.AllCounters()); len(got) != 0 {
		t.Fatalf("full trace misses %v", got)
	}
	llcOnly := keepSeries(full, perf.GroupLLC().Counters)
	if got := MissingSeries(llcOnly, perf.GroupLLC().Counters); len(got) != 0 {
		t.Fatalf("LLC-only trace misses %v of the LLC group", got)
	}
	got := MissingSeries(llcOnly, []perf.Counter{perf.LLCLoads, perf.CPUCycles, perf.DTLBLoads})
	if len(got) != 2 || got[0] != perf.CPUCycles || got[1] != perf.DTLBLoads {
		t.Fatalf("MissingSeries = %v, want [cpu-cycles dTLB-loads]", got)
	}
	// A counter that one workload samples is present: scoring runs the
	// trend metric, which refuses the workloads that lack it by name.
	partial := keepSeries(full, perf.GroupLLC().Counters)
	partial.Workloads[1].Series.Samples[perf.LLCLoads] = nil
	if got := MissingSeries(partial, perf.GroupLLC().Counters); len(got) != 0 {
		t.Fatalf("partly sampled counter reported missing: %v", got)
	}
	opts := DefaultOptions()
	opts.Counters = perf.GroupLLC().Counters
	_, err := ScoreSuite(context.Background(), partial, opts, nil)
	if err == nil || !strings.Contains(err.Error(), partial.Workloads[1].Workload) {
		t.Fatalf("partly sampled counter: err = %v, want one naming %q", err, partial.Workloads[1].Workload)
	}
}
