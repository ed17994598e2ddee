package metric

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"perspector/internal/dtw"
	"perspector/internal/obs"
	"perspector/internal/par"
	"perspector/internal/perf"
	"perspector/internal/rng"
	"perspector/internal/suites"
)

var defaultStock struct {
	once sync.Once
	sms  []*perf.SuiteMeasurement
	err  error
}

// defaultStockMeasurements measures the six stock suites once at the
// default config — the data `perspector compare` scores.
func defaultStockMeasurements(t *testing.T) []*perf.SuiteMeasurement {
	t.Helper()
	if testing.Short() {
		t.Skip("measures the six stock suites at the default config")
	}
	defaultStock.once.Do(func() {
		defaultStock.sms, defaultStock.err = suites.RunAll(suites.DefaultConfig())
	})
	if defaultStock.err != nil {
		t.Fatal(defaultStock.err)
	}
	return defaultStock.sms
}

// trendWork runs the trend stage's pairwise DTW over every suite for the
// group's counters, on fresh artifacts, and returns its work counts.
func trendWork(t *testing.T, sms []*perf.SuiteMeasurement, g perf.Group) map[string]int64 {
	t.Helper()
	rec := obs.NewRecorder()
	ctx := obs.WithRecorder(context.Background(), rec)
	opts := DefaultOptions()
	opts.Counters = g.Counters
	for _, sm := range sms {
		a := NewArtifacts(sm, opts)
		for _, c := range g.Counters {
			if _, err := a.TrendDists(ctx, c); err != nil {
				t.Fatal(err)
			}
		}
	}
	return rec.Counters()
}

// stockTrendWork pins the trend stage's work on the default-config stock
// data per event group. A change that moves a count updates it here and
// states the delta. Before identical-series dedup and the cost-to-go
// bound the stage ran 21,966 / 6,276 / 7,845 DTWs over 26,401,958 /
// 7,590,643 / 9,753,176 cells (all / llc / tlb).
var stockTrendWork = map[string]map[string]int64{
	"all": {
		obs.CounterDTWPairs:       18207,
		obs.CounterDTWPairsReused: 3759,
		obs.CounterDTWCells:       11959399,
	},
	"llc": {
		obs.CounterDTWPairs:       4450,
		obs.CounterDTWPairsReused: 1826,
		obs.CounterDTWCells:       2796383,
	},
	"tlb": {
		obs.CounterDTWPairs:       6481,
		obs.CounterDTWPairsReused: 1364,
		obs.CounterDTWCells:       4513571,
	},
}

// TestTrendWorkCountsStock requires the trend stage's work counts to
// equal their pinned values at 1, 2 and 4 workers and across reruns: the
// counts are a function of the data alone.
func TestTrendWorkCountsStock(t *testing.T) {
	sms := defaultStockMeasurements(t)
	old := par.SetWorkers(1)
	defer par.SetWorkers(old)
	for _, name := range []string{"all", "llc", "tlb"} {
		g, err := perf.GroupByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 4, 1} {
			par.SetWorkers(workers)
			if got := trendWork(t, sms, g); !reflect.DeepEqual(got, stockTrendWork[name]) {
				t.Errorf("group %s, %d workers: work %v, want %v", name, workers, got, stockTrendWork[name])
			}
		}
	}
}

// stopAfter is a context whose Err reports cancellation from its
// (left+1)-th call on, so a fan-out stops partway through.
type stopAfter struct {
	context.Context
	left atomic.Int64
}

func (c *stopAfter) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestTrendWorkCountsCancelled stops a TrendDists call after two DTWs:
// that call's recorder gets the cells they evaluated and no pair counts,
// and the next call on the same artifacts reports exactly the work of a
// fresh run, with nothing left over from the stopped one.
func TestTrendWorkCountsCancelled(t *testing.T) {
	sm := testMeasurement(t)
	old := par.SetWorkers(1)
	defer par.SetWorkers(old)
	opts := DefaultOptions()
	c := opts.Counters[0]
	work := func(a *Artifacts) map[string]int64 {
		t.Helper()
		rec := obs.NewRecorder()
		if _, err := a.TrendDists(obs.WithRecorder(context.Background(), rec), c); err != nil {
			t.Fatal(err)
		}
		return rec.Counters()
	}
	want := work(NewArtifacts(sm, opts))
	if want[obs.CounterDTWPairs] < 3 {
		t.Fatalf("fresh run %v: want at least 3 DTW pairs", want)
	}

	a := NewArtifacts(sm, opts)
	if _, err := a.NormSeries(context.Background(), c); err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder()
	ctx := &stopAfter{Context: obs.WithRecorder(context.Background(), rec)}
	ctx.left.Store(2)
	if _, err := a.TrendDists(ctx, c); !errors.Is(err, context.Canceled) {
		t.Fatalf("stopped TrendDists: err %v, want context.Canceled", err)
	}
	got := rec.Counters()
	if got[obs.CounterDTWCells] <= 0 || got[obs.CounterDTWCells] >= want[obs.CounterDTWCells] || got[obs.CounterDTWPairs] != 0 {
		t.Errorf("stopped call's work %v: want some but not all of %d cells and no pair counts", got, want[obs.CounterDTWCells])
	}
	if got := work(a); !reflect.DeepEqual(got, want) {
		t.Errorf("rerun after the stopped call: work %v, want %v", got, want)
	}
}

// TestDistanceMatchesFullStock checks the unbanded dtw Distance against
// the full DP bit for bit on every pair of the six stock suites'
// normalized series, for all 14 counters at the default config: the
// data the trend stage scores. A Sakoe–Chiba band as wide as the series
// admits every cell, so DistanceBanded with that band is the full DP.
func TestDistanceMatchesFullStock(t *testing.T) {
	sms := defaultStockMeasurements(t)
	ctx := context.Background()
	dz, ref := dtw.NewDistancer(), dtw.NewDistancer()
	pairs := 0
	for _, sm := range sms {
		a := NewArtifacts(sm, DefaultOptions())
		for _, c := range perf.AllCounters() {
			norm, err := a.NormSeries(ctx, c)
			if err != nil {
				t.Fatal(err)
			}
			for i := range norm {
				for j := i + 1; j < len(norm); j++ {
					got := dz.Distance(norm[i], norm[j])
					want, err := ref.DistanceBanded(norm[i], norm[j], max(len(norm[i]), len(norm[j])))
					if err != nil {
						t.Fatal(err)
					}
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s %v pair (%d,%d): Distance %v != full DP %v", sm.Suite, c, i, j, got, want)
					}
					pairs++
				}
			}
		}
	}
	if pairs != 21966 {
		t.Fatalf("%d stock pairs, want 21966", pairs)
	}
}

// streamSamples draws one workload's delta series the way the benchmark's
// stream client does: n uniform counts in [1, 2000] per counter.
func streamSamples(src *rng.Source, n int) *perf.TimeSeries {
	ts := &perf.TimeSeries{Interval: 1000}
	for c := range ts.Samples {
		ts.Samples[c] = make([]float64, n)
		for t := range ts.Samples[c] {
			ts.Samples[c][t] = float64(1 + src.Intn(2000))
		}
	}
	return ts
}

// TestDistanceMatchesFullStream checks the trend stage's distances
// against the full DP bit for bit on stream traffic: twelve workloads of
// 24 uniform-noise samples, then fifteen 2-sample appends to one
// workload each, normalized on the default grid. Each append rescores
// through the series cache, so the bound inputs it keeps are rebuilt in
// place. One stream appends to workload 0 only, growing it to 54
// samples. Both the cached Series and Distance's per-call inputs must
// give the full DP's bits.
func TestDistanceMatchesFullStream(t *testing.T) {
	ctx := context.Background()
	dz, ref := dtw.NewDistancer(), dtw.NewDistancer()
	pairs := 0
	check := func(a *Artifacts, i int) {
		t.Helper()
		for _, c := range a.Opts.Counters {
			d, err := a.TrendDists(ctx, c)
			if err != nil {
				t.Fatal(err)
			}
			norm := a.normSeries[c].norm
			for j := range norm {
				if j == i {
					continue
				}
				want, err := ref.DistanceBanded(norm[i], norm[j], len(norm[i]))
				if err != nil {
					t.Fatal(err)
				}
				got := dz.Distance(norm[i], norm[j])
				if math.Float64bits(d[i][j]) != math.Float64bits(want) || math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%v pair (%d,%d), %d samples: TrendDists %v, Distance %v, full DP %v",
						c, i, j, len(a.Meas.Workloads[i].Series.Samples[c]), d[i][j], got, want)
				}
				pairs++
			}
		}
	}
	for seed := uint64(1); seed <= 5; seed++ {
		src := rng.New(seed)
		sm := &perf.SuiteMeasurement{Suite: "stream"}
		for w := 0; w < 12; w++ {
			sm.Workloads = append(sm.Workloads, perf.Measurement{
				Workload: fmt.Sprintf("w%02d", w), Series: *streamSamples(src, 24)})
		}
		a := NewArtifacts(sm, DefaultOptions())
		for i := range sm.Workloads {
			check(a, i)
		}
		for chunk := 0; chunk < 15; chunk++ {
			i := 0
			if seed > 1 {
				i = src.Intn(12)
			}
			a.appendSamples(i, perf.Values{}, streamSamples(src, 2))
			check(a, i)
		}
	}
	if n := len(DefaultOptions().Counters); pairs != 5*(12+15)*n*11 {
		t.Fatalf("%d pairs checked, want %d", pairs, 5*(12+15)*n*11)
	}
}

// TestTrendDistsAppendCopyRunsNoDTW appends a copy of an existing
// workload: every new pair reads its distance from the copied series'
// cached row, so the call runs no DTW, and the matrix keeps the bits a
// fresh batch computes.
func TestTrendDistsAppendCopyRunsNoDTW(t *testing.T) {
	sm := testMeasurement(t)
	opts := DefaultOptions()
	c := opts.Counters[0]
	ctx := context.Background()
	a := NewArtifacts(cloneSuite(sm), opts)
	if _, err := a.TrendDists(ctx, c); err != nil {
		t.Fatal(err)
	}
	n := len(sm.Workloads)
	dup := cloneSuite(sm).Workloads[1]
	dup.Workload += "-copy"
	a.appendWorkload(dup)
	rec := obs.NewRecorder()
	got, err := a.TrendDists(obs.WithRecorder(ctx, rec), c)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{obs.CounterDTWPairs: 0, obs.CounterDTWPairsReused: int64(n), obs.CounterDTWCells: 0}
	if work := rec.Counters(); !reflect.DeepEqual(work, want) {
		t.Errorf("append of a copy: work %v, want %v", work, want)
	}

	grown := cloneSuite(sm)
	grown.Workloads = append(grown.Workloads, dup)
	ref, err := NewArtifacts(grown, opts).TrendDists(ctx, c)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref {
		for j := range ref[i] {
			if math.Float64bits(got[i][j]) != math.Float64bits(ref[i][j]) {
				t.Fatalf("d[%d][%d] = %v, batch %v", i, j, got[i][j], ref[i][j])
			}
		}
	}
	if got[1][n] != 0 {
		t.Errorf("copy's distance to its original = %v, want 0", got[1][n])
	}
}
