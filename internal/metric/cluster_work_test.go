package metric

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"perspector/internal/obs"
	"perspector/internal/par"
	"perspector/internal/perf"
)

// clusterWork runs the ClusterScore sweep over every suite for the
// group's counters, on fresh artifacts, and returns its work counts.
func clusterWork(t *testing.T, sms []*perf.SuiteMeasurement, g perf.Group) map[string]int64 {
	t.Helper()
	rec := obs.NewRecorder()
	ctx := obs.WithRecorder(context.Background(), rec)
	opts := DefaultOptions()
	opts.Counters = g.Counters
	for _, sm := range sms {
		if _, err := (clusterMetric{}).Compute(ctx, NewArtifacts(sm, opts)); err != nil {
			t.Fatal(err)
		}
	}
	return rec.Counters()
}

// stockClusterWork pins the cluster stage's work on the default-config
// stock data per event group. A change that moves a count updates it
// here and states the delta. The silhouette reads n−1 distances per
// point outside a singleton cluster.
var stockClusterWork = map[string]map[string]int64{
	"all": {
		obs.CounterKMeansRestarts:     864,
		obs.CounterKMeansIters:        2102,
		obs.CounterKMeansItersSkipped: 0,
		obs.CounterSilhouettePairs:    66198,
	},
	"llc": {
		obs.CounterKMeansRestarts:     864,
		obs.CounterKMeansIters:        2509,
		obs.CounterKMeansItersSkipped: 4136,
		obs.CounterSilhouettePairs:    66617,
	},
	"tlb": {
		obs.CounterKMeansRestarts:     864,
		obs.CounterKMeansIters:        2070,
		obs.CounterKMeansItersSkipped: 0,
		obs.CounterSilhouettePairs:    67704,
	},
}

// stockClusterItersPlain is the Lloyd iterations the sweep runs per group
// without the cycle fast-forward: each group's pinned iterations run and
// skipped add up to it.
var stockClusterItersPlain = map[string]int64{"all": 2102, "llc": 6645, "tlb": 2070}

// TestClusterWorkCountsStock requires the cluster stage's work counts to
// equal their pinned values at 1, 2 and 4 workers and across reruns: the
// counts are a function of the data alone.
func TestClusterWorkCountsStock(t *testing.T) {
	sms := defaultStockMeasurements(t)
	old := par.SetWorkers(1)
	defer par.SetWorkers(old)
	for _, name := range []string{"all", "llc", "tlb"} {
		g, err := perf.GroupByName(name)
		if err != nil {
			t.Fatal(err)
		}
		want := stockClusterWork[name]
		for _, workers := range []int{1, 2, 4, 1} {
			par.SetWorkers(workers)
			got := clusterWork(t, sms, g)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("group %s, %d workers: work %v, want %v", name, workers, got, want)
			}
		}
		if all := want[obs.CounterKMeansIters] + want[obs.CounterKMeansItersSkipped]; all != stockClusterItersPlain[name] {
			t.Errorf("group %s: %d iterations run or skipped, the plain loop runs %d", name, all, stockClusterItersPlain[name])
		}
	}
}

// TestClusterWorkCountsCancelled stops the sweep after one k: that
// call's recorder gets its restarts, iterations and silhouette pairs,
// and a rerun
// reports exactly the work of a fresh run.
func TestClusterWorkCountsCancelled(t *testing.T) {
	sm := testMeasurement(t)
	old := par.SetWorkers(1)
	defer par.SetWorkers(old)
	opts := DefaultOptions()
	work := func(ctx context.Context, a *Artifacts) (map[string]int64, error) {
		rec := obs.NewRecorder()
		_, err := (clusterMetric{}).Compute(obs.WithRecorder(ctx, rec), a)
		return rec.Counters(), err
	}
	want, err := work(context.Background(), NewArtifacts(sm, opts))
	if err != nil {
		t.Fatal(err)
	}
	if want[obs.CounterKMeansRestarts] < 2*int64(opts.KMeansRestarts) {
		t.Fatalf("fresh run %v: want at least two k-means calls", want)
	}

	a := NewArtifacts(sm, opts)
	ctx := &stopAfter{Context: context.Background()}
	ctx.left.Store(1)
	got, err := work(ctx, a)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("stopped sweep: err %v, want context.Canceled", err)
	}
	if got[obs.CounterKMeansRestarts] != int64(opts.KMeansRestarts) || got[obs.CounterKMeansIters] <= 0 ||
		got[obs.CounterSilhouettePairs] <= 0 || got[obs.CounterSilhouettePairs] >= want[obs.CounterSilhouettePairs] {
		t.Errorf("stopped sweep's work %v: want the restarts, iterations and silhouette pairs of one k", got)
	}
	if got, err := work(context.Background(), a); err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("rerun after the stopped sweep: work %v (err %v), want %v", got, err, want)
	}
}
