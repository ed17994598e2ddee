package suites

import (
	"context"
	"reflect"
	"testing"

	"perspector/internal/obs"
	"perspector/internal/par"
)

// stockSimWork pins the instructions the six stock suites emit by kind
// at the default config. A change that moves a count updates it here and
// states the delta.
var stockSimWork = map[string]int64{
	obs.CounterSimInstrMem:     22249844,
	obs.CounterSimInstrBranch:  5594344,
	obs.CounterSimInstrSyscall: 2170528,
}

// TestSimWorkCountsStock requires the simulator's work counts for a
// default-config measurement of the six stock suites to equal their
// pinned values at 1, 2 and 4 workers and across reruns: the counts are
// a function of the workloads alone.
func TestSimWorkCountsStock(t *testing.T) {
	if testing.Short() {
		t.Skip("measures the six stock suites at the default config")
	}
	old := par.SetWorkers(1)
	defer par.SetWorkers(old)
	for _, workers := range []int{1, 2, 4, 1} {
		par.SetWorkers(workers)
		rec := obs.NewRecorder()
		if _, err := RunAllContext(obs.WithRecorder(context.Background(), rec), DefaultConfig()); err != nil {
			t.Fatal(err)
		}
		if got := rec.Counters(); !reflect.DeepEqual(got, stockSimWork) {
			t.Errorf("%d workers: work %v, want %v", workers, got, stockSimWork)
		}
	}
}
