package suites

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"perspector/internal/obs"
	"perspector/internal/perf"
	"perspector/internal/uarch"
	"perspector/internal/workload"
)

func TestRunMulticoreBasics(t *testing.T) {
	cfg := testConfig()
	s := stock(t, "nbench", cfg)
	sm, err := RunMulticore(s, cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(sm.Workloads) != len(s.Specs) {
		t.Fatalf("workloads = %d", len(sm.Workloads))
	}
	solo, err := Run(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range sm.Workloads {
		// 2 threads execute ~2x the instructions of the solo run.
		multi := sm.Workloads[i].Totals.Get(perf.DTLBLoads)
		one := solo.Workloads[i].Totals.Get(perf.DTLBLoads)
		if multi < one || multi > 3*one {
			t.Fatalf("%s: 2-thread loads %d vs solo %d out of plausible range",
				sm.Workloads[i].Workload, multi, one)
		}
		if sm.Workloads[i].Series.Len() < cfg.Samples-1 {
			t.Fatalf("%s: %d samples", sm.Workloads[i].Workload, sm.Workloads[i].Series.Len())
		}
	}
}

func TestRunMulticoreDeterministic(t *testing.T) {
	cfg := testConfig()
	s := stock(t, "sgxgauge", cfg)
	a, err := RunMulticore(s, cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunMulticore(s, cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Workloads {
		if a.Workloads[i].Totals != b.Workloads[i].Totals {
			t.Fatalf("%s: non-deterministic multicore run", a.Workloads[i].Workload)
		}
	}
}

func TestRunMulticoreThreadsDiffer(t *testing.T) {
	// Thread clones must not be lockstep-identical: with 2 threads the
	// counter totals are not exactly 2x the solo totals for noisy
	// counters (different seeds → different addresses → different misses).
	cfg := testConfig()
	cfg.Instructions = 40_000
	s := stock(t, "sgxgauge", cfg)
	solo, err := Run(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	multi, err := RunMulticore(s, cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	identical := 0
	for i := range multi.Workloads {
		if multi.Workloads[i].Totals.Get(perf.LLCLoadMisses) ==
			2*solo.Workloads[i].Totals.Get(perf.LLCLoadMisses) {
			identical++
		}
	}
	if identical == len(multi.Workloads) {
		t.Fatal("all multicore runs are exactly 2x solo — thread clones are lockstep")
	}
}

func TestRunMulticoreErrors(t *testing.T) {
	cfg := testConfig()
	s := stock(t, "nbench", cfg)
	if _, err := RunMulticore(s, cfg, 0); err == nil {
		t.Fatal("0 threads accepted")
	}
	if _, err := RunMulticore(Suite{Name: "empty"}, cfg, 2); err == nil {
		t.Fatal("empty suite accepted")
	}
	bad := cfg
	bad.Samples = 0
	if _, err := RunMulticore(s, bad, 2); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestRunMulticoreContentionVisible(t *testing.T) {
	// A 4 MiB re-sweep fits the 12 MiB shared L3 solo (high hit rate),
	// but four private clones demand 16 MiB and thrash it.
	cfg := testConfig()
	cfg.Instructions = 500_000
	single := Suite{Name: "contend", Specs: []workload.Spec{{
		Name: "contend.sweep", Instructions: cfg.Instructions, Seed: 5,
		Phases: []workload.Phase{{
			Name: "sweep", Weight: 1, LoadFrac: 0.5,
			LoadPattern:      workload.Sequential{WorkingSet: 4 << 20},
			BranchRegularity: 0.95, BranchTakenProb: 0.9,
		}},
	}}}
	solo, err := Run(single, cfg)
	if err != nil {
		t.Fatal(err)
	}
	multi, err := RunMulticore(single, cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	rate := func(m *perf.Measurement) float64 {
		loads := m.Totals.Get(perf.LLCLoads)
		if loads == 0 {
			return 0
		}
		return float64(m.Totals.Get(perf.LLCLoadMisses)) / float64(loads)
	}
	soloRate := rate(&solo.Workloads[0])
	multiRate := rate(&multi.Workloads[0])
	if multiRate <= soloRate {
		t.Fatalf("no contention: solo LLC miss rate %.3f, 4-thread %.3f", soloRate, multiRate)
	}
}

// TestRunOneMulticoreReusesMachine runs two workloads through one
// worker's slot, as RunMulticore does: the second reuses the first's
// multicore machine and allocates less than one L3 tag array (one word
// per line), so no new L3 is built; and the reused machine measures the
// second workload exactly as a new one does.
func TestRunOneMulticoreReusesMachine(t *testing.T) {
	cfg := testConfig()
	s := stock(t, "nbench", cfg)
	ctx := context.Background()
	var slot *uarch.MultiCore
	if _, err := runOneMulticore(ctx, s.Specs[0], cfg, 2, &slot); err != nil {
		t.Fatal(err)
	}
	first := slot
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got, err := runOneMulticore(ctx, s.Specs[1], cfg, 2, &slot)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if slot != first {
		t.Fatal("second workload replaced the worker's multicore machine")
	}
	l3 := uint64(cfg.Machine.L3.SizeB / cfg.Machine.L3.LineB * 8)
	if bytes := after.TotalAlloc - before.TotalAlloc; bytes >= l3 {
		t.Errorf("second workload allocated %d bytes, one L3 tag array is %d", bytes, l3)
	}

	var fresh *uarch.MultiCore
	want, err := runOneMulticore(ctx, s.Specs[1], cfg, 2, &fresh)
	if err != nil {
		t.Fatal(err)
	}
	if got.Totals != want.Totals || !reflect.DeepEqual(got.Series, want.Series) {
		t.Error("reused multicore machine measures differently from a new one")
	}
	if fresh == first {
		t.Fatal("an empty slot did not get a new machine")
	}
}

// TestRunMulticoreRecordsWorkloadSpans checks that a multicore
// measurement is visible in traces like a single-core one: one
// "workload" span per spec.
func TestRunMulticoreRecordsWorkloadSpans(t *testing.T) {
	cfg := testConfig()
	s := stock(t, "nbench", cfg)
	rec := obs.NewRecorder()
	if _, err := RunMulticoreContext(obs.WithRecorder(context.Background(), rec), s, cfg, 2); err != nil {
		t.Fatal(err)
	}
	if agg := rec.Fold().Stages["workload"]; agg == nil || agg.Count != int64(len(s.Specs)) {
		t.Fatalf("workload spans: %+v, want %d", agg, len(s.Specs))
	}
}
