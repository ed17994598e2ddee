package main

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"perspector/internal/benchset"
	"perspector/internal/perfhist"
)

// record builds a valid one-run report whose SimulateSuite entry runs at
// instrPerSec.
func record(instrPerSec float64) report {
	return report{
		GeneratedAt: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC),
		GoVersion:   "go1.24.0",
		GOOS:        "linux",
		GOARCH:      "amd64",
		Benchmarks: []result{{
			Name:                 "SimulateSuite",
			NsPerOp:              1e9,
			Iterations:           1,
			SimulatedInstrPerOp:  uint64(instrPerSec),
			SimulatedInstrPerSec: instrPerSec,
		}},
	}
}

// writeHistory appends one run per figure to a fresh JSONL history.
func writeHistory(t *testing.T, instrPerSec ...float64) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "history.jsonl")
	for _, v := range instrPerSec {
		if err := perfhist.Append(path, record(v)); err != nil {
			t.Fatal(err)
		}
	}
	return path
}

func TestCheckAgainstHistoryFloor(t *testing.T) {
	// Five runs at 1000 put the p10 floor, less 5% slack, at 950.
	path := writeHistory(t, 1000, 1000, 1000, 1000, 1000)
	if err := checkAgainstHistory(path, record(951)); err != nil {
		t.Errorf("951 against a floor of 950 failed: %v", err)
	}
	if err := checkAgainstHistory(path, record(949)); err == nil {
		t.Error("949 against a floor of 950 passed")
	}
}

func TestCheckAgainstHistoryInconclusive(t *testing.T) {
	// Two same-class runs are fewer than the three the gate needs, so
	// even a 1000× slowdown passes as inconclusive.
	path := writeHistory(t, 1000, 1000)
	if err := checkAgainstHistory(path, record(1)); err != nil {
		t.Errorf("gate judged with two reference runs: %v", err)
	}
}

func TestAppendHistoryDecodes(t *testing.T) {
	path := writeHistory(t, 1000, 2000)
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	h, err := perfhist.Decode(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Records) != 2 || h.Skipped != 0 {
		t.Fatalf("decoded %d records (%d skipped), want 2 (0 skipped)", len(h.Records), h.Skipped)
	}
	if got := h.Records[1].Benchmarks[0].SimulatedInstrPerSec; got != 2000 {
		t.Errorf("second record runs at %g instr/sec, want 2000", got)
	}
}

// committed reads the repository's BENCH_history.jsonl, oldest record
// first.
func committed(t *testing.T) []report {
	t.Helper()
	h, err := perfhist.Load(context.Background(), "../../BENCH_history.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Records) == 0 {
		t.Fatal("BENCH_history.jsonl holds no records")
	}
	return h.Records
}

// TestBenchNamesAreStable pins the recorded set to the committed
// history's names and to perfbench's alias table: renaming a benchmark
// would orphan its history trend line.
func TestBenchNamesAreStable(t *testing.T) {
	recorded := make(map[string]bool)
	for _, rec := range committed(t) {
		for _, b := range rec.Benchmarks {
			recorded[b.Name] = true
		}
	}
	for _, b := range benchset.All {
		if !recorded[b.Name] {
			t.Errorf("%s appears in no BENCH_history.jsonl record", b.Name)
		}
	}

	buf, err := os.ReadFile("../../perfbench/legacy_names.json")
	if err != nil {
		t.Fatal(err)
	}
	var legacy struct {
		Names map[string]json.RawMessage `json:"names"`
	}
	if err := json.Unmarshal(buf, &legacy); err != nil {
		t.Fatal(err)
	}
	for _, b := range benchset.All {
		if _, ok := legacy.Names[b.Name]; !ok {
			t.Errorf("%s is not a key of perfbench/legacy_names.json", b.Name)
		}
	}
}

// TestBodiesReportCommittedInstrPerOp runs each body for one iteration
// and checks the instructions/op it reports against the
// simulated_instr_per_op of the newest committed history record that
// names it (0 where that record has none).
func TestBodiesReportCommittedInstrPerOp(t *testing.T) {
	bt := flag.Lookup("test.benchtime")
	prev := bt.Value.String()
	if err := bt.Value.Set("1x"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { bt.Value.Set(prev) })

	suiteSized := map[string]bool{
		"SimulateSuite": true, "SimulateSuiteTotalsOnly": true,
		"FullRescore": true, "IncrRescore": true,
	}
	want := make(map[string]uint64)
	for _, rec := range committed(t) {
		for _, b := range rec.Benchmarks {
			want[b.Name] = b.SimulatedInstrPerOp // later records overwrite
		}
	}
	for _, b := range benchset.All {
		t.Run(b.Name, func(t *testing.T) {
			if suiteSized[b.Name] && testing.Short() {
				t.Skip("suite-sized body; skipped under -short")
			}
			r := testing.Benchmark(b.Run)
			if r.N == 0 {
				t.Fatal("benchmark did not run")
			}
			if got := uint64(r.Extra[benchset.InstrMetric]); got != want[b.Name] {
				t.Errorf("reports %d instructions/op, BENCH_history.jsonl has %d", got, want[b.Name])
			}
		})
	}
}
