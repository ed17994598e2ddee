package suites

import (
	"reflect"
	"testing"

	"perspector/internal/uarch"
	"perspector/internal/workload"
)

// TestBatchedPathMatchesLegacyNext pins Machine.RunContext's block
// sampling to a per-instruction reference: for every workload of all six
// suites, the block path's totals AND sampled series must be
// bit-identical to a one-core MultiCore run, which steps, samples and
// charges OS noise one instruction at a time through its own
// total%interval loop. The name is kept as the test's stable ID; the
// per-instruction legacy loop it names is now MultiCore's. Budgets are
// reduced so the whole matrix stays fast; the golden tests cover
// full-budget values separately.
func TestBatchedPathMatchesLegacyNext(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Instructions = 20_000
	cfg.Samples = 10
	for _, s := range All(cfg) {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			for _, spec := range s.Specs {
				mc := cfg.Machine
				mc.SampleInterval = spec.Instructions / uint64(cfg.Samples)
				if mc.SampleInterval == 0 {
					mc.SampleInterval = 1
				}
				block, err := workload.Compile(spec)
				if err != nil {
					t.Fatalf("compile %s: %v", spec.Name, err)
				}
				m, err := uarch.NewMachine(mc)
				if err != nil {
					t.Fatal(err)
				}
				got, err := m.Run(block, spec.Instructions)
				block.Release()
				if err != nil {
					t.Fatalf("block run %s: %v", spec.Name, err)
				}

				ref, err := workload.Compile(spec)
				if err != nil {
					t.Fatalf("compile %s: %v", spec.Name, err)
				}
				one, err := uarch.NewMultiCore(mc, 1)
				if err != nil {
					t.Fatal(err)
				}
				want, err := one.RunParallel([]uarch.Program{ref}, spec.Instructions)
				ref.Release()
				if err != nil {
					t.Fatalf("per-instruction run %s: %v", spec.Name, err)
				}

				if got.Totals != want.Totals {
					t.Errorf("%s: totals diverge between block and per-instruction paths\nblock:    %v\nper-instr: %v",
						spec.Name, got.Totals, want.Totals)
				}
				if got.Series.Interval != want.Series.Interval {
					t.Errorf("%s: sample interval diverges: %d vs %d",
						spec.Name, got.Series.Interval, want.Series.Interval)
				}
				if !reflect.DeepEqual(got.Series.Samples, want.Series.Samples) {
					t.Errorf("%s: sampled series diverge between block and per-instruction paths", spec.Name)
				}
			}
		})
	}
}
