package suites

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"perspector/internal/perf"
)

// measurementFingerprint hashes a suite measurement bit-for-bit: every
// workload name, counter total, sample interval and series sample.
func measurementFingerprint(sm *perf.SuiteMeasurement) string {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for i := range sm.Workloads {
		w := &sm.Workloads[i]
		h.Write([]byte(w.Workload))
		put(w.Series.Interval)
		for c := perf.Counter(0); c < perf.NumCounters; c++ {
			put(w.Totals.Get(c))
			put(uint64(len(w.Series.Samples[c])))
			for _, v := range w.Series.Samples[c] {
				put(math.Float64bits(v))
			}
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestRunMulticoreGolden pins RunMulticore's totals and series, at one
// to three threads, to fingerprints captured before the interleaver
// fetched instructions in blocks. Round-robin stepping, per-instruction
// sampling and the OS-noise charge must all be unchanged for every
// fingerprint to hold.
func TestRunMulticoreGolden(t *testing.T) {
	golden := map[string][3]string{
		"parsec":  {"df2aa91bf5663ab1", "59fc210dec1fb1f2", "1b53618a592d2e28"},
		"ligra":   {"5bf7c9fd06325f9d", "5e7f42fe96b961e2", "5596ee7b18d9f14d"},
		"lmbench": {"4ce54ee6abd46119", "7cd4d5fdda820e42", "48c4dd1955e27b04"},
	}
	cfg := testConfig()
	for _, name := range []string{"parsec", "ligra", "lmbench"} {
		s := stock(t, name, cfg)
		for threads := 1; threads <= 3; threads++ {
			sm, err := RunMulticore(s, cfg, threads)
			if err != nil {
				t.Fatalf("%s at %d threads: %v", name, threads, err)
			}
			if got, want := measurementFingerprint(sm), golden[name][threads-1]; got != want {
				t.Errorf("%s at %d threads: fingerprint %s, want %s", name, threads, got, want)
			}
		}
	}
}

// TestRunMulticoreTotalsOnly checks that Config.TotalsOnly reaches the
// multicore path: the totals equal a full run's bit-for-bit, and no
// sampled series is kept.
func TestRunMulticoreTotalsOnly(t *testing.T) {
	cfg := testConfig()
	s := stock(t, "nbench", cfg)
	full, err := RunMulticore(s, cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg.TotalsOnly = true
	totals, err := RunMulticore(s, cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range full.Workloads {
		w, g := &full.Workloads[i], &totals.Workloads[i]
		if w.Totals != g.Totals {
			t.Errorf("%s: totals-only totals %v, full %v", w.Workload, g.Totals, w.Totals)
		}
		if n := g.Series.Len(); n != 0 {
			t.Errorf("%s: totals-only run kept %d samples", w.Workload, n)
		}
	}
}
