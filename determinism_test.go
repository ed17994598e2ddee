package perspector_test

// The parallel scoring engine's hard guarantee: every result is
// bit-identical to the serial path at any worker count, and scores from a
// warm on-disk measurement cache are bit-identical to a cold simulation.
// These tests pin both properties for all four scores over all six stock
// suites.

import (
	"context"
	"runtime"
	"testing"

	"perspector"
	"perspector/internal/cache"
	"perspector/internal/source"
)

// determinismConfig is a reduced-budget configuration: large enough that
// every counter carries signal (so all four scores exercise their full
// code paths), small enough that measuring all six suites four times
// stays test-sized.
func determinismConfig() perspector.Config {
	cfg := perspector.DefaultConfig()
	cfg.Instructions = 40_000
	cfg.Samples = 50
	return cfg
}

// scoreAllSuites measures the six stock suites and compares them under
// joint normalization, exactly as the CLI's compare command does.
func scoreAllSuites(t *testing.T, cfg perspector.Config) []perspector.Scores {
	t.Helper()
	ms, err := perspector.MeasureAll(cfg)
	if err != nil {
		t.Fatal(err)
	}
	scores, err := perspector.Compare(ms, perspector.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return scores
}

// requireIdenticalScores compares two score sets bit-for-bit: float64
// equality, not tolerance. Any reassociation of a parallel reduction
// shows up here.
func requireIdenticalScores(t *testing.T, label string, want, got []perspector.Scores) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d suites vs %d", label, len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Errorf("%s: suite %s:\n  want %+v\n  got  %+v", label, want[i].Suite, want[i], got[i])
		}
	}
}

func TestScoreDeterminismAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("measures all six suites several times")
	}
	cfg := determinismConfig()

	prev := perspector.SetWorkers(1)
	defer perspector.SetWorkers(prev)
	serial := scoreAllSuites(t, cfg)

	counts := []int{2, runtime.NumCPU()}
	for _, w := range counts {
		perspector.SetWorkers(w)
		requireIdenticalScores(t, "workers="+itoa(w), serial, scoreAllSuites(t, cfg))
	}
}

func TestScoreDeterminismColdVsWarmCache(t *testing.T) {
	if testing.Short() {
		t.Skip("measures all six suites twice")
	}
	cfg := determinismConfig()
	st, err := cache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opts := perspector.DefaultOptions()
	src := source.Caching{Inner: source.Simulator{Cfg: cfg}, Store: st}

	run := func() []perspector.Scores {
		var ms []*perspector.Measurement
		for _, s := range perspector.StockSuites(cfg) {
			m, err := src.Measure(context.Background(), s)
			if err != nil {
				t.Fatal(err)
			}
			ms = append(ms, m)
		}
		scores, err := perspector.Compare(ms, opts)
		if err != nil {
			t.Fatal(err)
		}
		return scores
	}

	cold := run()
	if h, m := st.Hits(), st.Misses(); h != 0 || m != 6 {
		t.Fatalf("cold pass: %d hits, %d misses; want 0/6", h, m)
	}
	warm := run()
	if h, m := st.Hits(), st.Misses(); h != 6 || m != 6 {
		t.Fatalf("warm pass: %d hits, %d misses total; want 6/6", h, m)
	}
	requireIdenticalScores(t, "cold vs warm cache", cold, warm)

	// And the cache must be transparent: direct simulation under the same
	// config produces the same bits as the cache round-trip.
	direct := scoreAllSuites(t, cfg)
	requireIdenticalScores(t, "direct vs cached", direct, cold)
}

// itoa avoids importing strconv for two call sites.
func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}
