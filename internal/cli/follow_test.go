package cli

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"perspector/internal/metric"
	"perspector/internal/perf"
)

// followTestMeasurement fabricates a deterministic measurement with n
// workloads, each with totals and a short series per counter.
func followTestMeasurement(seed int64, n, samples int) *perf.SuiteMeasurement {
	rnd := rand.New(rand.NewSource(seed))
	sm := &perf.SuiteMeasurement{Suite: "tailed"}
	for i := 0; i < n; i++ {
		m := perf.Measurement{Workload: fmt.Sprintf("w%d", i)}
		m.Series.Interval = 100
		for c := 0; c < int(perf.NumCounters); c++ {
			m.Totals[perf.Counter(c)] = uint64(rnd.Intn(5000))
			for s := 0; s < samples; s++ {
				m.Series.Samples[perf.Counter(c)] = append(m.Series.Samples[perf.Counter(c)],
					float64(rnd.Intn(200)))
			}
		}
		sm.Workloads = append(sm.Workloads, m)
	}
	return sm
}

func cloneFollowSuite(sm *perf.SuiteMeasurement) *perf.SuiteMeasurement {
	out := &perf.SuiteMeasurement{Suite: sm.Suite}
	for i := range sm.Workloads {
		w := sm.Workloads[i]
		cp := perf.Measurement{Workload: w.Workload, Totals: w.Totals}
		cp.Series.Interval = w.Series.Interval
		for c := range w.Series.Samples {
			cp.Series.Samples[c] = append([]float64(nil), w.Series.Samples[c]...)
		}
		out.Workloads = append(out.Workloads, cp)
	}
	return out
}

// growSamples returns a copy of sm with extra samples and totals added
// to one workload — a pure append.
func growSamples(sm *perf.SuiteMeasurement, idx int, seed int64) *perf.SuiteMeasurement {
	out := cloneFollowSuite(sm)
	rnd := rand.New(rand.NewSource(seed))
	w := &out.Workloads[idx]
	for c := 0; c < int(perf.NumCounters); c++ {
		w.Totals[perf.Counter(c)] += uint64(rnd.Intn(500))
		for s := 0; s < 3; s++ {
			w.Series.Samples[perf.Counter(c)] = append(w.Series.Samples[perf.Counter(c)],
				float64(rnd.Intn(200)))
		}
	}
	return out
}

func followTestOptions() metric.Options {
	opts := metric.DefaultOptions()
	opts.DTWGrid = 24
	opts.KMeansRestarts = 2
	return opts
}

// expectedRow renders the batch-scored row for one snapshot — the
// oracle a follow update must match byte for byte.
func expectedRow(t *testing.T, sm *perf.SuiteMeasurement, opts metric.Options) string {
	t.Helper()
	scores, err := metric.ScoreSuites(context.Background(),
		[]*perf.SuiteMeasurement{cloneFollowSuite(sm)}, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	ScoreRow(&buf, scores[0])
	return strings.TrimSuffix(buf.String(), "\n")
}

// TestFollowScoresTailsAppends drives FollowScores over an in-memory
// file history: initial snapshot, an appended workload, a sample-chunk
// append, and a history rewrite. Each printed row must equal the
// batch-scored row of that snapshot, and the rewrite must be called out
// as a rebuild.
func TestFollowScoresTailsAppends(t *testing.T) {
	opts := followTestOptions()
	base := followTestMeasurement(3, 3, 4)
	added := cloneFollowSuite(base)
	extra := followTestMeasurement(99, 4, 4).Workloads[3]
	added.Workloads = append(added.Workloads, extra)
	grown := growSamples(added, 1, 17)
	// The rewrite shrinks one series — not expressible as an append.
	rewritten := cloneFollowSuite(grown)
	s := rewritten.Workloads[0].Series.Samples[perf.Counter(0)]
	rewritten.Workloads[0].Series.Samples[perf.Counter(0)] = s[:len(s)-1]

	history := []*perf.SuiteMeasurement{base, added, grown, rewritten}
	idx := 0
	parse := func() (*perf.SuiteMeasurement, error) {
		sm := history[idx]
		if idx < len(history)-1 {
			idx++
		}
		// Fresh deep copy per poll, as a real re-parse would produce.
		return cloneFollowSuite(sm), nil
	}

	var out bytes.Buffer
	err := FollowScores(context.Background(), FollowOptions{
		Parse:      parse,
		Opts:       opts,
		Poll:       time.Millisecond,
		Out:        &out,
		MaxUpdates: len(history),
	})
	if err != nil {
		t.Fatalf("FollowScores: %v", err)
	}

	lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
	// header + 3 append rows, then the rebuild notice + rebuilt row.
	if len(lines) != 6 {
		t.Fatalf("expected 6 output lines, got %d:\n%s", len(lines), out.String())
	}
	if !strings.HasPrefix(lines[0], "suite") {
		t.Fatalf("first line is not the header: %q", lines[0])
	}
	for i, sm := range []*perf.SuiteMeasurement{base, added, grown} {
		if got, exp := lines[1+i], expectedRow(t, sm, opts); got != exp {
			t.Fatalf("update %d diverges from batch:\n got %q\nwant %q", i, got, exp)
		}
	}
	if !strings.Contains(lines[4], "rebuilt from scratch") {
		t.Fatalf("rewrite was not reported as a rebuild: %q", lines[4])
	}
	if got, exp := lines[5], expectedRow(t, rewritten, opts); got != exp {
		t.Fatalf("post-rebuild row diverges from batch:\n got %q\nwant %q", got, exp)
	}
}

// TestFollowScoresStatSkip: an unchanged stat token suppresses the
// re-parse; a context cancellation ends the loop cleanly.
func TestFollowScoresStatSkip(t *testing.T) {
	opts := followTestOptions()
	base := followTestMeasurement(5, 3, 4)
	parses := 0
	parse := func() (*perf.SuiteMeasurement, error) {
		parses++
		return cloneFollowSuite(base), nil
	}
	// FollowScores calls stat on its own goroutine while the wait loop
	// below reads the count, so the count is atomic.
	var statCalls atomic.Int64
	stat := func() (string, error) {
		statCalls.Add(1)
		return "constant", nil
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	var out bytes.Buffer
	go func() {
		done <- FollowScores(ctx, FollowOptions{
			Parse: parse, Stat: stat, Opts: opts,
			Poll: time.Millisecond, Out: &out,
		})
	}()
	deadline := time.Now().Add(10 * time.Second)
	for statCalls.Load() < 5 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("FollowScores: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("FollowScores did not stop on cancel")
	}
	if parses != 1 {
		t.Fatalf("parsed %d times despite constant stat token, want 1", parses)
	}
	rows := strings.Count(out.String(), "\n")
	if rows != 2 { // header + one row
		t.Fatalf("expected header + 1 row, got output:\n%s", out.String())
	}
}
