package jobs

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"perspector/internal/metric"
	"perspector/internal/perf"
	"perspector/internal/store"
)

const streamTestInterval = 1000

// chunkGen fabricates deterministic chunk workloads: totals and short
// delta series for every counter, seeded per (suite, workload, part).
func chunkWorkload(seed int64, name string, samples int) ChunkWorkload {
	rnd := rand.New(rand.NewSource(seed))
	nc := len(perf.AllCounters())
	w := ChunkWorkload{Name: name, Totals: make([]uint64, nc)}
	if samples > 0 {
		w.Series = make([][]float64, nc)
	}
	for k := 0; k < nc; k++ {
		w.Totals[k] = uint64(rnd.Intn(5000))
		for t := 0; t < samples; t++ {
			w.Series[k] = append(w.Series[k], float64(rnd.Intn(200)))
		}
	}
	return w
}

// applyExpected folds a chunk workload into the reference measurement
// exactly as the stream should, so tests can batch-score the assembled
// data as the oracle.
func applyExpected(sm *perf.SuiteMeasurement, w ChunkWorkload) {
	idx := -1
	for i := range sm.Workloads {
		if sm.Workloads[i].Workload == w.Name {
			idx = i
			break
		}
	}
	if idx < 0 {
		sm.Workloads = append(sm.Workloads, perf.Measurement{Workload: w.Name})
		idx = len(sm.Workloads) - 1
	}
	m := &sm.Workloads[idx]
	for k, c := range perf.AllCounters() {
		if w.Totals != nil {
			m.Totals[c] += w.Totals[k]
		}
		if w.Series != nil && len(w.Series[k]) > 0 {
			if m.Series.Interval == 0 {
				m.Series.Interval = streamTestInterval
			}
			m.Series.Samples[c] = append(m.Series.Samples[c], w.Series[k]...)
		}
	}
}

func waitStreamDone(t *testing.T, m *StreamManager, id string) StreamSnapshot {
	t.Helper()
	done, err := m.Done(id)
	if err != nil {
		t.Fatalf("Done(%s): %v", id, err)
	}
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("stream %s did not finish", id)
	}
	snap, err := m.Get(id)
	if err != nil {
		t.Fatalf("Get(%s): %v", id, err)
	}
	return snap
}

func openStream(t *testing.T, m *StreamManager, suites ...string) StreamSnapshot {
	t.Helper()
	snap, err := m.Open(StreamOpenRequest{Suites: suites, SampleInterval: streamTestInterval})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return snap
}

// TestStreamLifecycleMatchesBatch drives the full streaming path — open,
// chunked appends (new workloads and sample growth), long-polled score
// versions, close — and requires the final ScoreSet to be bit-identical
// to a one-shot batch run over the assembled measurement, and persisted
// to the result store under the stream's content-addressed key.
func TestStreamLifecycleMatchesBatch(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	m := NewStreamManager(StreamOptions{Store: st})
	snap := openStream(t, m, "streamed")
	if snap.State != StreamOpen || snap.Kind != store.KindScore {
		t.Fatalf("open snapshot = %+v", snap)
	}

	expected := &perf.SuiteMeasurement{Suite: "streamed"}
	chunks := []StreamChunk{
		{Workloads: []ChunkWorkload{chunkWorkload(1, "w0", 4), chunkWorkload(2, "w1", 4)}},
		{Workloads: []ChunkWorkload{chunkWorkload(3, "w2", 5)}},
		{Workloads: []ChunkWorkload{chunkWorkload(4, "w1", 3), chunkWorkload(5, "w3", 4)}},
	}
	ctx := context.Background()
	var seq int64
	prevKey := snap.Key
	for i, c := range chunks {
		as, err := m.Append(snap.ID, c)
		if err != nil {
			t.Fatalf("Append chunk %d: %v", i, err)
		}
		if as.Key == prevKey {
			t.Fatalf("chunk %d did not advance the stream key", i)
		}
		prevKey = as.Key
		for _, w := range c.Workloads {
			applyExpected(expected, w)
		}
		// Tail the evolving scores: each accepted chunk publishes at
		// least one new version.
		sc, err := m.Scores(ctx, snap.ID, seq)
		if err != nil {
			t.Fatalf("Scores after chunk %d: %v", i, err)
		}
		if sc.Seq <= seq {
			t.Fatalf("chunk %d: seq did not advance (%d -> %d)", i, seq, sc.Seq)
		}
		if sc.Error != nil {
			t.Fatalf("chunk %d: rescore failed: %+v", i, sc.Error)
		}
		if sc.Scores == nil || len(sc.Scores.Suites) != 1 {
			t.Fatalf("chunk %d: no scores published", i)
		}
		seq = sc.Seq
	}

	if _, err := m.Close(snap.ID); err != nil {
		t.Fatalf("Close: %v", err)
	}
	final := waitStreamDone(t, m, snap.ID)
	if final.State != StreamDone {
		t.Fatalf("final state = %s (error %+v)", final.State, final.Error)
	}
	if final.Chunks != len(chunks) {
		t.Fatalf("chunks = %d, want %d", final.Chunks, len(chunks))
	}
	if final.Workloads[0] != len(expected.Workloads) {
		t.Fatalf("workloads = %d, want %d", final.Workloads[0], len(expected.Workloads))
	}

	sc, err := m.Scores(ctx, snap.ID, 0)
	if err != nil {
		t.Fatalf("final Scores: %v", err)
	}
	opts := metric.DefaultOptions()
	want, err := metric.ScoreSuites(ctx, []*perf.SuiteMeasurement{expected}, opts, nil)
	if err != nil {
		t.Fatalf("batch oracle: %v", err)
	}
	got := sc.Scores.Scores()
	if len(got) != 1 || got[0] != want[0] {
		t.Fatalf("streamed scores diverge from batch:\n got %+v\nwant %+v", got, want)
	}

	// Final result persisted under the content-addressed stream key.
	set, ok := st.Get(final.Key)
	if !ok {
		t.Fatalf("final ScoreSet not in store under key %s", final.Key)
	}
	if set.Source != "stream" || set.Suites[0] != sc.Scores.Suites[0] {
		t.Fatalf("persisted set = %+v, want %+v", set, *sc.Scores)
	}

	// Appending after close is rejected with the stream intact.
	if _, err := m.Append(snap.ID, chunks[0]); !errors.Is(err, ErrStreamClosed) {
		t.Fatalf("Append after close: err = %v, want ErrStreamClosed", err)
	}
}

// TestStreamCompareJointRepair checks the multi-suite path: while one
// suite of a compare stream is still empty the rescore fails (joint
// normalization needs every suite non-empty) but the stream stays open,
// and feeding the empty suite repairs it. The final result must match a
// batch compare of the assembled suites bit for bit.
func TestStreamCompareJointRepair(t *testing.T) {
	m := NewStreamManager(StreamOptions{})
	snap := openStream(t, m, "left", "right")
	if snap.Kind != store.KindCompare {
		t.Fatalf("kind = %s, want compare", snap.Kind)
	}

	left := &perf.SuiteMeasurement{Suite: "left"}
	right := &perf.SuiteMeasurement{Suite: "right"}
	ctx := context.Background()

	c1 := StreamChunk{Suite: "left", Workloads: []ChunkWorkload{
		chunkWorkload(10, "a", 4), chunkWorkload(11, "b", 4), chunkWorkload(12, "c", 4),
	}}
	if _, err := m.Append(snap.ID, c1); err != nil {
		t.Fatalf("Append left: %v", err)
	}
	for _, w := range c1.Workloads {
		applyExpected(left, w)
	}
	sc, err := m.Scores(ctx, snap.ID, 0)
	if err != nil {
		t.Fatalf("Scores: %v", err)
	}
	if sc.Error == nil {
		t.Fatalf("rescore with an empty suite should fail, got scores %+v", sc.Scores)
	}
	if sc.State != StreamOpen {
		t.Fatalf("stream should stay open across a failed rescore, state = %s", sc.State)
	}

	c2 := StreamChunk{Suite: "right", Workloads: []ChunkWorkload{
		chunkWorkload(20, "x", 4), chunkWorkload(21, "y", 4),
	}}
	if _, err := m.Append(snap.ID, c2); err != nil {
		t.Fatalf("Append right: %v", err)
	}
	for _, w := range c2.Workloads {
		applyExpected(right, w)
	}
	sc2, err := m.Scores(ctx, snap.ID, sc.Seq)
	if err != nil {
		t.Fatalf("Scores: %v", err)
	}
	if sc2.Error != nil {
		t.Fatalf("rescore after repair failed: %+v", sc2.Error)
	}
	if len(sc2.Scores.Suites) != 2 {
		t.Fatalf("compare scores cover %d suites, want 2", len(sc2.Scores.Suites))
	}

	if _, err := m.Close(snap.ID); err != nil {
		t.Fatal(err)
	}
	final := waitStreamDone(t, m, snap.ID)
	if final.State != StreamDone {
		t.Fatalf("final state = %s (error %+v)", final.State, final.Error)
	}
	fsc, err := m.Scores(ctx, snap.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := metric.ScoreSuites(ctx, []*perf.SuiteMeasurement{left, right}, metric.DefaultOptions(), nil)
	if err != nil {
		t.Fatalf("batch oracle: %v", err)
	}
	got := fsc.Scores.Scores()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("suite %d diverges from batch compare:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
}

// TestStreamCancel aborts a stream and requires its goroutine to exit
// with state canceled and later appends rejected.
func TestStreamCancel(t *testing.T) {
	m := NewStreamManager(StreamOptions{})
	snap := openStream(t, m, "doomed")
	c := StreamChunk{Workloads: []ChunkWorkload{chunkWorkload(30, "w0", 4)}}
	if _, err := m.Append(snap.ID, c); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Cancel(snap.ID); err != nil {
		t.Fatal(err)
	}
	final := waitStreamDone(t, m, snap.ID)
	if final.State != StreamCanceled {
		t.Fatalf("state = %s, want canceled", final.State)
	}
	if _, err := m.Append(snap.ID, c); !errors.Is(err, ErrStreamClosed) {
		t.Fatalf("Append after cancel: err = %v, want ErrStreamClosed", err)
	}
	// Scores on a terminal stream returns immediately.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	sc, err := m.Scores(ctx, snap.ID, 1<<40)
	if err != nil {
		t.Fatalf("Scores on canceled stream: %v", err)
	}
	if sc.State != StreamCanceled {
		t.Fatalf("state = %s, want canceled", sc.State)
	}
	// Cancel is idempotent on a terminal stream.
	if s2, err := m.Cancel(snap.ID); err != nil || s2.State != StreamCanceled {
		t.Fatalf("second Cancel = %+v, %v", s2, err)
	}
}

// TestStreamDrain seals every open stream, applies their backlogs, and
// refuses new opens; no stream goroutine survives.
func TestStreamDrain(t *testing.T) {
	m := NewStreamManager(StreamOptions{})
	a := openStream(t, m, "a")
	b := openStream(t, m, "b")
	for i, id := range []string{a.ID, b.ID} {
		c := StreamChunk{Workloads: []ChunkWorkload{
			chunkWorkload(int64(40+i), "w0", 4), chunkWorkload(int64(50+i), "w1", 4),
		}}
		if _, err := m.Append(id, c); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := m.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	for _, id := range []string{a.ID, b.ID} {
		snap, err := m.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if snap.State != StreamDone {
			t.Fatalf("stream %s drained to %s, want done (error %+v)", id, snap.State, snap.Error)
		}
		if snap.Seq == 0 || snap.Chunks != 1 {
			t.Fatalf("stream %s drained without applying its backlog: %+v", id, snap)
		}
	}
	if _, err := m.Open(StreamOpenRequest{Suites: []string{"late"}}); !errors.Is(err, ErrDraining) {
		t.Fatalf("Open after drain: err = %v, want ErrDraining", err)
	}
	tel := m.Telemetry()
	if tel.Active != 0 || tel.States[StreamDone] != 2 {
		t.Fatalf("telemetry after drain = %+v", tel)
	}
}

// TestStreamGoroutineLeak opens, feeds, and finishes a batch of streams
// and requires the goroutine count to return to its baseline.
func TestStreamGoroutineLeak(t *testing.T) {
	base := runtime.NumGoroutine()
	m := NewStreamManager(StreamOptions{})
	var ids []string
	for i := 0; i < 6; i++ {
		snap := openStream(t, m, "s")
		c := StreamChunk{Workloads: []ChunkWorkload{
			chunkWorkload(int64(100+i), "w0", 3), chunkWorkload(int64(200+i), "w1", 3),
		}}
		if _, err := m.Append(snap.ID, c); err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			if _, err := m.Close(snap.ID); err != nil {
				t.Fatal(err)
			}
		} else {
			if _, err := m.Cancel(snap.ID); err != nil {
				t.Fatal(err)
			}
		}
		ids = append(ids, snap.ID)
	}
	for _, id := range ids {
		waitStreamDone(t, m, id)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := m.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base+2 {
			return
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d at start, %d after drain", base, runtime.NumGoroutine())
}

// TestStreamBacklogReject fills a stream's backlog while its rescore
// loop is parked and requires the next chunk to bounce with
// ErrStreamBacklog — without advancing the content key.
func TestStreamBacklogReject(t *testing.T) {
	m := NewStreamManager(StreamOptions{MaxPending: 2})
	snap := openStream(t, m, "s")
	// Park the backlog at its cap without waking the loop: sync.Cond.Wait
	// only returns on Broadcast/Signal, so the loop stays parked and the
	// pending slice cannot drain underneath the assertion.
	m.mu.Lock()
	s := m.streams[snap.ID]
	for i := 0; i < 2; i++ {
		s.pending = append(s.pending, StreamChunk{
			Suite:     "s",
			Workloads: []ChunkWorkload{chunkWorkload(int64(300+i), "w0", 3)},
		})
	}
	m.mu.Unlock()
	as, err := m.Append(snap.ID, StreamChunk{Workloads: []ChunkWorkload{chunkWorkload(310, "w1", 3)}})
	if !errors.Is(err, ErrStreamBacklog) {
		t.Fatalf("Append over full backlog: err = %v, want ErrStreamBacklog", err)
	}
	if as.Key != snap.Key {
		t.Fatalf("rejected chunk advanced the stream key")
	}
	if m.Telemetry().Rejected == 0 {
		t.Fatal("rejection not counted")
	}
	// Wake the loop, let it drain, and finish cleanly.
	m.mu.Lock()
	m.cond.Broadcast()
	m.mu.Unlock()
	if _, err := m.Close(snap.ID); err != nil {
		t.Fatal(err)
	}
	final := waitStreamDone(t, m, snap.ID)
	if final.State != StreamDone {
		t.Fatalf("state = %s (error %+v)", final.State, final.Error)
	}
}

// TestStreamLimit bounds concurrent live streams; terminal streams free
// their slot.
func TestStreamLimit(t *testing.T) {
	m := NewStreamManager(StreamOptions{MaxStreams: 1})
	snap := openStream(t, m, "only")
	if _, err := m.Open(StreamOpenRequest{Suites: []string{"second"}}); !errors.Is(err, ErrStreamLimit) {
		t.Fatalf("second Open: err = %v, want ErrStreamLimit", err)
	}
	if _, err := m.Cancel(snap.ID); err != nil {
		t.Fatal(err)
	}
	waitStreamDone(t, m, snap.ID)
	if _, err := m.Open(StreamOpenRequest{Suites: []string{"second"}}); err != nil {
		t.Fatalf("Open after slot freed: %v", err)
	}
}

// TestStreamKeyDeterminism: identical open + chunk sequences address the
// same key chain on independent managers; a diverging chunk diverges the
// chain.
func TestStreamKeyDeterminism(t *testing.T) {
	open := StreamOpenRequest{Suites: []string{"s"}, SampleInterval: streamTestInterval}
	c1 := StreamChunk{Workloads: []ChunkWorkload{chunkWorkload(1, "w0", 3)}}
	c2 := StreamChunk{Workloads: []ChunkWorkload{chunkWorkload(2, "w1", 3)}}

	run := func(chunks ...StreamChunk) []string {
		m := NewStreamManager(StreamOptions{})
		snap, err := m.Open(open)
		if err != nil {
			t.Fatal(err)
		}
		keys := []string{snap.Key}
		for _, c := range chunks {
			as, err := m.Append(snap.ID, c)
			if err != nil {
				t.Fatal(err)
			}
			keys = append(keys, as.Key)
		}
		if _, err := m.Cancel(snap.ID); err != nil {
			t.Fatal(err)
		}
		waitStreamDone(t, m, snap.ID)
		return keys
	}

	ka := run(c1, c2)
	kb := run(c1, c2)
	for i := range ka {
		if ka[i] != kb[i] {
			t.Fatalf("key %d diverges across identical runs: %s vs %s", i, ka[i], kb[i])
		}
	}
	kc := run(c2, c1)
	if kc[1] == ka[1] || kc[2] == ka[2] {
		t.Fatalf("different chunk order did not diverge the key chain")
	}
}

// TestStreamCloseEmptyFails: sealing a stream that never got data
// publishes the scoring failure and lands in failed.
func TestStreamCloseEmptyFails(t *testing.T) {
	m := NewStreamManager(StreamOptions{})
	snap := openStream(t, m, "empty")
	if _, err := m.Close(snap.ID); err != nil {
		t.Fatal(err)
	}
	final := waitStreamDone(t, m, snap.ID)
	if final.State != StreamFailed || final.Error == nil {
		t.Fatalf("empty stream finished as %s (error %+v), want failed", final.State, final.Error)
	}
}

// TestStreamValidation rejects malformed opens and chunks without
// touching stream state.
func TestStreamValidation(t *testing.T) {
	m := NewStreamManager(StreamOptions{})
	bads := []StreamOpenRequest{
		{},
		{Suites: []string{"a", "a"}},
		{Suites: []string{""}},
		{Suites: []string{"a"}, Group: "bogus"},
		{Suites: []string{"a"}, Counters: []string{"no-such-counter"}},
	}
	for i, req := range bads {
		if _, err := m.Open(req); err == nil {
			t.Fatalf("bad open %d accepted", i)
		}
	}
	snap := openStream(t, m, "a", "b")
	badChunks := []StreamChunk{
		{}, // no suite on a 2-suite stream
		{Suite: "c", Workloads: []ChunkWorkload{{Name: "w"}}}, // unknown suite
		{Suite: "a"}, // no workloads
		{Suite: "a", Workloads: []ChunkWorkload{{Name: ""}}},                               // unnamed
		{Suite: "a", Workloads: []ChunkWorkload{{Name: "w", Totals: []uint64{1}}}},         // wrong totals arity
		{Suite: "a", Workloads: []ChunkWorkload{{Name: "w", Series: [][]float64{{1, 2}}}}}, // wrong series arity
	}
	for i, c := range badChunks {
		as, err := m.Append(snap.ID, c)
		if err == nil {
			t.Fatalf("bad chunk %d accepted", i)
		}
		if as.Key != snap.Key || as.Chunks != 0 {
			t.Fatalf("bad chunk %d mutated the stream: %+v", i, as)
		}
	}
	ragged := StreamChunk{Suite: "a", Workloads: []ChunkWorkload{chunkWorkload(1, "w", 3)}}
	ragged.Workloads[0].Series[1] = ragged.Workloads[0].Series[1][:1]
	if _, err := m.Append(snap.ID, ragged); err == nil {
		t.Fatal("ragged series accepted")
	}
	if _, err := m.Append("s-999999", StreamChunk{}); !errors.Is(err, ErrStreamNotFound) {
		t.Fatalf("unknown stream: err = %v, want ErrStreamNotFound", err)
	}
	if _, err := m.Cancel(snap.ID); err != nil {
		t.Fatal(err)
	}
	waitStreamDone(t, m, snap.ID)
}

// TestStreamSingleSuiteDefault: a one-suite stream accepts chunks that
// omit the suite name.
func TestStreamSingleSuiteDefault(t *testing.T) {
	m := NewStreamManager(StreamOptions{})
	snap := openStream(t, m, "solo")
	c := StreamChunk{Workloads: []ChunkWorkload{chunkWorkload(7, "w0", 3), chunkWorkload(8, "w1", 3), chunkWorkload(9, "w2", 3)}}
	if _, err := m.Append(snap.ID, c); err != nil {
		t.Fatal(err)
	}
	sc, err := m.Scores(context.Background(), snap.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Error != nil || sc.Scores == nil {
		t.Fatalf("rescore = %+v", sc)
	}
	if _, err := m.Close(snap.ID); err != nil {
		t.Fatal(err)
	}
	if got := waitStreamDone(t, m, snap.ID); got.State != StreamDone {
		t.Fatalf("state = %s", got.State)
	}
	list := m.List()
	if len(list) != 1 || list[0].ID != snap.ID {
		t.Fatalf("List = %+v", list)
	}
}
