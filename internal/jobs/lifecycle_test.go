package jobs

import (
	"context"
	"log/slog"
	"testing"
	"time"

	"perspector/internal/store"
)

// hookHandler is a slog.Handler that hands every record to on.
type hookHandler struct{ on func(slog.Record) }

func (h hookHandler) Enabled(context.Context, slog.Level) bool      { return true }
func (h hookHandler) Handle(_ context.Context, r slog.Record) error { h.on(r); return nil }
func (h hookHandler) WithAttrs([]slog.Attr) slog.Handler            { return h }
func (h hookHandler) WithGroup(string) slog.Handler                 { return h }

// feedStream opens a one-suite stream, appends one chunk drawn from
// seed and waits for its first published version, so a Close after it
// has nothing left to apply or rescore. Distinct seeds give distinct
// stream keys.
func feedStream(t *testing.T, m *StreamManager, seed int64) StreamSnapshot {
	t.Helper()
	snap := openStream(t, m, "s")
	c := StreamChunk{Workloads: []ChunkWorkload{
		chunkWorkload(seed, "w0", 4), chunkWorkload(seed+1, "w1", 4), chunkWorkload(seed+2, "w2", 4),
	}}
	if _, err := m.Append(snap.ID, c); err != nil {
		t.Fatal(err)
	}
	sc, err := m.Scores(context.Background(), snap.ID, 0)
	if err != nil || sc.Scores == nil {
		t.Fatalf("first version: %+v, %v", sc, err)
	}
	return snap
}

// TestStreamCancelDuringFinalStep lands a Cancel inside a closing
// stream's final step, where its result is written to the store, and
// requires the stream to end in the state that Cancel reported: the
// first terminal state wins and is never overwritten. The store is
// closed, so the write fails and its warning is the point the Cancel
// lands at.
func TestStreamCancelDuringFinalStep(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var (
		m        *StreamManager
		id       string
		reported = make(chan StreamState, 1)
	)
	m = NewStreamManager(StreamOptions{Store: st, Log: slog.New(hookHandler{func(r slog.Record) {
		if r.Message != "stream result not persisted" {
			return
		}
		snap, err := m.Cancel(id)
		if err != nil {
			t.Errorf("Cancel: %v", err)
		}
		reported <- snap.State
	}})})
	id = feedStream(t, m, 60).ID
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Close(id); err != nil {
		t.Fatal(err)
	}
	final := waitStreamDone(t, m, id)
	var got StreamState
	select {
	case got = <-reported:
	case <-time.After(30 * time.Second):
		t.Fatal("the final store write never failed")
	}
	if final.State != got {
		t.Fatalf("Cancel in the final step reported %s, but the stream ended %s", got, final.State)
	}
	if _, ok := st.Get(final.Key); ok {
		t.Fatalf("a result is stored under %s although the write failed", final.Key)
	}
}

// TestStreamCancelWhileClosing cancels streams right after sealing them.
// Whichever of the Cancel and the final transition comes first decides
// the end state: a stream canceled before its final transition stays
// canceled with nothing persisted under its key, and one that reached
// done first is persisted and unaffected by the Cancel.
func TestStreamCancelWhileClosing(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	m := NewStreamManager(StreamOptions{Store: st})
	for i := 0; i < 10; i++ {
		id := feedStream(t, m, int64(100+3*i)).ID
		if _, err := m.Close(id); err != nil {
			t.Fatal(err)
		}
		c, err := m.Cancel(id)
		if err != nil {
			t.Fatal(err)
		}
		final := waitStreamDone(t, m, id)
		if final.State != c.State {
			t.Fatalf("stream %s: Cancel reported %s, but the stream ended %s", id, c.State, final.State)
		}
		_, stored := st.Get(final.Key)
		switch final.State {
		case StreamCanceled:
			if stored {
				t.Fatalf("stream %s ended canceled but its result is stored", id)
			}
		case StreamDone:
			if !stored {
				t.Fatalf("stream %s ended done but its result is not stored", id)
			}
		default:
			t.Fatalf("stream %s ended %s (error %+v)", id, final.State, final.Error)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := m.Drain(ctx); err != nil {
		t.Fatal(err)
	}
}
