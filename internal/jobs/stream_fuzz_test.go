package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
	"time"
)

// FuzzStreamChunk decodes arbitrary bytes into a StreamChunk with the
// strict decoder the server uses and appends it to an open two-suite
// stream. Nothing may panic, on admission or while the stream applies
// and rescores the chunk; a rejected chunk leaves the stream's key,
// chunk count and backlog as they were, and an accepted one advances
// the chunk count by exactly one.
func FuzzStreamChunk(f *testing.F) {
	ragged := StreamChunk{Suite: "a", Workloads: []ChunkWorkload{chunkWorkload(1, "w", 3)}}
	ragged.Workloads[0].Series[1] = ragged.Workloads[0].Series[1][:1]
	seeds := []StreamChunk{
		// Accepted shapes from stream_test.go.
		{Suite: "a", Workloads: []ChunkWorkload{chunkWorkload(1, "w0", 4), chunkWorkload(2, "w1", 4)}},
		{Suite: "b", Workloads: []ChunkWorkload{chunkWorkload(3, "w2", 5)}},
		{Suite: "a", Workloads: []ChunkWorkload{chunkWorkload(4, "w1", 0)}},
		// The chunks TestStreamValidation rejects.
		{},
		{Suite: "c", Workloads: []ChunkWorkload{{Name: "w"}}},
		{Suite: "a"},
		{Suite: "a", Workloads: []ChunkWorkload{{Name: ""}}},
		{Suite: "a", Workloads: []ChunkWorkload{{Name: "w", Totals: []uint64{1}}}},
		{Suite: "a", Workloads: []ChunkWorkload{{Name: "w", Series: [][]float64{{1, 2}}}}},
		ragged,
	}
	for _, c := range seeds {
		b, err := json.Marshal(c)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{"suite":"a","workloads":[{"name":"w","extra":1}]}`))
	f.Add([]byte(`{"workloads":[]}{"workloads":[]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var c StreamChunk
		if DecodeStrict(bytes.NewReader(data), &c) != nil {
			return
		}
		m := NewStreamManager(StreamOptions{})
		open, err := m.Open(StreamOpenRequest{Suites: []string{"a", "b"}, SampleInterval: streamTestInterval})
		if err != nil {
			t.Fatal(err)
		}
		got, err := m.Append(open.ID, c)
		if err != nil {
			m.mu.Lock()
			backlog := len(m.streams[open.ID].pending)
			m.mu.Unlock()
			if got.Key != open.Key || got.Chunks != open.Chunks || backlog != 0 {
				t.Fatalf("rejected chunk (%v) changed the stream: key %s→%s, chunks %d→%d, backlog %d",
					err, open.Key, got.Key, open.Chunks, got.Chunks, backlog)
			}
		} else if got.Chunks != open.Chunks+1 {
			t.Fatalf("accepted chunk moved the chunk count %d→%d", open.Chunks, got.Chunks)
		}
		// Seal and wait: the chunk is applied and rescored before the
		// stream ends, so a panic there fails the target too.
		if _, err := m.Close(open.ID); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := m.Drain(ctx); err != nil {
			t.Fatalf("drain: %v", err)
		}
	})
}
