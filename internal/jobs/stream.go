package jobs

// Streaming scoring: a stream is a long-lived scoring job whose input
// arrives in chunks. A client opens a stream naming the suites it will
// feed, POSTs counter/series chunks as workloads execute, and long-polls
// evolving ScoreSets; each chunk batch re-scores through
// metric.IncrementalRun, which updates the cached artifacts (bounds,
// distance matrix, pairwise DTW, joint normalization) instead of
// rebuilding them — so a chunk's rescore costs the delta, not the full
// O(n²·DTW) pipeline, while staying bit-identical to a one-shot batch
// score of the accumulated data.
//
// Streams carry the queue's service-grade behaviours: content-addressed
// stream keys (a SHA-256 chain over the open request and every accepted
// chunk, so the same open + chunk sequence addresses the same result),
// cancellation (DELETE cancels the rescore context mid-flight), and
// drain (open streams are closed gracefully, finishing queued chunks
// within the deadline; stragglers are cancelled). No stream goroutine
// outlives Drain.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"maps"
	"time"

	"perspector/internal/metric"
	"perspector/internal/obs"
	"perspector/internal/perf"
	"perspector/internal/store"
)

// streamKeySchema versions the stream content-address chain; bump it
// whenever the chunk schema or fold order changes meaning.
const streamKeySchema = 1

// Stream admission and shape bounds.
const (
	// MaxStreamSuites bounds the suites one stream may feed.
	MaxStreamSuites = 16
	// MaxChunkWorkloads bounds the workload entries in one chunk.
	MaxChunkWorkloads = 1024
	// DefaultMaxStreams is the default concurrent-stream admission bound.
	DefaultMaxStreams = 64
	// DefaultMaxPending is the default per-stream backlog of accepted but
	// not yet applied chunks.
	DefaultMaxPending = 256
)

// Stream errors a transport maps to client-visible statuses.
var (
	// ErrStreamNotFound marks an unknown stream ID (HTTP 404).
	ErrStreamNotFound = errors.New("jobs: no such stream")
	// ErrStreamClosed rejects chunks for a stream that is no longer open
	// (HTTP 409).
	ErrStreamClosed = errors.New("jobs: stream is not open")
	// ErrStreamLimit rejects opens past the admission bound (HTTP 429).
	ErrStreamLimit = errors.New("jobs: too many active streams")
	// ErrStreamBacklog rejects chunks when a stream's unapplied backlog
	// is full (HTTP 429): the producer outruns the rescore loop.
	ErrStreamBacklog = errors.New("jobs: stream backlog is full")
)

// StreamState is a stream's position in its lifecycle:
//
//	open → closing → done | failed
//	open/closing → canceled
type StreamState = State

const (
	StreamOpen     StreamState = "open"
	StreamClosing  StreamState = "closing"
	StreamDone                 = StateDone
	StreamFailed               = StateFailed
	StreamCanceled             = StateCanceled
)

// StreamStates lists every state, for metrics exposition in fixed order.
func StreamStates() []StreamState {
	return []StreamState{StreamOpen, StreamClosing, StreamDone, StreamFailed, StreamCanceled}
}

// StreamOpenRequest opens a stream. Group and Counters have the same
// defaults as a scoring job: event group "all", chunk columns covering
// every Table-IV counter.
type StreamOpenRequest struct {
	// Suites names the measured systems this stream feeds, in order. One
	// suite scores on its own normalization (kind "score"); several score
	// under joint normalization (kind "compare"), and a chunk for one
	// suite re-normalizes the others only when it moves a joint bound.
	Suites []string `json:"suites"`
	// Group selects the focused event group to score: "all", "llc", "tlb".
	Group string `json:"group,omitempty"`
	// Counters names the chunk columns (perf-style event names). Chunk
	// totals/series rows are parallel to this list. Defaults to all
	// Table-IV counters.
	Counters []string `json:"counters,omitempty"`
	// SampleInterval is the instruction distance between series samples,
	// recorded on the accumulated measurement.
	SampleInterval uint64 `json:"sample_interval,omitempty"`
}

// StreamChunk is one increment of measurement data.
type StreamChunk struct {
	// Suite names the suite the chunk belongs to; optional when the
	// stream feeds exactly one.
	Suite string `json:"suite,omitempty"`
	// Workloads carries per-workload increments. A name not seen before
	// appends a new workload; a known name accumulates into it.
	Workloads []ChunkWorkload `json:"workloads"`
}

// ChunkWorkload is the increment for one workload.
type ChunkWorkload struct {
	// Name identifies the workload within its suite.
	Name string `json:"name"`
	// Totals are per-counter event-count deltas, parallel to the
	// stream's counters; omitted means no counter growth in this chunk.
	Totals []uint64 `json:"totals,omitempty"`
	// Series are sampled per-counter delta series to append, parallel to
	// the stream's counters (Series[k][t] is counter k's delta in
	// appended sample t).
	Series [][]float64 `json:"series,omitempty"`
}

// StreamSnapshot is the client-visible view of a stream.
type StreamSnapshot struct {
	ID    string      `json:"id"`
	State StreamState `json:"state"`
	// Kind is store.KindScore or store.KindCompare, from the suite count.
	Kind   string   `json:"kind"`
	Suites []string `json:"suites"`
	Group  string   `json:"group"`
	// Key is the content address of the accepted chunk sequence so far:
	// a SHA-256 chain over the normalized open request and every chunk,
	// in order. Two streams fed identical data share every prefix key.
	Key string `json:"key"`
	// Chunks counts accepted chunks; Seq counts published score
	// versions (0 = none yet).
	Chunks int   `json:"chunks"`
	Seq    int64 `json:"seq"`
	// Workloads counts accumulated workloads per suite.
	Workloads []int `json:"workloads"`
	// Error is the most recent rescore failure (a stream stays open
	// across a failed rescore — later chunks may repair it), or the
	// terminal failure.
	Error      *ErrorInfo `json:"error,omitempty"`
	CreatedAt  time.Time  `json:"created_at"`
	FinishedAt *time.Time `json:"finished_at,omitempty"`
}

// StreamScores is the long-poll response: the snapshot plus the latest
// published ScoreSet (absent until the first successful rescore).
type StreamScores struct {
	StreamSnapshot
	Scores *store.ScoreSet `json:"scores,omitempty"`
}

// StreamOptions configures a StreamManager.
type StreamOptions struct {
	// Store receives each finished stream's final ScoreSet under its
	// content-addressed stream key. Nil disables persistence.
	Store *store.Store
	// MaxStreams bounds concurrently live (non-terminal) streams;
	// 0 means DefaultMaxStreams.
	MaxStreams int
	// MaxPending bounds each stream's backlog of accepted but unapplied
	// chunks; 0 means DefaultMaxPending.
	MaxPending int
	// Log receives lifecycle events. Nil discards them.
	Log *slog.Logger
}

// StreamManager owns every stream's lifecycle and the rescore loops.
type StreamManager struct {
	lifecycle[*Stream]
	opt     StreamOptions
	streams map[string]*Stream // the lifecycle's byID map, by its stream name

	// Telemetry, guarded by mu: rescore-latency histogram, accepted
	// chunk count, and admission rejections.
	rescores    obs.StageAgg
	chunksTotal int64
	rejected    int64
}

// Stream is the manager's record of one stream. All mutable fields are
// guarded by the manager mutex; the rescore goroutine owns run and
// touches it outside the lock (handlers never do).
type Stream struct {
	entry
	m   *StreamManager
	key string

	kind     string
	suites   []string
	group    string
	counters []perf.Counter
	interval uint64

	run     *metric.IncrementalRun
	looping bool // the rescore goroutine is running (see wakeLocked)

	pending []StreamChunk
	chunks  int
	seq     int64
	// workloads counts each suite's workloads at the latest publish, so
	// snapshots need not read run.
	workloads []int
	scores    *store.ScoreSet
	lastErr   *ErrorInfo

	ctx    context.Context
	cancel context.CancelFunc
	// notify is closed (and replaced) at every publish and at the end;
	// long-pollers grab the current channel and wait.
	notify chan struct{}
}

// NewStreamManager builds a manager; streams are admitted via Open.
func NewStreamManager(opt StreamOptions) *StreamManager {
	if opt.MaxStreams <= 0 {
		opt.MaxStreams = DefaultMaxStreams
	}
	if opt.MaxPending <= 0 {
		opt.MaxPending = DefaultMaxPending
	}
	m := &StreamManager{opt: opt}
	m.init("stream", ErrStreamNotFound, opt.Log)
	m.streams = m.byID
	return m
}

// Open admits a new stream; its rescore goroutine starts with the first
// accepted chunk or the seal.
func (m *StreamManager) Open(req StreamOpenRequest) (StreamSnapshot, error) {
	if len(req.Suites) == 0 {
		return StreamSnapshot{}, fmt.Errorf("jobs: stream needs at least one suite")
	}
	if len(req.Suites) > MaxStreamSuites {
		return StreamSnapshot{}, fmt.Errorf("jobs: stream names %d suites, max %d", len(req.Suites), MaxStreamSuites)
	}
	seen := make(map[string]bool, len(req.Suites))
	for _, s := range req.Suites {
		if s == "" {
			return StreamSnapshot{}, fmt.Errorf("jobs: stream suite name is empty")
		}
		if seen[s] {
			return StreamSnapshot{}, fmt.Errorf("jobs: stream suite %q listed twice", s)
		}
		seen[s] = true
	}
	if req.Group == "" {
		req.Group = "all"
	}
	group, err := perf.GroupByName(req.Group)
	if err != nil {
		return StreamSnapshot{}, fmt.Errorf("jobs: %w", err)
	}
	counters := perf.AllCounters()
	if len(req.Counters) > 0 {
		counters = make([]perf.Counter, len(req.Counters))
		cseen := make(map[perf.Counter]bool, len(req.Counters))
		for i, name := range req.Counters {
			c, err := perf.ParseCounter(name)
			if err != nil {
				return StreamSnapshot{}, fmt.Errorf("jobs: %w", err)
			}
			if cseen[c] {
				return StreamSnapshot{}, fmt.Errorf("jobs: stream counter %q listed twice", name)
			}
			cseen[c] = true
			counters[i] = c
		}
	}

	kind := store.KindScore
	if len(req.Suites) > 1 {
		kind = store.KindCompare
	}
	opts := metric.DefaultOptions()
	opts.Counters = group.Counters
	sms := make([]*perf.SuiteMeasurement, len(req.Suites))
	for i, name := range req.Suites {
		sms[i] = &perf.SuiteMeasurement{Suite: name}
	}
	run, err := metric.NewIncrementalRun(sms, opts, nil)
	if err != nil {
		return StreamSnapshot{}, err
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.gateLocked(); err != nil {
		return StreamSnapshot{}, err
	}
	if m.liveLocked() >= m.opt.MaxStreams {
		m.rejected++
		return StreamSnapshot{}, ErrStreamLimit
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Stream{
		m:         m,
		key:       openKey(&req),
		kind:      kind,
		suites:    append([]string(nil), req.Suites...),
		group:     req.Group,
		counters:  counters,
		interval:  req.SampleInterval,
		run:       run,
		workloads: make([]int, len(req.Suites)),
		ctx:       ctx,
		cancel:    cancel,
		notify:    make(chan struct{}),
	}
	m.addLocked(s, StreamOpen)
	m.log.Info("stream opened", "stream", s.id, "kind", kind, "suites", s.suites, "group", s.group)
	return s.snapshotLocked(), nil
}

// Append accepts one chunk into the stream's backlog; the rescore
// goroutine folds backlogged chunks into the measurement in acceptance
// order (coalescing bursts into one rescore) and publishes a new score
// version. The stream's content key advances over the accepted chunk
// before the rescore runs, so the key identifies the *input* sequence.
func (m *StreamManager) Append(id string, chunk StreamChunk) (StreamSnapshot, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, err := m.lookupLocked(id)
	if err != nil {
		return StreamSnapshot{}, err
	}
	if s.state != StreamOpen {
		return s.snapshotLocked(), ErrStreamClosed
	}
	if err := s.validateChunk(&chunk); err != nil {
		return s.snapshotLocked(), err
	}
	if len(s.pending) >= m.opt.MaxPending {
		m.rejected++
		return s.snapshotLocked(), ErrStreamBacklog
	}
	s.key = chainKey(s.key, &chunk)
	s.chunks++
	m.chunksTotal++
	s.pending = append(s.pending, chunk)
	m.wakeLocked(s)
	return s.snapshotLocked(), nil
}

// Close seals the stream: backlogged chunks still apply, a final score
// version is published (and persisted to the result store under the
// stream key), and the stream reaches "done" — or "failed" if the final
// rescore failed.
func (m *StreamManager) Close(id string) (StreamSnapshot, error) {
	return withEntry(&m.lifecycle, id, func(s *Stream) StreamSnapshot {
		m.sealLocked(s)
		return s.snapshotLocked()
	})
}

// Cancel aborts the stream: the backlog is dropped, a rescore in flight
// has its context cancelled, and the stream reaches "canceled". Already
// terminal streams are left as they are.
func (m *StreamManager) Cancel(id string) (StreamSnapshot, error) {
	return withEntry(&m.lifecycle, id, func(s *Stream) StreamSnapshot {
		m.finishLocked(s, StreamCanceled)
		return s.snapshotLocked()
	})
}

// Get returns a stream's snapshot.
func (m *StreamManager) Get(id string) (StreamSnapshot, error) {
	return withEntry(&m.lifecycle, id, (*Stream).snapshotLocked)
}

// List returns every stream's snapshot in open order.
func (m *StreamManager) List() []StreamSnapshot {
	return list(&m.lifecycle, (*Stream).snapshotLocked)
}

// Scores long-polls the stream: it returns as soon as the published
// score version exceeds since, or the stream is terminal, or ctx fires.
// since=0 returns the first published version; polling with the last
// seen Seq tails the evolving scores.
func (m *StreamManager) Scores(ctx context.Context, id string, since int64) (StreamScores, error) {
	m.mu.Lock()
	for {
		s, err := m.lookupLocked(id)
		if err != nil {
			m.mu.Unlock()
			return StreamScores{}, err
		}
		if s.seq > since || s.state.Terminal() {
			out := StreamScores{StreamSnapshot: s.snapshotLocked(), Scores: s.scores}
			m.mu.Unlock()
			return out, nil
		}
		ch := s.notify
		m.mu.Unlock()
		select {
		case <-ctx.Done():
			return StreamScores{}, ctx.Err()
		case <-ch:
		}
		m.mu.Lock()
	}
}

// Drain stops admission and winds every stream down: open streams are
// sealed (their backlog still applies and a final version publishes,
// exactly as Close), and the manager waits for every rescore goroutine
// — up to ctx's deadline, after which the stragglers are cancelled and
// waited out. No stream goroutine survives Drain.
func (m *StreamManager) Drain(ctx context.Context) error {
	return m.drain(ctx, func() {
		for _, s := range m.order {
			m.sealLocked(s)
		}
	}, func() {
		for _, s := range m.order {
			m.finishLocked(s, StreamCanceled)
		}
	})
}

// StreamTelemetry is the manager's metrics snapshot.
type StreamTelemetry struct {
	// States counts streams per lifecycle state.
	States map[StreamState]int
	// Active counts non-terminal streams.
	Active int
	// ChunksTotal counts accepted chunks; Rejected counts admissions
	// refused for backlog or stream-limit reasons.
	ChunksTotal int64
	Rejected    int64
	// Rescores aggregates rescore latency (shape of obs.DurationBuckets).
	Rescores obs.StageAgg
}

// Telemetry returns a consistent metrics snapshot.
func (m *StreamManager) Telemetry() StreamTelemetry {
	m.mu.Lock()
	defer m.mu.Unlock()
	return StreamTelemetry{
		States:      maps.Clone(m.counts),
		Active:      m.liveLocked(),
		ChunksTotal: m.chunksTotal,
		Rejected:    m.rejected,
		Rescores:    m.rescores,
	}
}

// validateChunk checks shape against the stream's counter list; called
// under the manager mutex at admission so a rejected chunk never
// advances the key or the backlog.
func (s *Stream) validateChunk(c *StreamChunk) error {
	if c.Suite == "" {
		if len(s.suites) > 1 {
			return fmt.Errorf("jobs: stream feeds %d suites; chunk must name one of them", len(s.suites))
		}
		c.Suite = s.suites[0]
	}
	if s.suiteIndex(c.Suite) < 0 {
		return fmt.Errorf("jobs: stream has no suite %q", c.Suite)
	}
	if len(c.Workloads) == 0 {
		return fmt.Errorf("jobs: chunk has no workloads")
	}
	if len(c.Workloads) > MaxChunkWorkloads {
		return fmt.Errorf("jobs: chunk has %d workloads, max %d", len(c.Workloads), MaxChunkWorkloads)
	}
	for i := range c.Workloads {
		w := &c.Workloads[i]
		if w.Name == "" {
			return fmt.Errorf("jobs: chunk workload %d has no name", i)
		}
		if w.Totals != nil && len(w.Totals) != len(s.counters) {
			return fmt.Errorf("jobs: workload %q totals has %d entries, stream has %d counters",
				w.Name, len(w.Totals), len(s.counters))
		}
		if w.Series != nil {
			if len(w.Series) != len(s.counters) {
				return fmt.Errorf("jobs: workload %q series has %d rows, stream has %d counters",
					w.Name, len(w.Series), len(s.counters))
			}
			for k := 1; k < len(w.Series); k++ {
				if len(w.Series[k]) != len(w.Series[0]) {
					return fmt.Errorf("jobs: workload %q series rows have unequal lengths (%d vs %d)",
						w.Name, len(w.Series[k]), len(w.Series[0]))
				}
			}
		}
	}
	return nil
}

func (s *Stream) suiteIndex(name string) int {
	for i, n := range s.suites {
		if n == name {
			return i
		}
	}
	return -1
}

// loop is the stream's rescore goroutine: it folds backlogged chunks
// into the incremental run, publishing a version per batch, until the
// backlog is empty, or takes the final transition once the stream is
// sealed. A stream a Cancel or drain abort ended stops it.
func (s *Stream) loop() {
	m := s.m
	defer m.wg.Done()
	for {
		m.mu.Lock()
		state, batch := s.state, s.pending
		s.pending = nil
		if state.Terminal() || (state == StreamOpen && len(batch) == 0) {
			s.looping = false
			m.mu.Unlock()
			return
		}
		m.mu.Unlock()

		var err error
		if len(batch) > 0 {
			if err = s.apply(batch); err == nil {
				s.rescore()
			}
		}
		// Once sealed, the batch above was the last.
		if err != nil || state == StreamClosing {
			s.finalize(err)
			return
		}
	}
}

// finalize takes the stream's final transition: failed when its chunks
// could not be applied (applyErr) or its last version is an error, else
// done with that version persisted. A stream a Cancel or drain abort
// already ended keeps that state, and nothing is persisted.
func (s *Stream) finalize(applyErr error) {
	m := s.m
	if applyErr == nil && s.seq == 0 {
		// Closed before any chunk: publish one version of the empty
		// stream so pollers see the (failed) outcome.
		s.rescore()
	}
	m.mu.Lock()
	var perr error
	switch {
	case s.state.Terminal():
	case applyErr != nil:
		// Chunk admission validates shape, so an apply error means the
		// stream's data model broke: the stream fails for good.
		s.lastErr = errorInfo(applyErr)
		m.finishLocked(s, StreamFailed)
	case s.lastErr != nil:
		m.finishLocked(s, StreamFailed)
	default:
		// The last version succeeded, so scores is set. Persisting under
		// the lock makes storing it and winning the transition to done
		// one step.
		perr = m.opt.Store.Put(s.key, *s.scores)
		m.finishLocked(s, StreamDone)
	}
	m.mu.Unlock()
	if perr != nil {
		m.log.Warn("stream result not persisted", "stream", s.id, "error", perr)
	}
}

// apply folds a chunk batch into the incremental run. Runs outside the
// manager lock: the loop goroutine is the run's only user.
func (s *Stream) apply(batch []StreamChunk) error {
	for ci := range batch {
		c := &batch[ci]
		si := s.suiteIndex(c.Suite)
		for wi := range c.Workloads {
			w := &c.Workloads[wi]
			var totals perf.Values
			for k, v := range w.Totals {
				totals[s.counters[k]] += v
			}
			var series *perf.TimeSeries
			if len(w.Series) > 0 && len(w.Series[0]) > 0 {
				series = &perf.TimeSeries{Interval: s.interval}
				for k, row := range w.Series {
					series.Samples[s.counters[k]] = append([]float64(nil), row...)
				}
			}
			if s.run.WorkloadIndex(si, w.Name) < 0 {
				meas := perf.Measurement{Workload: w.Name, Totals: totals}
				if series != nil {
					meas.Series = *series
				}
				if err := s.run.AppendWorkload(si, meas); err != nil {
					return err
				}
				continue
			}
			if err := s.run.AppendSamples(si, w.Name, totals, series); err != nil {
				return err
			}
		}
	}
	return nil
}

// rescore computes and publishes the next score version. A failed
// rescore publishes the error instead (the stream stays open: more data
// may repair it — e.g. the joint normalization needs every suite
// non-empty). Latency feeds the manager's histogram either way.
func (s *Stream) rescore() {
	start := time.Now()
	scores, err := s.run.Scores(s.ctx)
	elapsed := time.Since(start).Seconds()

	m := s.m
	m.mu.Lock()
	m.rescores.Observe(elapsed)
	for i := range s.workloads {
		s.workloads[i] = len(s.run.Measurement(i).Workloads)
	}
	s.seq++
	if err != nil {
		s.lastErr = errorInfo(err)
	} else {
		s.lastErr = nil
		set := store.New(s.kind, s.group, "stream", nil, scores)
		s.scores = &set
	}
	close(s.notify)
	s.notify = make(chan struct{})
	m.mu.Unlock()
}

// sealLocked moves an open stream to closing: no more chunks are
// admitted, and its loop applies the backlog and takes the final
// transition.
func (m *StreamManager) sealLocked(s *Stream) {
	if s.state == StreamOpen {
		m.moveLocked(s, StreamClosing)
		m.wakeLocked(s)
	}
}

// wakeLocked starts the stream's rescore goroutine unless it is already
// running; a running one picks up new work before it exits.
func (m *StreamManager) wakeLocked(s *Stream) {
	if !s.looping {
		s.looping = true
		m.wg.Add(1)
		go s.loop()
	}
}

// finishLocked takes the stream's terminal transition (the first one
// wins): the backlog is dropped, a rescore in flight is cancelled, and
// long-pollers wake. It reports whether state won.
func (m *StreamManager) finishLocked(s *Stream, state StreamState) bool {
	if !m.endLocked(s, state, "chunks", s.chunks, "versions", s.seq) {
		return false
	}
	s.pending = nil
	s.cancel()
	close(s.notify)
	s.notify = make(chan struct{})
	return true
}

// snapshotLocked renders the client view; the manager mutex must be held.
func (s *Stream) snapshotLocked() StreamSnapshot {
	snap := StreamSnapshot{
		ID:        s.id,
		State:     s.state,
		Kind:      s.kind,
		Suites:    append([]string(nil), s.suites...),
		Group:     s.group,
		Key:       s.key,
		Chunks:    s.chunks,
		Seq:       s.seq,
		Workloads: append([]int(nil), s.workloads...),
		Error:     s.lastErr,
		CreatedAt: s.createdAt,
	}
	if !s.finishedAt.IsZero() {
		t := s.finishedAt
		snap.FinishedAt = &t
	}
	return snap
}

// openKey starts the stream's content-address chain: a SHA-256 over the
// schema tag and the normalized open request.
func openKey(req *StreamOpenRequest) string {
	h := sha256.New()
	fmt.Fprintf(h, "perspector-stream-schema=%d\n", streamKeySchema)
	enc, _ := json.Marshal(req)
	h.Write(enc)
	return hex.EncodeToString(h.Sum(nil))
}

// chainKey advances the chain over one accepted chunk: the new key
// hashes the previous key and the chunk's canonical JSON, so the key
// after chunk i addresses the exact (open, chunk₁..chunkᵢ) sequence.
func chainKey(prev string, chunk *StreamChunk) string {
	h := sha256.New()
	h.Write([]byte(prev))
	h.Write([]byte("\n"))
	enc, _ := json.Marshal(chunk)
	h.Write(enc)
	return hex.EncodeToString(h.Sum(nil))
}
