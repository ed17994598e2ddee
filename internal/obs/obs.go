// Package obs is Perspector's pipeline telemetry layer: a Recorder
// carried through context.Context collects nested spans (run → suite →
// stage → workload) with wall time, attributes and counters, and renders
// them three ways — a Chrome trace-event JSON file viewable in Perfetto
// (WriteTrace), a JSON run manifest summarizing per-stage durations and
// pool utilization (Manifest), and an aggregate Fold that perspectord
// merges into its /metrics exposition at job completion.
//
// The package is named obs rather than trace to avoid colliding with
// internal/trace, the counter-trace-file package.
//
// # Design rules
//
//   - Telemetry must never change scores. Spans only observe timestamps;
//     they are outside every numeric path, and the golden equivalence
//     test runs with a live recorder attached to prove it.
//   - A nil recorder costs one pointer check. Start looks up the context
//     once and returns a zero Span when no recorder is attached; every
//     Span and Recorder method is nil-safe, so instrumented code carries
//     no conditionals.
//   - Span collection is allocation-bounded. Records live in preallocated
//     fixed-size chunks that never move (so a Span handle can write its
//     end timestamp without holding the recorder lock), and a hard span
//     cap turns overflow into a dropped-span counter instead of
//     unbounded growth.
//
// Concurrency: StartSpan allocates a record slot under the recorder
// mutex; the returned Span is then owned by the starting goroutine,
// which alone writes the end timestamp and attributes. Readers
// (WriteTrace, Manifest, Fold) must run after the instrumented work has
// completed — in practice after the worker-pool WaitGroup, which
// provides the happens-before edge.
package obs

import (
	"context"
	"strconv"
	"sync"
	"time"
)

// WorkerSpan is the span name the worker pool records one span per
// worker under; Fold routes these into per-worker busy time rather than
// the stage aggregates, and WriteTrace labels their tracks "worker N".
const WorkerSpan = "pool.worker"

// Names of the counters the caching measurement source maintains; the
// manifest derives its cache hit ratio from them.
const (
	CounterCacheHits   = "cache.hits"
	CounterCacheMisses = "cache.misses"
)

// Names of the trend stage's work counters (metric.Artifacts.TrendDists):
// DTW distances computed, affected pairs answered from an identical
// series' distance instead, and DP cells evaluated.
const (
	CounterDTWPairs       = "dtw.pairs"
	CounterDTWPairsReused = "dtw.pairs_reused"
	CounterDTWCells       = "dtw.cells"
)

// Names of the cluster stage's work counters (the ClusterScore k-means
// sweep): k-means++ restarts, Lloyd iterations run over all restarts,
// iterations a cycle fast-forward skipped, and point-to-point distances
// the silhouettes read.
const (
	CounterKMeansRestarts     = "kmeans.restarts"
	CounterKMeansIters        = "kmeans.iters"
	CounterKMeansItersSkipped = "kmeans.iters_skipped"
	CounterSilhouettePairs    = "silhouette.pairs"
)

// Names of the simulator's work counters (uarch.Machine.RunContext): the
// memory references, branches and syscalls a run's program emitted.
const (
	CounterSimInstrMem     = "sim.instr.mem"
	CounterSimInstrBranch  = "sim.instr.branch"
	CounterSimInstrSyscall = "sim.instr.syscall"
)

// maxAttrs is the per-span attribute capacity. Spans carry a small fixed
// set (suite, workload, metric, cache verdict); overflow is dropped
// rather than allocated.
const maxAttrs = 4

// chunkSize is the span-arena chunk length. Chunks are allocated whole
// and never reallocated, so record pointers stay valid for the life of
// the recorder.
const chunkSize = 512

// DefaultMaxSpans bounds a recorder's arena. A full compare run over the
// six stock suites records a few thousand spans; the default leaves an
// order of magnitude of headroom while capping worst-case memory at a
// few MiB.
const DefaultMaxSpans = 1 << 16

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string
	Value string
}

// String builds a string attribute.
func String(k, v string) Attr { return Attr{Key: k, Value: v} }

// Int builds an integer attribute.
func Int(k string, v int) Attr { return Attr{Key: k, Value: strconv.Itoa(v)} }

// spanRecord is one collected span. Start/end are nanoseconds since the
// recorder epoch (monotonic). worker is -1 when the span is not bound to
// a pool worker.
type spanRecord struct {
	id     int32
	parent int32
	worker int32
	nattr  int32
	name   string
	start  int64
	end    int64
	attrs  [maxAttrs]Attr
}

// Recorder collects spans and counters for one run (one CLI invocation
// or one perspectord job). Create with NewRecorder; attach to a context
// with WithRecorder.
type Recorder struct {
	epoch time.Time // wall+monotonic; all span times are offsets from it

	mu       sync.Mutex
	chunks   [][]spanRecord
	n        int
	max      int
	dropped  int64
	counters map[string]int64
}

// NewRecorder returns an empty recorder bounded at DefaultMaxSpans.
func NewRecorder() *Recorder {
	return NewRecorderBounded(DefaultMaxSpans)
}

// NewRecorderBounded returns an empty recorder that keeps at most
// maxSpans spans; further Start calls count as dropped.
func NewRecorderBounded(maxSpans int) *Recorder {
	if maxSpans < 1 {
		maxSpans = 1
	}
	return &Recorder{
		epoch:    time.Now(),
		max:      maxSpans,
		counters: make(map[string]int64),
	}
}

// since returns nanoseconds since the recorder epoch (monotonic).
func (r *Recorder) since() int64 { return int64(time.Since(r.epoch)) }

// alloc claims the next span slot. Returns nil when the recorder is at
// its span bound (the drop is counted).
func (r *Recorder) alloc(name string, parent int32) *spanRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.n >= r.max {
		r.dropped++
		return nil
	}
	if r.n%chunkSize == 0 {
		size := chunkSize
		if remain := r.max - r.n; remain < size {
			size = remain
		}
		r.chunks = append(r.chunks, make([]spanRecord, 0, size))
	}
	c := &r.chunks[len(r.chunks)-1]
	*c = append(*c, spanRecord{id: int32(r.n), parent: parent, worker: -1, name: name})
	rec := &(*c)[len(*c)-1]
	r.n++
	return rec
}

// Count adds delta to the named counter. Nil-safe.
func (r *Recorder) Count(name string, delta int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.counters[name] += delta
	r.mu.Unlock()
}

// Counters returns a copy of the counter map. Nil-safe (returns nil).
func (r *Recorder) Counters() map[string]int64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int64, len(r.counters))
	for k, v := range r.counters {
		out[k] = v
	}
	return out
}

// Len returns the number of collected spans.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// Dropped returns the number of spans rejected at the arena bound.
func (r *Recorder) Dropped() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// snapshot copies the collected records, closing any still-open span at
// the current time so downstream math never sees end < start.
func (r *Recorder) snapshot() []spanRecord {
	now := r.since()
	r.mu.Lock()
	out := make([]spanRecord, 0, r.n)
	for _, c := range r.chunks {
		out = append(out, c...)
	}
	r.mu.Unlock()
	for i := range out {
		if out[i].end == 0 {
			out[i].end = now
		}
		if out[i].end < out[i].start {
			out[i].end = out[i].start
		}
	}
	return out
}

// Span is a handle on one started span. The zero Span (from a context
// without a recorder, or past the span bound) is valid and does nothing.
type Span struct {
	r   *Recorder
	rec *spanRecord
}

// End stamps the span's end time. Calling End more than once keeps the
// first stamp.
func (s Span) End() {
	if s.rec == nil || s.rec.end != 0 {
		return
	}
	s.rec.end = s.r.since()
}

// SetWorker binds the span to a pool worker id (its trace track).
func (s Span) SetWorker(w int) {
	if s.rec == nil {
		return
	}
	s.rec.worker = int32(w)
}

// SetAttr adds an attribute to the span; beyond the per-span capacity
// the attribute is dropped. Only the goroutine that started the span may
// call it.
func (s Span) SetAttr(k, v string) {
	if s.rec == nil || s.rec.nattr >= maxAttrs {
		return
	}
	s.rec.attrs[s.rec.nattr] = Attr{Key: k, Value: v}
	s.rec.nattr++
}

// ctxKey carries the recorder and the current span through a context.
type ctxKey struct{}

type spanCtx struct {
	r  *Recorder
	id int32
}

// WithRecorder returns a context carrying r as the active recorder. A
// nil r returns ctx unchanged.
func WithRecorder(ctx context.Context, r *Recorder) context.Context {
	if r == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, spanCtx{r: r, id: -1})
}

// FromContext returns the recorder attached to ctx, or nil.
func FromContext(ctx context.Context) *Recorder {
	sc, _ := ctx.Value(ctxKey{}).(spanCtx)
	return sc.r
}

// Start begins a span named name as a child of ctx's current span and
// returns a derived context carrying it. Without a recorder on ctx (the
// common fast path) it returns ctx unchanged and a zero Span.
func Start(ctx context.Context, name string, attrs ...Attr) (context.Context, Span) {
	sc, _ := ctx.Value(ctxKey{}).(spanCtx)
	if sc.r == nil {
		return ctx, Span{}
	}
	rec := sc.r.alloc(name, sc.id)
	if rec == nil {
		return ctx, Span{}
	}
	for _, a := range attrs {
		if rec.nattr >= maxAttrs {
			break
		}
		rec.attrs[rec.nattr] = a
		rec.nattr++
	}
	rec.start = sc.r.since()
	return context.WithValue(ctx, ctxKey{}, spanCtx{r: sc.r, id: rec.id}), Span{r: sc.r, rec: rec}
}

// StartWorker begins a pool-worker span bound to worker id w — the spans
// Fold turns into per-worker busy time and WriteTrace into one track per
// worker. The derived context parents subsequent spans under it.
func StartWorker(ctx context.Context, w int) (context.Context, Span) {
	ctx, sp := Start(ctx, WorkerSpan)
	sp.SetWorker(w)
	return ctx, sp
}
