// Package jobs is perspectord's job queue: scoring requests are
// submitted, executed on a bounded number of workers, and their results
// appended to the durable store. The queue owns the whole job lifecycle:
//
//	queued → running → done | failed | canceled
//
// Three service-grade behaviours live here rather than in the HTTP
// layer, so they hold for any transport:
//
//   - Deduplication. Requests are content-addressed (the same hash
//     family as internal/cache, extended with the scoring parameters).
//     Submitting a request identical to one already queued or running
//     returns the existing job instead of queueing twice; submitting one
//     whose result is already in the store completes instantly from the
//     stored document ("replayed").
//   - Cancellation. A queued job is removed from the pending list and
//     never starts; a running job has its context cancelled, which flows
//     through the engine's par.DoErr fan-outs into the simulator loops,
//     so it stops within one sample batch.
//   - Drain. Drain stops admission, cancels everything still queued,
//     and waits for running jobs to finish — up to the caller's
//     deadline, after which the running contexts are cancelled too and
//     the workers are waited out. No goroutine outlives Drain.
//
// Failures are reported structurally: the engine's *stage.Error tags
// (stage, suite, workload) are lifted into the job snapshot, so a client
// can see *where* a job died without parsing message strings.
package jobs

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"log/slog"
	"maps"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"perspector/internal/cache"
	"perspector/internal/obs"
	"perspector/internal/stage"
	"perspector/internal/store"
)

// State is a job's or a stream's (StreamState) position in its
// lifecycle. The first terminal state an entry reaches is final.
type State string

const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// States lists every job state, for metrics exposition in a fixed order.
func States() []State {
	return []State{StateQueued, StateRunning, StateDone, StateFailed, StateCanceled}
}

// Terminal reports whether a job or stream in state s has finished.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Submission errors a transport maps to client-visible statuses.
var (
	// ErrDraining rejects submissions and stream opens during shutdown (HTTP 503).
	ErrDraining = errors.New("jobs: queue is draining")
	// ErrQueueFull rejects submissions past the admission bound (HTTP 429).
	ErrQueueFull = errors.New("jobs: queue is full")
	// ErrNotFound marks an unknown job ID (HTTP 404).
	ErrNotFound = errors.New("jobs: no such job")
)

// ErrorInfo is a job failure lifted into the snapshot: the engine's
// stage tag plus the rendered cause.
type ErrorInfo struct {
	Stage    string `json:"stage,omitempty"`
	Suite    string `json:"suite,omitempty"`
	Workload string `json:"workload,omitempty"`
	Message  string `json:"message"`
	Canceled bool   `json:"canceled,omitempty"`
}

// errorInfo lifts err into the snapshot form.
func errorInfo(err error) *ErrorInfo {
	info := &ErrorInfo{Message: err.Error(), Canceled: stage.Canceled(err)}
	var se *stage.Error
	if errors.As(err, &se) {
		info.Stage = string(se.Stage)
		info.Suite = se.Suite
		info.Workload = se.Workload
	}
	return info
}

// Job is the queue's internal record of one request. All mutable fields
// are guarded by the queue mutex; clients only ever see Snapshots.
type Job struct {
	entry
	key string
	req Request

	stage      string
	stageDone  int
	stageTotal int
	err        *ErrorInfo
	result     *store.ScoreSet
	replayed   bool
	deduped    int

	startedAt time.Time

	// instr counts simulated instructions retired by this job. Atomic:
	// the runner's measurement fan-out adds from worker goroutines while
	// snapshots read under the queue mutex.
	instr atomic.Uint64

	cancel context.CancelFunc
}

// Snapshot is the client-visible view of a job, safe to serialize.
type Snapshot struct {
	ID     string   `json:"id"`
	Key    string   `json:"key"`
	Kind   string   `json:"kind"`
	Group  string   `json:"group"`
	Suites []string `json:"suites,omitempty"`
	Trace  string   `json:"trace,omitempty"`
	// RequestID is the trace ID of the submitting HTTP request; the same
	// ID appears in every log line the job emits, on any node.
	RequestID string `json:"request_id,omitempty"`

	State State `json:"state"`
	// Stage is the engine stage the job is in (or died in): "measure",
	// "score", "store" — or "dispatch" on a fleet coordinator.
	Stage string `json:"stage,omitempty"`
	// StageDone/StageTotal are the progress within Stage (e.g. suites
	// measured out of suites requested).
	StageDone  int `json:"stage_done,omitempty"`
	StageTotal int `json:"stage_total,omitempty"`
	// Replayed marks a job served straight from the result store.
	Replayed bool `json:"replayed,omitempty"`
	// Deduped counts how many later submissions were folded into this job.
	Deduped int `json:"deduped,omitempty"`

	CreatedAt  string `json:"created_at"`
	StartedAt  string `json:"started_at,omitempty"`
	FinishedAt string `json:"finished_at,omitempty"`

	// Instructions is the simulated-instruction count retired on behalf
	// of this job so far (0 for replays and pure cache hits). A fleet
	// worker reports it back to the coordinator with the result, so the
	// coordinator's throughput EWMA reflects remote work.
	Instructions uint64 `json:"instructions,omitempty"`

	Error     *ErrorInfo `json:"error,omitempty"`
	HasResult bool       `json:"has_result"`
}

func stamp(t time.Time) string {
	if t.IsZero() {
		return ""
	}
	return t.UTC().Format(time.RFC3339Nano)
}

// Handle is the runner's view of its job: the request, progress
// reporting, and the simulated-instruction account.
type Handle struct {
	q   *Queue
	job *Job
}

// Request returns the normalized request being executed.
func (h *Handle) Request() Request { return h.job.req }

// Key returns the job's content address — what a fleet coordinator
// hashes onto the ring to pick the owning node.
func (h *Handle) Key() string { return h.job.key }

// SetStage enters a named stage with the given work-item total.
func (h *Handle) SetStage(name string, total int) {
	h.q.mu.Lock()
	h.job.stage = name
	h.job.stageDone = 0
	h.job.stageTotal = total
	h.q.mu.Unlock()
}

// Advance records n completed work items in the current stage.
func (h *Handle) Advance(n int) {
	h.q.mu.Lock()
	h.job.stageDone += n
	h.q.mu.Unlock()
}

// AddInstructions accounts n simulated instructions retired on behalf of
// this job (cache hits don't simulate, so they don't count).
func (h *Handle) AddInstructions(n uint64) {
	h.job.instr.Add(n)
	h.q.retired.Add(n)
}

// Runner executes one job: it measures and scores per the request and
// returns the result document. Implementations honour ctx and return
// stage-tagged errors; EngineRunner is the production implementation.
type Runner func(ctx context.Context, h *Handle) (store.ScoreSet, error)

// Options bounds the queue.
type Options struct {
	// Workers is the number of jobs that run concurrently (default 1).
	// Each running job still parallelizes internally via internal/par, so
	// this bounds memory and fairness, not CPU use.
	Workers int
	// MaxQueue is the number of jobs that may wait (default 64).
	MaxQueue int
	// Store receives every completed result; nil disables persistence
	// (and with it replay).
	Store *store.Store
	// Log receives job lifecycle events; nil discards them.
	Log *slog.Logger
}

// Queue runs jobs on a bounded worker set. Create with New, stop with
// Drain.
type Queue struct {
	lifecycle[*Job]
	run Runner
	opt Options

	pending []*Job
	// inflight maps a request's content key to its queued or running job,
	// the dedup index. Entries leave at terminal transitions.
	inflight map[string]*Job

	retired atomic.Uint64
	// telem accumulates each executed job's span fold: per-stage duration
	// histograms, queue wait, and per-worker busy time. Folding happens
	// once, at the job's terminal transition, and replayed jobs fold
	// nothing — the same replay-proof discipline as the instr/sec EWMA.
	telem *obs.Aggregator
	// instrPerSec is an exponentially weighted moving average of per-job
	// simulated-instruction throughput, folded at each terminal transition
	// of a job that simulated anything (guarded by mu). It answers "how
	// fast is the simulator under this service's real mix" — the serving
	// analogue of BENCH_history.jsonl's instr/sec trajectory.
	instrPerSec float64
	haveInstrPS bool
	// execJobs/execSeconds count jobs that actually executed (not
	// replays) and their total run seconds — the fallback basis for the
	// Retry-After estimate when no instruction rate is known yet.
	execJobs    int
	execSeconds float64
}

// New starts a queue with opt.Workers workers executing run.
func New(run Runner, opt Options) *Queue {
	if opt.Workers < 1 {
		opt.Workers = 1
	}
	if opt.MaxQueue < 1 {
		opt.MaxQueue = 64
	}
	q := &Queue{
		run:      run,
		opt:      opt,
		inflight: make(map[string]*Job),
		telem:    obs.NewAggregator(),
	}
	q.init("job", ErrNotFound, opt.Log)
	q.wg.Add(opt.Workers)
	for i := 0; i < opt.Workers; i++ {
		go q.worker()
	}
	return q
}

// Submit validates, normalizes and admits a request. The returned bool
// is true when the request was folded into an existing in-flight job
// (deduplicated) rather than queued anew.
func (q *Queue) Submit(req Request) (Snapshot, bool, error) {
	if err := req.Normalize(); err != nil {
		return Snapshot{}, false, err
	}
	key := req.Key()
	q.mu.Lock()
	defer q.mu.Unlock()
	if err := q.gateLocked(); err != nil {
		return Snapshot{}, false, err
	}
	if j, ok := q.inflight[key]; ok {
		j.deduped++
		q.log.Info("job deduplicated", "job", j.id, "key", key, "request_id", j.req.RequestID)
		return q.snapshotLocked(j), true, nil
	}
	if q.counts[StateQueued] >= q.opt.MaxQueue {
		return Snapshot{}, false, ErrQueueFull
	}
	j := &Job{key: key, req: req}
	q.addLocked(j, StateQueued)
	q.inflight[key] = j
	q.pending = append(q.pending, j)
	q.log.Info("job queued", "job", j.id, "key", key, "kind", req.Kind, "suites", req.Suites, "request_id", req.RequestID)
	q.cond.Signal()
	return q.snapshotLocked(j), false, nil
}

// worker pops pending jobs until Drain closes admission and the pending
// list is empty.
func (q *Queue) worker() {
	defer q.wg.Done()
	for {
		q.mu.Lock()
		for len(q.pending) == 0 && !q.draining {
			q.cond.Wait()
		}
		if len(q.pending) == 0 {
			q.mu.Unlock()
			return
		}
		j := q.pending[0]
		q.pending = q.pending[1:]

		// Replay: the durable store already has this exact request's
		// result; serve it without burning a simulation.
		if set, ok := q.opt.Store.Get(j.key); ok {
			j.startedAt = time.Now()
			j.replayed = true
			j.result = &set
			q.finishLocked(j, StateDone, nil)
			q.mu.Unlock()
			continue
		}

		ctx, cancel := context.WithCancel(context.Background())
		j.cancel = cancel
		q.moveLocked(j, StateRunning)
		j.startedAt = time.Now()
		q.mu.Unlock()
		q.log.Info("job started", "job", j.id, "key", j.key, "request_id", j.req.RequestID)

		// Each executed job gets its own recorder; its fold lands in the
		// queue aggregator at the terminal transition below. The replay
		// branch above never reaches here, so replays leave telemetry
		// untouched.
		rec := obs.NewRecorder()
		rctx := obs.WithRecorder(ctx, rec)
		rctx, jobSpan := obs.Start(rctx, "job",
			obs.String("kind", j.req.Kind), obs.String("group", j.req.Group),
			obs.String("request_id", j.req.RequestID))

		h := &Handle{q: q, job: j}
		set, err := q.run(rctx, h)
		cancel()

		if err == nil {
			h.SetStage("store", 1)
			_, stSpan := obs.Start(rctx, "store")
			if perr := q.opt.Store.Put(j.key, set); perr != nil {
				// The result is still good; losing durability is logged, not
				// fatal — the client gets its scores either way.
				q.log.Error("result store append failed", "job", j.id, "error", perr)
			}
			stSpan.End()
			h.Advance(1)
		}
		// Fold before the terminal transition: anyone woken by the done
		// channel (long-pollers, tests) observes the telemetry already
		// merged.
		jobSpan.End()
		q.foldTelemetry(j, rec)

		q.mu.Lock()
		switch {
		case err != nil && stage.Canceled(err):
			q.finishLocked(j, StateCanceled, err)
		case err != nil:
			q.finishLocked(j, StateFailed, err)
		default:
			j.result = &set
			q.finishLocked(j, StateDone, nil)
		}
		q.mu.Unlock()
	}
}

// foldTelemetry merges an executed job's recorder into the queue
// aggregator and emits the stage-completion log lines. Called without the
// queue mutex, after the job's terminal transition; j's timestamps are
// immutable by then.
func (q *Queue) foldTelemetry(j *Job, rec *obs.Recorder) {
	f := rec.Fold()
	q.telem.Add(f)
	if wait := j.startedAt.Sub(j.createdAt); wait >= 0 {
		q.telem.ObserveQueueWait(wait)
	}
	names := make([]string, 0, len(f.Stages))
	for name := range f.Stages {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		agg := f.Stages[name]
		q.log.Info("job stage completed",
			"job", j.id, "stage", name, "count", agg.Count, "seconds", agg.Sum)
	}
}

// Telemetry returns the queue's span-fold aggregator — the source behind
// the /metrics stage histograms, queue-wait histogram and
// worker-utilization gauges.
func (q *Queue) Telemetry() *obs.Aggregator { return q.telem }

// finishLocked takes j's terminal transition, then records the cause,
// drops the dedup entry and folds the job into the throughput averages.
func (q *Queue) finishLocked(j *Job, s State, err error) {
	attrs := []any{"request_id", j.req.RequestID, "replayed", j.replayed}
	if err != nil {
		attrs = []any{"request_id", j.req.RequestID, "error", err}
	}
	if !q.endLocked(j, s, attrs...) {
		return
	}
	if err != nil {
		j.err = errorInfo(err)
	}
	// The parsed upload was the runner's input only; a finished job
	// keeps no second copy of it.
	j.req.traceMeas = nil
	if q.inflight[j.key] == j {
		delete(q.inflight, j.key)
	}
	// Fold this job's simulated-instruction rate into the throughput
	// EWMA. Replays and pure cache hits retire nothing and leave the
	// average untouched; the first real observation initializes it.
	if n := j.instr.Load(); n > 0 && !j.startedAt.IsZero() {
		if d := j.finishedAt.Sub(j.startedAt).Seconds(); d > 0 {
			const alpha = 0.25
			rate := float64(n) / d
			if !q.haveInstrPS {
				q.instrPerSec, q.haveInstrPS = rate, true
			} else {
				q.instrPerSec += alpha * (rate - q.instrPerSec)
			}
		}
	}
	if !j.replayed && !j.startedAt.IsZero() {
		q.execJobs++
		if d := j.finishedAt.Sub(j.startedAt).Seconds(); d > 0 {
			q.execSeconds += d
		}
	}
}

// snapshotLocked renders the client view of j.
func (q *Queue) snapshotLocked(j *Job) Snapshot {
	s := Snapshot{
		ID:           j.id,
		Key:          j.key,
		Kind:         j.req.Kind,
		Group:        j.req.Group,
		Suites:       append([]string(nil), j.req.Suites...),
		RequestID:    j.req.RequestID,
		State:        j.state,
		Stage:        j.stage,
		StageDone:    j.stageDone,
		StageTotal:   j.stageTotal,
		Replayed:     j.replayed,
		Deduped:      j.deduped,
		CreatedAt:    stamp(j.createdAt),
		StartedAt:    stamp(j.startedAt),
		FinishedAt:   stamp(j.finishedAt),
		Instructions: j.instr.Load(),
		Error:        j.err,
		HasResult:    j.result != nil,
	}
	if j.req.Trace != nil {
		s.Trace = j.req.Trace.Name
	}
	return s
}

// Get returns the snapshot of job id.
func (q *Queue) Get(id string) (Snapshot, bool) {
	snap, err := withEntry(&q.lifecycle, id, q.snapshotLocked)
	return snap, err == nil
}

// Result returns the completed document of job id. The bool is false
// while the job is still in flight (or failed without a result).
func (q *Queue) Result(id string) (store.ScoreSet, bool, error) {
	set, err := withEntry(&q.lifecycle, id, func(j *Job) *store.ScoreSet { return j.result })
	if set == nil {
		return store.ScoreSet{}, false, err
	}
	return *set, true, nil
}

// List returns every job, oldest first.
func (q *Queue) List() []Snapshot { return list(&q.lifecycle, q.snapshotLocked) }

// Cancel stops job id: a queued job never starts, a running job has its
// context cancelled (the state flips to canceled when the runner
// unwinds), a terminal job is left as-is. The returned snapshot is the
// state after the call.
func (q *Queue) Cancel(id string) (Snapshot, error) {
	return withEntry(&q.lifecycle, id, func(j *Job) Snapshot {
		switch j.state {
		case StateQueued:
			q.pending = slices.DeleteFunc(q.pending, func(p *Job) bool { return p == j })
			q.finishLocked(j, StateCanceled, context.Canceled)
		case StateRunning:
			j.cancel()
		}
		return q.snapshotLocked(j)
	})
}

// Drain shuts the queue down: admission stops immediately, queued jobs
// are cancelled, and running jobs get until ctx's deadline to finish —
// then their contexts are cancelled and Drain waits for the workers to
// unwind. After Drain returns no queue goroutine is left. The returned
// error is ctx.Err() when the deadline forced cancellations, nil when
// everything finished in time.
func (q *Queue) Drain(ctx context.Context) error {
	return q.drain(ctx, func() {
		for _, j := range q.pending {
			q.finishLocked(j, StateCanceled, fmt.Errorf("%w: server draining", context.Canceled))
		}
		q.pending = nil
	}, func() {
		for _, j := range q.order {
			if j.state == StateRunning {
				j.cancel()
			}
		}
	})
}

// Depth returns the number of queued (not yet running) jobs.
func (q *Queue) Depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.counts[StateQueued]
}

// Counts returns the number of jobs per state.
func (q *Queue) Counts() map[State]int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return maps.Clone(q.counts)
}

// InstructionsRetired returns the total simulated instructions retired
// on behalf of jobs (cache hits and replays excluded — they simulate
// nothing).
func (q *Queue) InstructionsRetired() uint64 { return q.retired.Load() }

// SimulatedInstrPerSec returns the EWMA of per-job simulated-instruction
// throughput, 0 until the first job that actually simulated completes.
func (q *Queue) SimulatedInstrPerSec() float64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.instrPerSec
}

// RetryAfter estimates how long a rejected submitter should wait before
// the queue has likely absorbed its backlog — the value behind the 429
// Retry-After header. The estimate is queue depth times the expected
// per-job seconds, divided by the service parallelism: parallel > 0
// overrides the queue's own worker count (a fleet coordinator passes the
// fleet's aggregate worker capacity, which is what makes the hint
// fleet-aware). Per-job seconds come from the instr/sec EWMA gauge and
// the average instructions a completed job retired; with no history yet
// the floor answer is returned. The result is clamped to [1s, 5m] so the
// header is always sane.
func (q *Queue) RetryAfter(parallel int) time.Duration {
	q.mu.Lock()
	defer q.mu.Unlock()
	if parallel <= 0 {
		parallel = q.opt.Workers
	}
	perJob := 1.0
	switch {
	case q.haveInstrPS && q.instrPerSec > 0 && q.execJobs > 0:
		avgInstr := float64(q.retired.Load()) / float64(q.execJobs)
		perJob = avgInstr / q.instrPerSec
	case q.execJobs > 0:
		perJob = q.execSeconds / float64(q.execJobs)
	}
	wait := perJob * (float64(q.counts[StateQueued])/float64(parallel) + 1)
	const minWait, maxWait = 1.0, 300.0
	if wait < minWait {
		wait = minWait
	}
	if wait > maxWait {
		wait = maxWait
	}
	return time.Duration(wait * float64(time.Second))
}

// requestKeySchema folds into every request key, so a change to the key
// composition invalidates dedup/replay matches instead of aliasing.
// Schema 2: suites contribute through ResolvedSuites (named suites in
// request order, then the inline suite spec), and the underlying
// measurement keys hash canonical spec JSON instead of %+v renderings.
const requestKeySchema = 2

// hashRequest builds the content address of a normalized request. Suite
// measurements contribute their internal/cache content address, so a
// request key changes exactly when a cache key would — same machine
// model, same invalidation discipline. An inline suite spec participates
// through the same path: its canonical spec JSON is what the measurement
// key hashes, so the spec hash is folded into the job key and two
// requests whose spec texts build the same suite deduplicate.
func hashRequest(r *Request) string {
	h := sha256.New()
	fmt.Fprintf(h, "request-schema=%d\nkind=%s\ngroup=%s\n", requestKeySchema, r.Kind, r.Group)
	if r.Trace != nil {
		sum := sha256.Sum256(r.Trace.Data)
		fmt.Fprintf(h, "trace-format=%s\ntrace-name=%s\ntrace-sha=%s\n",
			r.Trace.Format, r.Trace.Name, hex.EncodeToString(sum[:]))
	} else {
		cfg := r.SimConfig()
		ss, err := r.ResolvedSuites(cfg)
		if err != nil {
			// Normalize already resolved every suite; an error here can
			// only mean the request was mutated after normalization.
			fmt.Fprintf(h, "unresolvable=%v\n", err)
		}
		for i, s := range ss {
			fmt.Fprintf(h, "suite[%d]=%s\n", i, cache.Key(s, cfg))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
