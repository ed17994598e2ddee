package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"perspector/internal/jobs"
	"perspector/internal/store"
)

// WorkerOptions wires a worker agent to its coordinator and its local
// execution stack.
type WorkerOptions struct {
	// Coordinator is the coordinator's base URL (e.g. http://host:8080).
	Coordinator string
	// NodeID names this node on the ring; it must be stable across
	// restarts for cache affinity to survive them.
	NodeID string
	// Capacity is how many dispatches run concurrently (default 2). The
	// local queue's MaxQueue must be at least this.
	Capacity int
	// Queue is the local execution queue (EngineRunner); dispatches are
	// submitted to it, so local dedup, replay, and telemetry all apply.
	Queue *jobs.Queue
	// Store is the local result replica; backfill and replication
	// records land here.
	Store *store.Store
	// Log receives worker lifecycle events; nil discards them.
	Log *slog.Logger
	// Client is the HTTP client; nil builds one with a sane timeout.
	Client *http.Client
	// PullWait is the long-poll window per pull (default 2s).
	PullWait time.Duration
}

// Worker is the agent side of the fleet: it joins the coordinator,
// pulls dispatches owned by its node, executes them on the local queue,
// and streams results back. Create with NewWorker, drive with Run.
type Worker struct {
	opt WorkerOptions

	repSeq atomic.Uint64
	peers  atomic.Int64

	mu       sync.Mutex
	local    map[uint64]string // dispatch ID → local job ID, for cancels
	inflight int
	release  chan struct{} // signalled when a slot frees
	hbEvery  time.Duration
}

// NewWorker validates options and builds the agent.
func NewWorker(opt WorkerOptions) (*Worker, error) {
	if opt.Coordinator == "" {
		return nil, fmt.Errorf("fleet: worker needs a coordinator URL")
	}
	if opt.NodeID == "" {
		return nil, fmt.Errorf("fleet: worker needs a node ID")
	}
	if opt.Queue == nil {
		return nil, fmt.Errorf("fleet: worker needs a local queue")
	}
	if opt.Store == nil {
		return nil, fmt.Errorf("fleet: worker needs a local store")
	}
	if opt.Capacity < 1 {
		opt.Capacity = 2
	}
	if opt.PullWait <= 0 {
		opt.PullWait = 2 * time.Second
	}
	if opt.Log == nil {
		opt.Log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if opt.Client == nil {
		opt.Client = &http.Client{Timeout: opt.PullWait + 30*time.Second}
	}
	return &Worker{
		opt:     opt,
		local:   make(map[uint64]string),
		release: make(chan struct{}, 1),
		hbEvery: 3 * time.Second,
	}, nil
}

// Peers returns the fleet size from the last coordinator exchange —
// what the worker's /healthz reports.
func (w *Worker) Peers() int { return int(w.peers.Load()) }

// Run joins the fleet and serves dispatches until ctx is cancelled,
// then drains gracefully: it stops pulling, lets in-flight jobs finish
// (the caller bounds that by draining the local queue), pushes their
// results, and tells the coordinator to re-home anything undelivered.
// Run returns nil on a clean drain; it retries transient coordinator
// errors internally and only returns early if ctx dies before the first
// successful join.
func (w *Worker) Run(ctx context.Context) error {
	if err := w.joinLoop(ctx); err != nil {
		return err
	}

	hbCtx, hbCancel := context.WithCancel(context.Background())
	var hbDone sync.WaitGroup
	hbDone.Add(1)
	go func() {
		defer hbDone.Done()
		w.heartbeatLoop(hbCtx)
	}()

	var wg sync.WaitGroup
	for ctx.Err() == nil {
		free := w.waitSlot(ctx)
		if free == 0 {
			break // ctx died while full
		}
		resp, err := w.pull(ctx, free)
		if err != nil {
			if ctx.Err() != nil {
				break
			}
			if errors.Is(err, ErrUnknownNode) {
				// Expired (or the coordinator restarted): re-join and
				// resync from our replication position.
				if err := w.joinLoop(ctx); err != nil {
					break
				}
				continue
			}
			w.opt.Log.Warn("fleet pull failed", "error", err)
			select {
			case <-time.After(time.Second):
			case <-ctx.Done():
			}
			continue
		}
		w.absorb(resp.Rep, resp.RepSeq, resp.Cancels, resp.Peers)
		for _, d := range resp.Dispatches {
			w.acquireSlot()
			wg.Add(1)
			go func(d Dispatch) {
				defer wg.Done()
				defer w.releaseSlot()
				w.execute(d)
			}(d)
		}
	}

	// Graceful drain: finish in-flight work (results push inside
	// execute), then leave so the coordinator re-homes whatever it had
	// not yet delivered to us.
	wg.Wait()
	hbCancel()
	hbDone.Wait()
	if err := w.leave(); err != nil && !errors.Is(err, ErrUnknownNode) {
		w.opt.Log.Warn("fleet leave failed", "error", err)
	}
	return nil
}

// joinLoop retries join until it succeeds or ctx dies, then applies the
// backfill.
func (w *Worker) joinLoop(ctx context.Context) error {
	for {
		resp, err := w.join()
		if err == nil {
			for _, rec := range resp.Backfill {
				if _, err := w.opt.Store.Apply(rec); err != nil {
					w.opt.Log.Error("backfill apply failed", "key", rec.Key, "error", err)
				}
			}
			w.repSeq.Store(resp.RepSeq)
			w.peers.Store(int64(resp.Peers))
			if resp.HeartbeatMillis > 0 {
				w.mu.Lock()
				w.hbEvery = time.Duration(resp.HeartbeatMillis) * time.Millisecond
				w.mu.Unlock()
			}
			w.opt.Log.Info("joined fleet", "coordinator", w.opt.Coordinator,
				"node", w.opt.NodeID, "peers", resp.Peers, "backfill", len(resp.Backfill))
			return nil
		}
		w.opt.Log.Warn("fleet join failed, retrying", "error", err)
		select {
		case <-time.After(time.Second):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// heartbeatLoop reports load until its context dies.
func (w *Worker) heartbeatLoop(ctx context.Context) {
	for {
		w.mu.Lock()
		every := w.hbEvery
		inflight := w.inflight
		w.mu.Unlock()
		select {
		case <-ctx.Done():
			return
		case <-time.After(every):
		}
		resp, err := w.heartbeat(inflight)
		if err != nil {
			if !errors.Is(err, ErrUnknownNode) {
				w.opt.Log.Warn("fleet heartbeat failed", "error", err)
			}
			continue // the pull loop owns re-joining
		}
		w.absorb(resp.Rep, resp.RepSeq, resp.Cancels, resp.Peers)
	}
}

// absorb applies piggybacked replication records and cancel notices.
func (w *Worker) absorb(rep []store.Record, repSeq uint64, cancels []uint64, peers int) {
	for _, rec := range rep {
		if _, err := w.opt.Store.Apply(rec); err != nil {
			w.opt.Log.Error("replication apply failed", "key", rec.Key, "error", err)
		}
	}
	if repSeq > w.repSeq.Load() {
		w.repSeq.Store(repSeq)
	}
	w.peers.Store(int64(peers))
	for _, id := range cancels {
		w.mu.Lock()
		jobID, ok := w.local[id]
		w.mu.Unlock()
		if ok {
			w.opt.Queue.Cancel(jobID)
		}
	}
}

// waitSlot blocks until at least one capacity slot is free (or ctx
// dies, returning 0) and returns the number of free slots.
func (w *Worker) waitSlot(ctx context.Context) int {
	for {
		w.mu.Lock()
		free := w.opt.Capacity - w.inflight
		w.mu.Unlock()
		if free > 0 {
			return free
		}
		select {
		case <-w.release:
		case <-ctx.Done():
			return 0
		}
	}
}

func (w *Worker) acquireSlot() {
	w.mu.Lock()
	w.inflight++
	w.mu.Unlock()
}

func (w *Worker) releaseSlot() {
	w.mu.Lock()
	w.inflight--
	w.mu.Unlock()
	select {
	case w.release <- struct{}{}:
	default:
	}
}

// execute runs one dispatch on the local queue and pushes the outcome.
// The local submit path is the full service path: content-addressed
// dedup against anything already running here, replay from the local
// replica (a result another node computed and replicated arrives as a
// free replay), and the measurement cache under the runner.
func (w *Worker) execute(d Dispatch) {
	// The dispatch carries the submitting request's trace ID inside its
	// Request; it tags this worker's logs and rides the results push
	// back, so one grep over fleet logs reconstructs the job's path.
	rid := d.Request.RequestID
	snap, _, err := w.opt.Queue.Submit(d.Request)
	if err != nil {
		w.pushResult(rid, ResultPush{
			NodeID: w.opt.NodeID, DispatchID: d.ID, Key: d.Key,
			Error: &jobs.ErrorInfo{Message: fmt.Sprintf("worker %s admission: %v", w.opt.NodeID, err)},
		})
		return
	}
	w.opt.Log.Info("dispatch accepted", "dispatch", d.ID, "key", d.Key,
		"job", snap.ID, "request_id", rid)
	w.mu.Lock()
	w.local[d.ID] = snap.ID
	w.mu.Unlock()
	defer func() {
		w.mu.Lock()
		delete(w.local, d.ID)
		w.mu.Unlock()
	}()

	done, err := w.opt.Queue.Done(snap.ID)
	if err == nil {
		<-done
	}
	final, _ := w.opt.Queue.Get(snap.ID)
	push := ResultPush{
		NodeID: w.opt.NodeID, DispatchID: d.ID, Key: d.Key,
		At: final.FinishedAt, Instructions: final.Instructions,
	}
	if set, ok, _ := w.opt.Queue.Result(snap.ID); ok {
		push.Set = &set
	} else {
		info := final.Error
		if info == nil {
			info = &jobs.ErrorInfo{Message: "job finished without a result", Canceled: final.State == jobs.StateCanceled}
		}
		push.Error = info
	}
	w.pushResult(rid, push)
}

// pushResult streams one outcome back, retrying briefly — the
// coordinator may be mid-restart. An undeliverable result is logged and
// dropped; the coordinator's expiry path re-dispatches the job. The
// originating request's trace ID travels as X-Request-ID, so the
// coordinator's request log for the push carries the same ID as the
// submission that caused it.
func (w *Worker) pushResult(rid string, push ResultPush) {
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		if attempt > 0 {
			time.Sleep(time.Duration(attempt) * 500 * time.Millisecond)
		}
		if err = w.postRID(context.Background(), rid, "/api/v1/fleet/results", push, nil); err == nil {
			return
		}
	}
	w.opt.Log.Error("result push failed", "dispatch", push.DispatchID, "key", push.Key,
		"request_id", rid, "error", err)
}

func (w *Worker) join() (JoinResponse, error) {
	var resp JoinResponse
	err := w.post("/api/v1/fleet/join", JoinRequest{
		NodeID:   w.opt.NodeID,
		Capacity: w.opt.Capacity,
		RepSeq:   w.repSeq.Load(),
		GOARCH:   runtime.GOARCH,
	}, &resp)
	return resp, err
}

func (w *Worker) heartbeat(inflight int) (HeartbeatResponse, error) {
	var resp HeartbeatResponse
	err := w.post("/api/v1/fleet/heartbeat", HeartbeatRequest{
		NodeID:      w.opt.NodeID,
		QueueDepth:  w.opt.Queue.Depth(),
		Inflight:    inflight,
		InstrPerSec: w.opt.Queue.SimulatedInstrPerSec(),
		RepSeq:      w.repSeq.Load(),
	}, &resp)
	return resp, err
}

func (w *Worker) pull(ctx context.Context, max int) (PullResponse, error) {
	var resp PullResponse
	err := w.postCtx(ctx, "/api/v1/fleet/pull", PullRequest{
		NodeID:     w.opt.NodeID,
		Max:        max,
		WaitMillis: w.opt.PullWait.Milliseconds(),
		RepSeq:     w.repSeq.Load(),
	}, &resp)
	return resp, err
}

func (w *Worker) leave() error {
	return w.post("/api/v1/fleet/leave", JoinRequest{NodeID: w.opt.NodeID}, nil)
}

func (w *Worker) post(path string, body, out any) error {
	return w.postCtx(context.Background(), path, body, out)
}

func (w *Worker) postCtx(ctx context.Context, path string, body, out any) error {
	return w.postRID(ctx, "", path, body, out)
}

// postRID is the one HTTP call site: JSON in, JSON out, with the
// coordinator's 404-on-unknown-node mapped to ErrUnknownNode so callers
// can re-join. A non-empty rid travels as X-Request-ID.
func (w *Worker) postRID(ctx context.Context, rid, path string, body, out any) error {
	data, err := json.Marshal(body)
	if err != nil {
		return fmt.Errorf("fleet: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.opt.Coordinator+path, bytes.NewReader(data))
	if err != nil {
		return fmt.Errorf("fleet: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	if rid != "" {
		req.Header.Set("X-Request-ID", rid)
	}
	resp, err := w.opt.Client.Do(req)
	if err != nil {
		return fmt.Errorf("fleet: %s: %w", path, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 256<<20))
	if err != nil {
		return fmt.Errorf("fleet: %s: %w", path, err)
	}
	if resp.StatusCode == http.StatusNotFound {
		return fmt.Errorf("fleet: %s: %w", path, ErrUnknownNode)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("fleet: %s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(raw))
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			return fmt.Errorf("fleet: %s: decoding response: %w", path, err)
		}
	}
	return nil
}
