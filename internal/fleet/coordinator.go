package fleet

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"runtime"
	"sort"
	"sync"
	"time"

	"perspector/internal/cache"
	"perspector/internal/jobs"
	"perspector/internal/stage"
	"perspector/internal/store"
)

// ErrUnknownNode rejects pulls/heartbeats from a node the coordinator
// does not know — it crashed out of the membership table or was expired.
// The worker's reaction is to re-join (and receive a fresh backfill).
var ErrUnknownNode = errors.New("fleet: unknown node")

// ErrClosed rejects dispatches after Close.
var ErrClosed = errors.New("fleet: coordinator closed")

// ErrArchMismatch rejects a join from a worker built for another
// GOARCH than the coordinator's (see JoinRequest.GOARCH).
var ErrArchMismatch = errors.New("fleet: worker GOARCH differs from the coordinator's")

// CoordinatorOptions wires the coordinator's collaborators and tuning.
type CoordinatorOptions struct {
	// Store is the coordinator's result replica: reads are served from
	// it and joins are backfilled from it. May be nil (memory-only
	// replication log, no backfill).
	Store *store.Store
	// Log receives fleet lifecycle events; nil discards them.
	Log *slog.Logger
	// HeartbeatEvery is the cadence workers are told to report at
	// (default 3s); HeartbeatTimeout expires a silent node (default
	// 3×HeartbeatEvery). Pulls count as liveness too.
	HeartbeatEvery   time.Duration
	HeartbeatTimeout time.Duration
	// VNodes is the virtual-node count per worker (default 64).
	VNodes int
}

// Coordinator owns fleet membership, per-node dispatch queues, and the
// replication log. It implements jobs.Dispatcher, so a jobs.Queue built
// with jobs.RemoteRunner(coord) is a drop-in distributed backend for
// the existing HTTP API.
type Coordinator struct {
	opt CoordinatorOptions

	mu    sync.Mutex
	nodes map[string]*node
	ring  *Ring
	// unrouted holds dispatches admitted before any worker joined; the
	// first join drains it through the ring.
	unrouted []*dispatch
	// delivered maps dispatch ID to its in-flight dispatch, from pull
	// delivery until the result pushes back (or the node expires and the
	// dispatch is re-routed).
	delivered map[uint64]*dispatch
	seq       uint64
	// rep is the replication log: every successful result in arrival
	// order. Workers sync deltas by index, idempotently.
	rep    []store.Record
	closed bool

	stop chan struct{}
	done chan struct{}
}

type node struct {
	id       string
	capacity int
	joinedAt time.Time
	lastSeen time.Time

	pending []*dispatch
	cancels []uint64
	// wake is closed (and replaced) whenever pending or cancels gain
	// entries, releasing the node's long-polling pull.
	wake chan struct{}

	queueDepth  int
	inflight    int
	instrPerSec float64
	dispatched  uint64
	completed   uint64
}

type dispatch struct {
	id  uint64
	key string
	req jobs.Request
	// node is the current assignment ("" while unrouted).
	node string
	res  chan pushedResult // buffered 1; delivered at most once
	// done flips under the coordinator mutex when the result is
	// delivered or the dispatcher abandoned the job.
	done bool
}

type pushedResult struct {
	set   store.ScoreSet
	instr uint64
	err   *jobs.ErrorInfo
}

// NewCoordinator starts a coordinator and its expiry sweeper.
func NewCoordinator(opt CoordinatorOptions) *Coordinator {
	if opt.Log == nil {
		opt.Log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if opt.HeartbeatEvery <= 0 {
		opt.HeartbeatEvery = 3 * time.Second
	}
	if opt.HeartbeatTimeout <= 0 {
		opt.HeartbeatTimeout = 3 * opt.HeartbeatEvery
	}
	if opt.VNodes < 1 {
		opt.VNodes = DefaultVNodes
	}
	c := &Coordinator{
		opt:       opt,
		nodes:     make(map[string]*node),
		ring:      NewRing(nil, opt.VNodes),
		delivered: make(map[uint64]*dispatch),
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
	}
	go c.sweeper()
	return c
}

// Close stops the sweeper and fails all outstanding dispatches, so no
// Dispatch caller blocks past it. Call after draining the job queue.
func (c *Coordinator) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	close(c.stop)
	fail := func(d *dispatch) {
		if !d.done {
			d.done = true
			d.res <- pushedResult{err: &jobs.ErrorInfo{Message: ErrClosed.Error()}}
		}
	}
	for _, d := range c.unrouted {
		fail(d)
	}
	c.unrouted = nil
	for _, n := range c.nodes {
		for _, d := range n.pending {
			fail(d)
		}
		n.pending = nil
		wakeLocked(n)
	}
	for _, d := range c.delivered {
		fail(d)
	}
	c.delivered = make(map[uint64]*dispatch)
	c.mu.Unlock()
	<-c.done
}

// sweeper expires nodes that stopped heartbeating and re-routes their
// work.
func (c *Coordinator) sweeper() {
	defer close(c.done)
	t := time.NewTicker(c.opt.HeartbeatTimeout / 2)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case now := <-t.C:
			c.mu.Lock()
			for id, n := range c.nodes {
				if now.Sub(n.lastSeen) > c.opt.HeartbeatTimeout {
					c.opt.Log.Warn("fleet node expired", "node", id, "last_seen", n.lastSeen)
					c.removeNodeLocked(n, true)
				}
			}
			c.mu.Unlock()
		}
	}
}

// Dispatch implements jobs.Dispatcher: route the job to its owning node
// and block until the result streams back or ctx is cancelled.
func (c *Coordinator) Dispatch(ctx context.Context, key string, req jobs.Request) (store.ScoreSet, uint64, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return store.ScoreSet{}, 0, ErrClosed
	}
	c.seq++
	d := &dispatch{id: c.seq, key: key, req: req, res: make(chan pushedResult, 1)}
	c.routeLocked(d)
	c.mu.Unlock()

	select {
	case r := <-d.res:
		if r.err != nil {
			return store.ScoreSet{}, r.instr, remoteError(r.err)
		}
		return r.set, r.instr, nil
	case <-ctx.Done():
		c.abandon(d)
		return store.ScoreSet{}, 0, ctx.Err()
	}
}

// remoteError reconstructs a worker failure so the coordinator's job
// snapshot carries the same stage tags and cancellation verdict a local
// failure would.
func remoteError(info *jobs.ErrorInfo) error {
	err := errors.New(info.Message)
	if info.Canceled {
		err = fmt.Errorf("%w: %s", context.Canceled, info.Message)
	}
	if info.Stage != "" {
		err = stage.Wrap(stage.Stage(info.Stage), info.Suite, info.Workload, err)
	}
	return err
}

// routeLocked assigns d to the ring owner of its key, or parks it until
// a worker joins.
func (c *Coordinator) routeLocked(d *dispatch) {
	owner := c.ring.Owner(cache.RingPoint(d.key))
	if owner == "" {
		d.node = ""
		c.unrouted = append(c.unrouted, d)
		return
	}
	d.node = owner
	n := c.nodes[owner]
	n.pending = append(n.pending, d)
	wakeLocked(n)
}

// wakeLocked releases the node's long-polling pull, if any.
func wakeLocked(n *node) {
	close(n.wake)
	n.wake = make(chan struct{})
}

// rerouteLocked re-derives every undelivered dispatch's owner after a
// membership change. Only dispatches whose arc moved change queues.
func (c *Coordinator) rerouteLocked() {
	moved := c.unrouted
	c.unrouted = nil
	for _, n := range c.nodes {
		keep := n.pending[:0]
		for _, d := range n.pending {
			if c.ring.Owner(cache.RingPoint(d.key)) == n.id {
				keep = append(keep, d)
			} else {
				moved = append(moved, d)
			}
		}
		n.pending = keep
	}
	for _, d := range moved {
		c.routeLocked(d)
	}
}

// removeNodeLocked drops a node from membership and re-homes its work:
// undelivered dispatches re-route immediately; delivered ones re-route
// too when requeue is set (crash expiry) — the at-most-once result
// delivery makes a racing duplicate execution harmless.
func (c *Coordinator) removeNodeLocked(n *node, requeue bool) {
	delete(c.nodes, n.id)
	c.ring = NewRing(c.nodeIDsLocked(), c.opt.VNodes)
	wakeLocked(n) // release its pull; the retry sees ErrUnknownNode
	pending := n.pending
	n.pending = nil
	for _, d := range pending {
		c.routeLocked(d)
	}
	if requeue {
		for id, d := range c.delivered {
			if d.node == n.id && !d.done {
				delete(c.delivered, id)
				c.routeLocked(d)
			}
		}
	}
	c.rerouteLocked()
}

func (c *Coordinator) nodeIDsLocked() []string {
	ids := make([]string, 0, len(c.nodes))
	for id := range c.nodes {
		ids = append(ids, id)
	}
	return ids
}

// abandon withdraws a dispatch whose submitter's context died. A
// delivered dispatch turns into a cancel notice for its node.
func (c *Coordinator) abandon(d *dispatch) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if d.done {
		return
	}
	d.done = true
	if cur, ok := c.delivered[d.id]; ok && cur == d {
		delete(c.delivered, d.id)
		if n, ok := c.nodes[d.node]; ok {
			n.cancels = append(n.cancels, d.id)
			wakeLocked(n)
		}
		return
	}
	// Undelivered: drop it from wherever it queues.
	if d.node == "" {
		c.unrouted = removeDispatch(c.unrouted, d)
		return
	}
	if n, ok := c.nodes[d.node]; ok {
		n.pending = removeDispatch(n.pending, d)
	}
}

func removeDispatch(ds []*dispatch, d *dispatch) []*dispatch {
	for i, x := range ds {
		if x == d {
			return append(ds[:i], ds[i+1:]...)
		}
	}
	return ds
}

// Join registers (or re-registers) a worker and hands it the
// newest-per-key backfill from the coordinator replica.
func (c *Coordinator) Join(req JoinRequest) (JoinResponse, error) {
	if req.NodeID == "" {
		return JoinResponse{}, fmt.Errorf("fleet: join without a node_id")
	}
	if req.GOARCH != runtime.GOARCH {
		return JoinResponse{}, fmt.Errorf("%w: node %s is %q, coordinator is %q",
			ErrArchMismatch, req.NodeID, req.GOARCH, runtime.GOARCH)
	}
	if req.Capacity < 1 {
		req.Capacity = 1
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return JoinResponse{}, ErrClosed
	}
	now := time.Now()
	n, ok := c.nodes[req.NodeID]
	if !ok {
		n = &node{id: req.NodeID, joinedAt: now, wake: make(chan struct{})}
		c.nodes[req.NodeID] = n
		c.ring = NewRing(c.nodeIDsLocked(), c.opt.VNodes)
		c.rerouteLocked()
	}
	n.capacity = req.Capacity
	n.lastSeen = now
	c.opt.Log.Info("fleet node joined", "node", req.NodeID, "capacity", req.Capacity, "peers", len(c.nodes))
	var backfill []store.Record
	if c.opt.Store != nil {
		backfill = c.opt.Store.Records()
	}
	return JoinResponse{
		Peers:           len(c.nodes),
		Backfill:        backfill,
		RepSeq:          uint64(len(c.rep)),
		HeartbeatMillis: c.opt.HeartbeatEvery.Milliseconds(),
	}, nil
}

// Leave is graceful departure: the worker has finished and pushed its
// in-flight work, so only undelivered dispatches need re-homing.
func (c *Coordinator) Leave(nodeID string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	n, ok := c.nodes[nodeID]
	if !ok {
		return ErrUnknownNode
	}
	c.removeNodeLocked(n, false)
	c.opt.Log.Info("fleet node left", "node", nodeID, "peers", len(c.nodes))
	return nil
}

// Heartbeat refreshes liveness and load, returning piggybacked
// replication delta and cancel notices.
func (c *Coordinator) Heartbeat(req HeartbeatRequest) (HeartbeatResponse, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n, ok := c.nodes[req.NodeID]
	if !ok {
		return HeartbeatResponse{}, ErrUnknownNode
	}
	n.lastSeen = time.Now()
	n.queueDepth = req.QueueDepth
	n.inflight = req.Inflight
	n.instrPerSec = req.InstrPerSec
	return HeartbeatResponse{
		Peers:   len(c.nodes),
		Rep:     c.repDeltaLocked(req.RepSeq),
		RepSeq:  uint64(len(c.rep)),
		Cancels: drainCancelsLocked(n),
	}, nil
}

// repDeltaLocked returns the replication records past seq.
func (c *Coordinator) repDeltaLocked(seq uint64) []store.Record {
	if seq >= uint64(len(c.rep)) {
		return nil
	}
	return append([]store.Record(nil), c.rep[seq:]...)
}

func drainCancelsLocked(n *node) []uint64 {
	out := n.cancels
	n.cancels = nil
	return out
}

// Pull hands the node up to req.Max of its pending dispatches,
// long-polling until req.WaitMillis when it has none and no other
// traffic (cancels, replication delta) is due.
func (c *Coordinator) Pull(ctx context.Context, req PullRequest) (PullResponse, error) {
	if req.Max < 1 {
		req.Max = 1
	}
	var deadline <-chan time.Time
	if req.WaitMillis > 0 {
		t := time.NewTimer(time.Duration(req.WaitMillis) * time.Millisecond)
		defer t.Stop()
		deadline = t.C
	}
	for {
		c.mu.Lock()
		n, ok := c.nodes[req.NodeID]
		if !ok {
			c.mu.Unlock()
			return PullResponse{}, ErrUnknownNode
		}
		n.lastSeen = time.Now()
		take := min(req.Max, len(n.pending))
		hasTraffic := take > 0 || len(n.cancels) > 0 || req.RepSeq < uint64(len(c.rep))
		if hasTraffic || deadline == nil {
			resp := PullResponse{
				Cancels: drainCancelsLocked(n),
				Rep:     c.repDeltaLocked(req.RepSeq),
				RepSeq:  uint64(len(c.rep)),
				Peers:   len(c.nodes),
			}
			for _, d := range n.pending[:take] {
				c.delivered[d.id] = d
				n.dispatched++
				resp.Dispatches = append(resp.Dispatches, Dispatch{ID: d.id, Key: d.key, Request: d.req})
			}
			n.pending = append([]*dispatch(nil), n.pending[take:]...)
			c.mu.Unlock()
			return resp, nil
		}
		wake := n.wake
		c.mu.Unlock()
		select {
		case <-wake:
		case <-deadline:
			deadline = nil // next loop iteration returns whatever is there
		case <-ctx.Done():
			return PullResponse{}, ctx.Err()
		case <-c.stop:
			return PullResponse{}, ErrClosed
		}
	}
}

// PushResult completes a dispatch: the waiting Dispatch call is released
// (at most once) and a successful result enters the replication log for
// fleet-wide fan-out. Results are accepted even from expired or departed
// nodes — the work is done; losing it would only force a re-run.
func (c *Coordinator) PushResult(req ResultPush) error {
	if req.Set == nil && req.Error == nil {
		return fmt.Errorf("fleet: result push with neither set nor error")
	}
	c.mu.Lock()
	if n, ok := c.nodes[req.NodeID]; ok {
		n.lastSeen = time.Now()
		n.completed++
	}
	d, live := c.delivered[req.DispatchID]
	// A failure pushed by a node the dispatch no longer belongs to (it
	// was re-routed after the pusher expired) is stale: the re-dispatch
	// is still running, so only the current assignee may fail the job. A
	// stale *success* is still a success — identical content from a
	// deterministic engine — and is accepted from anyone.
	if live && req.Error != nil && d.node != req.NodeID {
		live = false
	}
	if live {
		delete(c.delivered, req.DispatchID)
	}
	var rec *store.Record
	if req.Set != nil {
		at := req.At
		if at == "" {
			at = time.Now().UTC().Format(time.RFC3339Nano)
		}
		rec = &store.Record{Key: req.Key, At: at, Set: *req.Set}
		c.rep = append(c.rep, *rec)
		// Wake every node: their repSeq is now behind, so parked pulls
		// return and carry the delta.
		for _, n := range c.nodes {
			wakeLocked(n)
		}
	}
	deliver := live && !d.done
	if deliver {
		d.done = true
		if req.Error != nil {
			d.res <- pushedResult{err: req.Error, instr: req.Instructions}
		} else {
			d.res <- pushedResult{set: *req.Set, instr: req.Instructions}
		}
	}
	c.mu.Unlock()

	// A result nobody is waiting for (the submitter cancelled, or the
	// dispatch was re-routed and the loser pushed second) still lands in
	// the coordinator replica — the queue's store path only runs for the
	// delivered copy.
	if rec != nil && !deliver && c.opt.Store != nil {
		if _, err := c.opt.Store.Apply(*rec); err != nil {
			c.opt.Log.Error("replica apply failed", "key", req.Key, "error", err)
		}
	}
	return nil
}

// Peers returns the number of registered workers.
func (c *Coordinator) Peers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.nodes)
}

// Capacity returns the fleet's aggregate worker capacity — the
// parallelism hint behind fleet-aware Retry-After headers.
func (c *Coordinator) Capacity() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	total := 0
	for _, n := range c.nodes {
		total += n.capacity
	}
	return total
}

// Status renders the fleet view, nodes sorted by ID.
func (c *Coordinator) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := Status{Unrouted: len(c.unrouted), RepLen: uint64(len(c.rep))}
	for _, n := range c.nodes {
		s.Capacity += n.capacity
		s.Nodes = append(s.Nodes, NodeStatus{
			NodeID:      n.id,
			Capacity:    n.capacity,
			QueueDepth:  n.queueDepth,
			Inflight:    n.inflight,
			Pending:     len(n.pending),
			Dispatched:  n.dispatched,
			Completed:   n.completed,
			InstrPerSec: n.instrPerSec,
			JoinedAt:    stamp(n.joinedAt),
			LastSeen:    stamp(n.lastSeen),
		})
	}
	sort.Slice(s.Nodes, func(i, j int) bool { return s.Nodes[i].NodeID < s.Nodes[j].NodeID })
	return s
}
