// Package fleet turns perspectord into a coordinator/worker cluster.
//
// The split reuses everything the single-process service already has —
// the content-addressed job key, the dedup/replay queue, and the
// replay-tolerant JSONL result store — and adds only the distribution
// layer on top:
//
//   - Routing. The coordinator hashes each job's content key onto a
//     consistent-hash ring of registered workers (cache.RingPoint), so
//     the same request always lands on the same node. Each node's
//     measurement cache thereby becomes a shard of one fleet-wide
//     cache, and the coordinator queue's in-flight dedup is fleet-wide
//     by construction: duplicates fold before a dispatch exists.
//   - Pull transport. Workers register over HTTP (join), long-poll the
//     coordinator for dispatches owned by their node (pull), execute
//     them on their local queue, and stream results back (results).
//     Workers never accept coordinator connections, so they run behind
//     NAT and need no inbound ports.
//   - Replication. Every completed result is appended to the
//     coordinator's replication log and fanned out piggybacked on pull
//     and heartbeat responses; workers apply records into their local
//     JSONL stores with store.Apply's newest-per-key idempotent
//     semantics, and a joining worker receives the full newest-per-key
//     backfill. Any replica can therefore serve or replay any result.
//   - Membership. Heartbeats carry queue depth, in-flight count and the
//     node's instr/sec EWMA; a sweeper expires silent nodes and
//     re-routes their work (undelivered and delivered alike — results
//     are delivered at most once, so a re-dispatch that races the
//     original is harmless). Graceful departure is the same path minus
//     the re-dispatch: the worker drains in-flight work, pushes the
//     results, then leaves.
//
// Admission control composes with this: the server's 429 responses
// carry a Retry-After derived from queue depth and the instr/sec EWMA
// (fleet capacity included on a coordinator), and per-tenant
// token-bucket quotas (TenantLimiter) bound each submitter.
package fleet

import (
	"time"

	"perspector/internal/jobs"
	"perspector/internal/store"
)

// Wire messages for the /api/v1/fleet endpoints. Durations travel as
// integer milliseconds so the JSON stays language-neutral.

// JoinRequest registers (or re-registers) a worker with the coordinator.
type JoinRequest struct {
	NodeID string `json:"node_id"`
	// Capacity is how many dispatches the node runs concurrently.
	Capacity int `json:"capacity"`
	// RepSeq is the replication-log position the node has already
	// applied, 0 for a fresh store.
	RepSeq uint64 `json:"rep_seq"`
	// GOARCH is the architecture the worker binary was built for. The
	// coordinator refuses any other than its own: a compiler may fuse
	// x*y+z into one FMA on some architectures, so a foreign worker can
	// compute different score bits under the same content key.
	GOARCH string `json:"goarch"`
}

// JoinResponse acknowledges a join with the replication backfill.
type JoinResponse struct {
	// Peers is the number of registered workers, this one included.
	Peers int `json:"peers"`
	// Backfill is the coordinator replica's newest record per key;
	// applying it is idempotent.
	Backfill []store.Record `json:"backfill,omitempty"`
	// RepSeq is the replication-log position the backfill corresponds
	// to; the worker resumes delta sync from here.
	RepSeq uint64 `json:"rep_seq"`
	// HeartbeatMillis is the cadence the coordinator expects; missing
	// roughly three beats expires the node.
	HeartbeatMillis int64 `json:"heartbeat_millis"`
}

// HeartbeatRequest is a worker's periodic liveness + load report.
type HeartbeatRequest struct {
	NodeID string `json:"node_id"`
	// QueueDepth and Inflight describe the node's local queue.
	QueueDepth int `json:"queue_depth"`
	Inflight   int `json:"inflight"`
	// InstrPerSec is the node's simulated-instruction throughput EWMA.
	InstrPerSec float64 `json:"instr_per_sec"`
	RepSeq      uint64  `json:"rep_seq"`
}

// HeartbeatResponse piggybacks replication and control traffic.
type HeartbeatResponse struct {
	Peers int `json:"peers"`
	// Rep is the replication-log delta past the request's RepSeq.
	Rep    []store.Record `json:"rep,omitempty"`
	RepSeq uint64         `json:"rep_seq"`
	// Cancels lists dispatch IDs whose jobs should be cancelled.
	Cancels []uint64 `json:"cancels,omitempty"`
}

// PullRequest asks for dispatches owned by the node, long-polling up to
// WaitMillis when the node's queue is empty.
type PullRequest struct {
	NodeID     string `json:"node_id"`
	Max        int    `json:"max"`
	WaitMillis int64  `json:"wait_millis"`
	RepSeq     uint64 `json:"rep_seq"`
}

// PullResponse delivers dispatches plus the same piggybacked traffic as
// a heartbeat.
type PullResponse struct {
	Dispatches []Dispatch     `json:"dispatches,omitempty"`
	Cancels    []uint64       `json:"cancels,omitempty"`
	Rep        []store.Record `json:"rep,omitempty"`
	RepSeq     uint64         `json:"rep_seq"`
	Peers      int            `json:"peers"`
}

// Dispatch is one routed job on the wire: the coordinator-side dispatch
// ID, the job's content key, and the full normalized request.
type Dispatch struct {
	ID  uint64 `json:"id"`
	Key string `json:"key"`
	// Request re-normalizes identically on the worker, so the worker's
	// local queue computes the same content key and its local cache and
	// store line up with the coordinator's routing.
	Request jobs.Request `json:"request"`
}

// ResultPush streams one finished dispatch back to the coordinator.
type ResultPush struct {
	NodeID     string `json:"node_id"`
	DispatchID uint64 `json:"dispatch_id"`
	Key        string `json:"key"`
	// At is the worker-side completion time (RFC 3339 UTC) — the
	// timestamp the replicated record carries on every node.
	At string `json:"at,omitempty"`
	// Set is the result document on success; Error the failure.
	Set *store.ScoreSet `json:"set,omitempty"`
	// Instructions is what the worker's simulator retired for this job
	// (0 for a local cache hit or replay).
	Instructions uint64 `json:"instructions,omitempty"`
	// Error carries the worker's stage-tagged failure; the coordinator
	// reconstructs it so coordinator job snapshots look exactly like
	// local failures.
	Error *jobs.ErrorInfo `json:"error,omitempty"`
}

// NodeStatus is one worker's row in the fleet status view.
type NodeStatus struct {
	NodeID      string  `json:"node_id"`
	Capacity    int     `json:"capacity"`
	QueueDepth  int     `json:"queue_depth"`
	Inflight    int     `json:"inflight"`
	Pending     int     `json:"pending"`
	Dispatched  uint64  `json:"dispatched"`
	Completed   uint64  `json:"completed"`
	InstrPerSec float64 `json:"instr_per_sec"`
	JoinedAt    string  `json:"joined_at"`
	LastSeen    string  `json:"last_seen"`
}

// Status is the coordinator's fleet view, served at GET /api/v1/fleet.
type Status struct {
	Nodes []NodeStatus `json:"nodes"`
	// Unrouted counts dispatches waiting for any worker to join.
	Unrouted int `json:"unrouted"`
	// RepLen is the replication-log length.
	RepLen uint64 `json:"rep_len"`
	// Capacity is the fleet's aggregate worker capacity.
	Capacity int `json:"capacity"`
}

func stamp(t time.Time) string {
	if t.IsZero() {
		return ""
	}
	return t.UTC().Format(time.RFC3339Nano)
}
