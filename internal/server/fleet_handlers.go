package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"perspector/internal/fleet"
)

// Fleet endpoints, mounted only when Config.Coordinator is set:
//
//	POST /api/v1/fleet/join       register a worker, returns peers + backfill
//	POST /api/v1/fleet/heartbeat  liveness + load report, returns rep delta
//	POST /api/v1/fleet/pull       long-poll for dispatches owned by the node
//	POST /api/v1/fleet/results    stream one finished dispatch back
//	POST /api/v1/fleet/leave      graceful departure
//	GET  /api/v1/fleet            fleet status (nodes, queue, replication)
//
// An unknown node gets 404 on heartbeat/pull/leave; the worker reacts
// by re-joining, which also resyncs its replica.

// maxFleetBodyBytes bounds fleet request bodies. Result pushes carry a
// full ScoreSet; everything else is small control traffic.
const maxFleetBodyBytes = 64 << 20

// decodeFleet decodes one fleet request body into v.
func (s *Server) decodeFleet(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, maxFleetBodyBytes)
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		s.writeError(w, http.StatusBadRequest, "decoding fleet request: %v", err)
		return false
	}
	return true
}

// writeFleetError maps coordinator errors to statuses: unknown node is
// the worker's cue to re-join; a worker of another architecture
// conflicts with the fleet.
func (s *Server) writeFleetError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, fleet.ErrUnknownNode):
		s.writeError(w, http.StatusNotFound, "%v", err)
	case errors.Is(err, fleet.ErrArchMismatch):
		s.writeError(w, http.StatusConflict, "%v", err)
	case errors.Is(err, fleet.ErrClosed):
		s.writeError(w, http.StatusServiceUnavailable, "%v", err)
	default:
		s.writeError(w, http.StatusBadRequest, "%v", err)
	}
}

func (s *Server) handleFleetJoin(w http.ResponseWriter, r *http.Request) {
	var req fleet.JoinRequest
	if !s.decodeFleet(w, r, &req) {
		return
	}
	resp, err := s.cfg.Coordinator.Join(req)
	if err != nil {
		s.writeFleetError(w, err)
		return
	}
	s.writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleFleetHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req fleet.HeartbeatRequest
	if !s.decodeFleet(w, r, &req) {
		return
	}
	resp, err := s.cfg.Coordinator.Heartbeat(req)
	if err != nil {
		s.writeFleetError(w, err)
		return
	}
	s.writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleFleetPull(w http.ResponseWriter, r *http.Request) {
	var req fleet.PullRequest
	if !s.decodeFleet(w, r, &req) {
		return
	}
	resp, err := s.cfg.Coordinator.Pull(r.Context(), req)
	if err != nil {
		s.writeFleetError(w, err)
		return
	}
	s.writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleFleetResults(w http.ResponseWriter, r *http.Request) {
	var req fleet.ResultPush
	if !s.decodeFleet(w, r, &req) {
		return
	}
	if err := s.cfg.Coordinator.PushResult(req); err != nil {
		s.writeFleetError(w, err)
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

func (s *Server) handleFleetLeave(w http.ResponseWriter, r *http.Request) {
	var req fleet.JoinRequest
	if !s.decodeFleet(w, r, &req) {
		return
	}
	if err := s.cfg.Coordinator.Leave(req.NodeID); err != nil {
		s.writeFleetError(w, err)
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

func (s *Server) handleFleetStatus(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, s.cfg.Coordinator.Status())
}

// writeFleetMetrics renders the coordinator's fleet view as Prometheus
// gauges, appended to the /metrics exposition on coordinator nodes.
func writeFleetMetrics(w io.Writer, st fleet.Status) {
	fmt.Fprintln(w, "# HELP perspectord_fleet_nodes Registered worker nodes.")
	fmt.Fprintln(w, "# TYPE perspectord_fleet_nodes gauge")
	fmt.Fprintf(w, "perspectord_fleet_nodes %d\n", len(st.Nodes))
	fmt.Fprintln(w, "# HELP perspectord_fleet_capacity Aggregate concurrent-dispatch capacity across workers.")
	fmt.Fprintln(w, "# TYPE perspectord_fleet_capacity gauge")
	fmt.Fprintf(w, "perspectord_fleet_capacity %d\n", st.Capacity)
	fmt.Fprintln(w, "# HELP perspectord_fleet_unrouted_dispatches Dispatches waiting for any worker to join.")
	fmt.Fprintln(w, "# TYPE perspectord_fleet_unrouted_dispatches gauge")
	fmt.Fprintf(w, "perspectord_fleet_unrouted_dispatches %d\n", st.Unrouted)
	fmt.Fprintln(w, "# HELP perspectord_fleet_replication_log_length Results appended to the replication log since start.")
	fmt.Fprintln(w, "# TYPE perspectord_fleet_replication_log_length counter")
	fmt.Fprintf(w, "perspectord_fleet_replication_log_length %d\n", st.RepLen)

	fmt.Fprintln(w, "# HELP perspectord_fleet_node_pending Dispatches queued for a node, by node.")
	fmt.Fprintln(w, "# TYPE perspectord_fleet_node_pending gauge")
	for _, n := range st.Nodes {
		fmt.Fprintf(w, "perspectord_fleet_node_pending{node=%s} %d\n", promLabel(n.NodeID), n.Pending)
	}
	fmt.Fprintln(w, "# HELP perspectord_fleet_node_dispatched_total Dispatches delivered to a node, by node.")
	fmt.Fprintln(w, "# TYPE perspectord_fleet_node_dispatched_total counter")
	for _, n := range st.Nodes {
		fmt.Fprintf(w, "perspectord_fleet_node_dispatched_total{node=%s} %d\n", promLabel(n.NodeID), n.Dispatched)
	}
	fmt.Fprintln(w, "# HELP perspectord_fleet_node_completed_total Results pushed back by a node, by node.")
	fmt.Fprintln(w, "# TYPE perspectord_fleet_node_completed_total counter")
	for _, n := range st.Nodes {
		fmt.Fprintf(w, "perspectord_fleet_node_completed_total{node=%s} %d\n", promLabel(n.NodeID), n.Completed)
	}
	fmt.Fprintln(w, "# HELP perspectord_fleet_node_instr_per_sec A node's reported simulated-instruction throughput EWMA, by node.")
	fmt.Fprintln(w, "# TYPE perspectord_fleet_node_instr_per_sec gauge")
	for _, n := range st.Nodes {
		fmt.Fprintf(w, "perspectord_fleet_node_instr_per_sec{node=%s} %g\n", promLabel(n.NodeID), n.InstrPerSec)
	}
}
