// Package server is perspectord's HTTP/JSON API over the job queue and
// the result store. The layering is strict:
//
//	server (transport, observability)
//	  → jobs (queue, dedup, cancellation, drain)
//	    → engine (internal/cache + internal/metric, untouched)
//	      → store (durable ScoreSets)
//
// The server owns nothing but translation and observability: request
// decoding and status mapping, structured request/job logging via
// log/slog, the /metrics exposition, and optional net/http/pprof. All
// scoring semantics live below it, which is what keeps scores served
// over HTTP bit-identical to CLI scores.
//
// # API
//
//	POST   /api/v1/jobs          submit a score/compare job (202; 200 when deduplicated)
//	GET    /api/v1/jobs          list jobs, oldest first
//	GET    /api/v1/jobs/{id}     poll one job: state, stage, progress
//	GET    /api/v1/jobs/{id}/result[?wait=1]
//	                             fetch the ScoreSet; wait=1 long-polls
//	                             until the job is terminal
//	DELETE /api/v1/jobs/{id}     cancel (queued: immediate; running: ctx)
//	GET    /api/v1/results       list stored results (content key, kind, suites)
//	GET    /api/v1/results/{key} fetch one stored ScoreSet
//	GET    /api/v1/suites        list every registered suite
//	POST   /api/v1/streams       open an incremental-scoring stream
//	                             (chunks, scores, close, cancel routes
//	                             under /api/v1/streams/{id} — see
//	                             streams.go)
//	GET    /healthz              liveness
//	GET    /metrics              Prometheus-style text exposition
//	GET    /debug/pprof/         only with Config.EnablePprof
//
// Errors are JSON: {"error": "..."} plus a matching status code; job
// submission maps jobs.ErrQueueFull to 429 and jobs.ErrDraining to 503.
package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"net/http/pprof"
	"runtime"
	"time"

	"perspector/internal/buildinfo"
	"perspector/internal/cache"
	"perspector/internal/fleet"
	"perspector/internal/jobs"
	"perspector/internal/store"
	"perspector/internal/suites"
)

// Config wires the server's collaborators.
type Config struct {
	// Queue executes and tracks jobs. Required.
	Queue *jobs.Queue
	// Store serves the /api/v1/results endpoints; nil disables them
	// (404 with an explanatory error).
	Store *store.Store
	// Streams serves the /api/v1/streams endpoints (incremental scoring
	// over chunked measurement uploads); nil disables them.
	Streams *jobs.StreamManager
	// Cache, when set, feeds the cache hit/miss gauges of /metrics.
	Cache *cache.Store
	// Log receives request logs; nil means slog.Default.
	Log *slog.Logger
	// EnablePprof mounts net/http/pprof under /debug/pprof/.
	EnablePprof bool

	// Role is the node's fleet role — "single" (default), "coordinator"
	// or "worker" — reported on /healthz.
	Role string
	// NodeID names this node in the fleet; empty in single mode.
	NodeID string
	// Coordinator, when set, mounts the /api/v1/fleet endpoints, adds
	// fleet gauges to /metrics, and makes queue-full Retry-After
	// estimates fleet-capacity-aware.
	Coordinator *fleet.Coordinator
	// Quota applies per-tenant token-bucket admission control to job
	// submission, keyed by the X-Tenant header; nil admits everything.
	Quota *fleet.TenantLimiter
	// Peers reports the fleet size for /healthz on nodes that are not
	// the coordinator (a worker's view of the cluster); when nil, the
	// Coordinator's membership table is consulted instead.
	Peers func() int
}

// Server is the assembled handler; build with New.
type Server struct {
	cfg     Config
	metrics *Metrics
	mux     *http.ServeMux
}

// New builds the route table.
func New(cfg Config) *Server {
	if cfg.Log == nil {
		cfg.Log = slog.Default()
	}
	s := &Server{cfg: cfg, metrics: NewMetrics(), mux: http.NewServeMux()}
	s.handle("POST /api/v1/jobs", s.handleSubmit)
	s.handle("GET /api/v1/jobs", s.handleListJobs)
	s.handle("GET /api/v1/jobs/{id}", s.handleGetJob)
	s.handle("GET /api/v1/jobs/{id}/result", s.handleJobResult)
	s.handle("DELETE /api/v1/jobs/{id}", s.handleCancelJob)
	s.handle("GET /api/v1/results", s.handleListResults)
	s.handle("GET /api/v1/results/{key}", s.handleGetResult)
	s.handle("GET /api/v1/suites", s.handleSuites)
	if cfg.Streams != nil {
		s.handle("POST /api/v1/streams", s.handleOpenStream)
		s.handle("GET /api/v1/streams", s.handleListStreams)
		s.handle("GET /api/v1/streams/{id}", s.handleGetStream)
		s.handle("POST /api/v1/streams/{id}/chunks", s.handleStreamChunk)
		s.handle("GET /api/v1/streams/{id}/scores", s.handleStreamScores)
		s.handle("POST /api/v1/streams/{id}/close", s.handleCloseStream)
		s.handle("DELETE /api/v1/streams/{id}", s.handleCancelStream)
	}
	s.handle("GET /healthz", s.handleHealthz)
	s.handle("GET /metrics", s.handleMetrics)
	if cfg.Coordinator != nil {
		s.handle("POST /api/v1/fleet/join", s.handleFleetJoin)
		s.handle("POST /api/v1/fleet/heartbeat", s.handleFleetHeartbeat)
		s.handle("POST /api/v1/fleet/pull", s.handleFleetPull)
		s.handle("POST /api/v1/fleet/results", s.handleFleetResults)
		s.handle("POST /api/v1/fleet/leave", s.handleFleetLeave)
		s.handle("GET /api/v1/fleet", s.handleFleetStatus)
	}
	if cfg.EnablePprof {
		s.handle("GET /debug/pprof/", pprof.Index)
		s.handle("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.handle("GET /debug/pprof/profile", pprof.Profile)
		s.handle("GET /debug/pprof/symbol", pprof.Symbol)
		s.handle("GET /debug/pprof/trace", pprof.Trace)
	}
	return s
}

// Handler returns the root handler (all middleware applied).
func (s *Server) Handler() http.Handler { return s.mux }

// handle mounts one route with the logging/metrics middleware. The
// pattern doubles as the route label in metrics and logs, so
// cardinality stays bounded no matter what paths clients send.
func (s *Server) handle(pattern string, h http.HandlerFunc) {
	s.mux.Handle(pattern, s.instrument(pattern, h))
}

// statusWriter captures the response code for logs and metrics.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// requestIDKey carries the request's trace ID through its context.
type requestIDKey struct{}

// maxRequestIDLen bounds an inbound X-Request-ID so a hostile client
// cannot inflate logs.
const maxRequestIDLen = 64

// newRequestID mints a 16-hex-digit trace ID.
func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is effectively fatal elsewhere; a
		// time-based ID keeps requests distinguishable regardless.
		return fmt.Sprintf("t%x", time.Now().UnixNano())
	}
	return hex.EncodeToString(b[:])
}

// sanitizeRequestID accepts a client-supplied trace ID only when it is
// boring: bounded length, [A-Za-z0-9._-] alphabet. Anything else is
// discarded (a fresh ID is minted), which keeps log lines and response
// headers injection-free.
func sanitizeRequestID(id string) string {
	if id == "" || len(id) > maxRequestIDLen {
		return ""
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.':
		default:
			return ""
		}
	}
	return id
}

// requestIDFrom returns the trace ID instrument attached to ctx.
func requestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey{}).(string)
	return id
}

func (s *Server) instrument(route string, next http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		// Honor the caller's X-Request-ID (that is what lets one ID
		// follow a job across fleet hops) or mint one, echo it on the
		// response, and stamp every log line with it.
		rid := sanitizeRequestID(r.Header.Get("X-Request-ID"))
		if rid == "" {
			rid = newRequestID()
		}
		w.Header().Set("X-Request-ID", rid)
		r = r.WithContext(context.WithValue(r.Context(), requestIDKey{}, rid))
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		next(sw, r)
		elapsed := time.Since(start)
		s.metrics.ObserveRequest(route, sw.code, elapsed)
		s.cfg.Log.Info("request",
			"method", r.Method,
			"path", r.URL.Path,
			"route", route,
			"status", sw.code,
			"elapsed", elapsed,
			"remote", r.RemoteAddr,
			"request_id", rid,
		)
	})
}

// writeJSON renders v with a status code; encoding errors after the
// header is out can only be logged.
func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		s.cfg.Log.Error("response encoding failed", "error", err)
	}
}

// reply writes v under code, or err under the status its job or stream
// error maps to; any other error is the client's (400).
func (s *Server) reply(w http.ResponseWriter, code int, v any, err error) {
	switch {
	case err == nil:
		s.writeJSON(w, code, v)
		return
	case errors.Is(err, jobs.ErrNotFound), errors.Is(err, jobs.ErrStreamNotFound):
		code = http.StatusNotFound
	case errors.Is(err, jobs.ErrStreamClosed):
		code = http.StatusConflict
	case errors.Is(err, jobs.ErrQueueFull), errors.Is(err, jobs.ErrStreamLimit), errors.Is(err, jobs.ErrStreamBacklog):
		code = http.StatusTooManyRequests
	case errors.Is(err, jobs.ErrDraining):
		code = http.StatusServiceUnavailable
	default:
		code = http.StatusBadRequest
	}
	s.writeError(w, code, "%v", err)
}

type errorBody struct {
	Error string `json:"error"`
	// Job carries the snapshot when the error concerns a job that does
	// exist (e.g. fetching the result of a failed job).
	Job *jobs.Snapshot `json:"job,omitempty"`
}

func (s *Server) writeError(w http.ResponseWriter, code int, format string, args ...any) {
	s.writeJSON(w, code, errorBody{Error: fmt.Sprintf(format, args...)})
}

// submitResponse wraps the snapshot with the dedup verdict, so a client
// can tell "my job" from "an identical job that was already in flight".
type submitResponse struct {
	Job jobs.Snapshot `json:"job"`
	// Deduped is true when the request folded into an existing job.
	Deduped bool `json:"deduped"`
}

// maxBodyBytes bounds a submission body: the trace payload bound plus
// base64 and JSON envelope overhead.
const maxBodyBytes = jobs.MaxTraceBytes*4/3 + 1<<20

// retryAfterSeconds renders a duration as a whole-second Retry-After
// value, rounding up so clients never come back early.
func retryAfterSeconds(d time.Duration) string {
	return fmt.Sprintf("%d", int64(math.Ceil(d.Seconds())))
}

// admit is the admission path of job submissions, stream opens and
// chunk appends: the X-Tenant token bucket runs before the body is read
// (a throttled tenant costs a header lookup, not a trace decode), then
// at most limit bytes decode strictly into v. On false the 429 or 400
// is already written.
func (s *Server) admit(w http.ResponseWriter, r *http.Request, limit int64, what string, v any) bool {
	tenant := r.Header.Get("X-Tenant")
	if tenant == "" {
		tenant = "default"
	}
	if ok, retry := s.cfg.Quota.Allow(tenant); !ok {
		s.metrics.ObserveQuotaRejection(tenant)
		w.Header().Set("Retry-After", retryAfterSeconds(retry))
		s.writeError(w, http.StatusTooManyRequests, "tenant %q is over its submission quota", tenant)
		return false
	}
	r.Body = http.MaxBytesReader(w, r.Body, limit)
	if err := jobs.DecodeStrict(r.Body, v); err != nil {
		s.writeError(w, http.StatusBadRequest, "decoding %s: %v", what, err)
		return false
	}
	return true
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req jobs.Request
	if !s.admit(w, r, maxBodyBytes, "request", &req) {
		return
	}
	// The job inherits this request's trace ID (body-supplied IDs win,
	// for clients resubmitting a serialized request verbatim). The ID is
	// excluded from the job's content key, so dedup is unaffected.
	if req.RequestID == "" {
		req.RequestID = requestIDFrom(r.Context())
	}
	snap, deduped, err := s.cfg.Queue.Submit(req)
	if errors.Is(err, jobs.ErrQueueFull) {
		// Retry-After estimates when a slot frees from queue depth and
		// the instr/sec EWMA; on a coordinator the fleet's aggregate
		// capacity is the parallelism, so adding workers shortens it.
		parallel := 0
		if s.cfg.Coordinator != nil {
			parallel = s.cfg.Coordinator.Capacity()
		}
		s.metrics.ObserveBackpressureRejection()
		w.Header().Set("Retry-After", retryAfterSeconds(s.cfg.Queue.RetryAfter(parallel)))
	}
	if err != nil {
		s.reply(w, 0, nil, err)
		return
	}
	w.Header().Set("Location", "/api/v1/jobs/"+snap.ID)
	code := http.StatusAccepted
	if deduped {
		code = http.StatusOK
	}
	s.writeJSON(w, code, submitResponse{Job: snap, Deduped: deduped})
}

func (s *Server) handleListJobs(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]any{"jobs": s.cfg.Queue.List()})
}

func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	snap, ok := s.cfg.Queue.Get(r.PathValue("id"))
	if !ok {
		s.writeError(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	s.writeJSON(w, http.StatusOK, snap)
}

func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	snap, ok := s.cfg.Queue.Get(id)
	if !ok {
		s.writeError(w, http.StatusNotFound, "no such job %q", id)
		return
	}
	if wait := r.URL.Query().Get("wait"); wait == "1" || wait == "true" {
		done, err := s.cfg.Queue.Done(id)
		if err != nil {
			s.writeError(w, http.StatusNotFound, "%v", err)
			return
		}
		select {
		case <-done:
		case <-r.Context().Done():
			// The client went away mid-wait; nothing useful to send.
			s.writeError(w, http.StatusServiceUnavailable, "client disconnected while waiting")
			return
		}
		snap, _ = s.cfg.Queue.Get(id)
	}
	if !snap.State.Terminal() {
		// Not ready: hand back the snapshot so pollers see progress.
		s.writeJSON(w, http.StatusAccepted, snap)
		return
	}
	set, ok, err := s.cfg.Queue.Result(id)
	if err != nil || !ok {
		msg := "job finished without a result"
		if snap.Error != nil {
			msg = snap.Error.Message
		}
		s.writeJSON(w, http.StatusConflict, errorBody{Error: msg, Job: &snap})
		return
	}
	s.writeJSON(w, http.StatusOK, set)
}

func (s *Server) handleCancelJob(w http.ResponseWriter, r *http.Request) {
	snap, err := s.cfg.Queue.Cancel(r.PathValue("id"))
	s.reply(w, http.StatusOK, snap, err)
}

func (s *Server) handleListResults(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Store == nil {
		s.writeError(w, http.StatusNotFound, "no result store configured (start perspectord with -store-dir)")
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]any{"results": s.cfg.Store.List()})
}

func (s *Server) handleGetResult(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Store == nil {
		s.writeError(w, http.StatusNotFound, "no result store configured (start perspectord with -store-dir)")
		return
	}
	key := r.PathValue("key")
	set, ok := s.cfg.Store.Get(key)
	if !ok {
		s.writeError(w, http.StatusNotFound, "no result stored under %q", key)
		return
	}
	s.writeJSON(w, http.StatusOK, set)
}

// suiteInfo is one registered suite in the /api/v1/suites listing.
type suiteInfo struct {
	Name        string   `json:"name"`
	Description string   `json:"description"`
	Workloads   []string `json:"workloads"`
}

func (s *Server) handleSuites(w http.ResponseWriter, r *http.Request) {
	all := suites.Registered(suites.DefaultConfig())
	out := make([]suiteInfo, len(all))
	for i, st := range all {
		names := make([]string, len(st.Specs))
		for j := range st.Specs {
			names[j] = st.Specs[j].Name
		}
		out[i] = suiteInfo{Name: st.Name, Description: st.Description, Workloads: names}
	}
	s.writeJSON(w, http.StatusOK, map[string]any{"suites": out})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	role := s.cfg.Role
	if role == "" {
		role = "single"
	}
	peers := 0
	switch {
	case s.cfg.Peers != nil:
		peers = s.cfg.Peers()
	case s.cfg.Coordinator != nil:
		peers = s.cfg.Coordinator.Peers()
	}
	s.writeJSON(w, http.StatusOK, map[string]any{
		"status":     "ok",
		"build":      buildinfo.Read(),
		"goroutines": runtime.NumGoroutine(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"node": map[string]any{
			"role":  role,
			"id":    s.cfg.NodeID,
			"peers": peers,
		},
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.Write(w, s.cfg.Queue, s.cfg.Store, s.cfg.Cache)
	if s.cfg.Streams != nil {
		writeStreamMetrics(w, s.cfg.Streams.Telemetry())
	}
	if s.cfg.Coordinator != nil {
		writeFleetMetrics(w, s.cfg.Coordinator.Status())
	}
}
