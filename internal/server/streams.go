package server

// Streaming-score endpoints: transport over jobs.StreamManager. A client
// opens a stream naming the suites it will feed, POSTs measurement
// chunks as workloads execute, and long-polls the evolving ScoreSet;
// closing seals the stream and persists the final result under its
// content-addressed key. Status mapping is the job endpoints' (see
// reply): admission limits are 429, draining is 503, appends to a
// sealed stream are 409.
//
//	POST   /api/v1/streams                    open a stream (201)
//	GET    /api/v1/streams                    list streams, oldest first
//	GET    /api/v1/streams/{id}               poll one stream
//	POST   /api/v1/streams/{id}/chunks        append one measurement chunk
//	GET    /api/v1/streams/{id}/scores        latest scores; ?since=N&wait=1
//	                                          long-polls past version N
//	POST   /api/v1/streams/{id}/close         seal; final scores persist
//	DELETE /api/v1/streams/{id}               cancel

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"perspector/internal/jobs"
)

// maxChunkBodyBytes bounds one chunk upload; far above any sane
// increment but small enough that a runaway client cannot balloon the
// heap before validation rejects the chunk.
const maxChunkBodyBytes = 8 << 20

func (s *Server) handleOpenStream(w http.ResponseWriter, r *http.Request) {
	var req jobs.StreamOpenRequest
	if !s.admit(w, r, maxChunkBodyBytes, "request", &req) {
		return
	}
	snap, err := s.cfg.Streams.Open(req)
	if err == nil {
		w.Header().Set("Location", "/api/v1/streams/"+snap.ID)
	}
	s.reply(w, http.StatusCreated, snap, err)
}

func (s *Server) handleListStreams(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]any{"streams": s.cfg.Streams.List()})
}

func (s *Server) handleGetStream(w http.ResponseWriter, r *http.Request) {
	snap, err := s.cfg.Streams.Get(r.PathValue("id"))
	s.reply(w, http.StatusOK, snap, err)
}

func (s *Server) handleStreamChunk(w http.ResponseWriter, r *http.Request) {
	var chunk jobs.StreamChunk
	if !s.admit(w, r, maxChunkBodyBytes, "chunk", &chunk) {
		return
	}
	snap, err := s.cfg.Streams.Append(r.PathValue("id"), chunk)
	s.reply(w, http.StatusAccepted, snap, err)
}

func (s *Server) handleStreamScores(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	q := r.URL.Query()
	// Non-blocking by default: since=-1 returns the current state even
	// before the first published version. With wait=1 the call parks
	// until the published version exceeds since (or the stream ends, or
	// the client gives up) — the tail-follow loop is
	// "?since=<last Seq>&wait=1" repeated.
	since := int64(-1)
	if v := q.Get("since"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			s.writeError(w, http.StatusBadRequest, "bad since %q: %v", v, err)
			return
		}
		since = n
	}
	if wait := q.Get("wait"); !(wait == "1" || wait == "true") {
		since = -1
	} else if since < 0 {
		since = 0
	}
	sc, err := s.cfg.Streams.Scores(r.Context(), id, since)
	if err != nil && errors.Is(err, r.Context().Err()) && r.Context().Err() != nil {
		s.writeError(w, http.StatusServiceUnavailable, "client disconnected while waiting")
		return
	}
	s.reply(w, http.StatusOK, sc, err)
}

func (s *Server) handleCloseStream(w http.ResponseWriter, r *http.Request) {
	snap, err := s.cfg.Streams.Close(r.PathValue("id"))
	s.reply(w, http.StatusOK, snap, err)
}

func (s *Server) handleCancelStream(w http.ResponseWriter, r *http.Request) {
	snap, err := s.cfg.Streams.Cancel(r.PathValue("id"))
	s.reply(w, http.StatusOK, snap, err)
}

// writeStreamMetrics renders the streaming gauges and the rescore
// latency histogram, read live from the manager at exposition time.
func writeStreamMetrics(w io.Writer, tel jobs.StreamTelemetry) {
	fmt.Fprintln(w, "# HELP perspectord_streams Streams by lifecycle state.")
	fmt.Fprintln(w, "# TYPE perspectord_streams gauge")
	for _, state := range jobs.StreamStates() {
		fmt.Fprintf(w, "perspectord_streams{state=%s} %d\n", promLabel(string(state)), tel.States[state])
	}
	fmt.Fprintln(w, "# HELP perspectord_streams_active Streams not yet terminal.")
	fmt.Fprintln(w, "# TYPE perspectord_streams_active gauge")
	fmt.Fprintf(w, "perspectord_streams_active %d\n", tel.Active)
	fmt.Fprintln(w, "# HELP perspectord_stream_chunks_total Measurement chunks accepted into streams.")
	fmt.Fprintln(w, "# TYPE perspectord_stream_chunks_total counter")
	fmt.Fprintf(w, "perspectord_stream_chunks_total %d\n", tel.ChunksTotal)
	fmt.Fprintln(w, "# HELP perspectord_stream_rejections_total Stream opens and chunks refused for admission limits.")
	fmt.Fprintln(w, "# TYPE perspectord_stream_rejections_total counter")
	fmt.Fprintf(w, "perspectord_stream_rejections_total %d\n", tel.Rejected)
	fmt.Fprintln(w, "# HELP perspectord_stream_rescore_seconds Incremental rescore latency per applied chunk batch.")
	fmt.Fprintln(w, "# TYPE perspectord_stream_rescore_seconds histogram")
	writeHistogram(w, "perspectord_stream_rescore_seconds", "", tel.Rescores)
}
