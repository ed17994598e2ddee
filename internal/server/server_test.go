package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"perspector/internal/fleet"
	"perspector/internal/jobs"
	"perspector/internal/metric"
	"perspector/internal/server"
	"perspector/internal/store"
)

// stubRunner completes instantly unless told to block or fail.
type stubRunner struct {
	block chan struct{} // nil: don't block
	fail  error
}

func (s stubRunner) run(ctx context.Context, h *jobs.Handle) (store.ScoreSet, error) {
	if s.block != nil {
		select {
		case <-s.block:
		case <-ctx.Done():
			return store.ScoreSet{}, ctx.Err()
		}
	}
	if s.fail != nil {
		return store.ScoreSet{}, s.fail
	}
	return store.New(store.KindScore, "all", "simulator",
		&store.RunConfig{Instructions: 1000, Samples: 10, Seed: 1},
		[]metric.Scores{{Suite: h.Request().Suites[0], Cluster: 0.5}}), nil
}

type testEnv struct {
	ts *httptest.Server
	q  *jobs.Queue
	st *store.Store
}

func newEnv(t *testing.T, run jobs.Runner, opt jobs.Options, mutate func(*server.Config)) *testEnv {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opt.Store = st
	q := jobs.New(run, opt)
	cfg := server.Config{Queue: q, Store: st}
	if mutate != nil {
		mutate(&cfg)
	}
	ts := httptest.NewServer(server.New(cfg).Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		q.Drain(ctx)
		st.Close()
	})
	return &testEnv{ts: ts, q: q, st: st}
}

func (e *testEnv) do(t *testing.T, method, path string, body any) (int, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, e.ts.URL+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := e.ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

type submitResp struct {
	Job     jobs.Snapshot `json:"job"`
	Deduped bool          `json:"deduped"`
}

func scoreBody(seed uint64) map[string]any {
	return map[string]any{
		"kind":   "score",
		"suites": []string{"nbench"},
		"config": map[string]any{"instructions": 1000, "samples": 10, "seed": seed},
	}
}

func TestSubmitPollCancelLifecycle(t *testing.T) {
	block := make(chan struct{})
	env := newEnv(t, stubRunner{block: block}.run, jobs.Options{Workers: 1}, nil)

	code, data := env.do(t, "POST", "/api/v1/jobs", scoreBody(1))
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, data)
	}
	var sub submitResp
	if err := json.Unmarshal(data, &sub); err != nil {
		t.Fatal(err)
	}
	if sub.Deduped || sub.Job.ID == "" || sub.Job.Key == "" {
		t.Fatalf("submit response: %+v", sub)
	}

	// Identical submission while in flight: deduplicated, HTTP 200.
	code, data = env.do(t, "POST", "/api/v1/jobs", scoreBody(1))
	if code != http.StatusOK {
		t.Fatalf("dup submit: %d %s", code, data)
	}
	var dup submitResp
	if err := json.Unmarshal(data, &dup); err != nil {
		t.Fatal(err)
	}
	if !dup.Deduped || dup.Job.ID != sub.Job.ID {
		t.Fatalf("dup response: %+v", dup)
	}

	// Poll: running, no result yet (202 from the result endpoint).
	code, data = env.do(t, "GET", "/api/v1/jobs/"+sub.Job.ID, nil)
	if code != http.StatusOK {
		t.Fatalf("poll: %d %s", code, data)
	}
	code, _ = env.do(t, "GET", "/api/v1/jobs/"+sub.Job.ID+"/result", nil)
	if code != http.StatusAccepted {
		t.Fatalf("early result fetch: %d, want 202", code)
	}

	// A second, queued job can be cancelled via the API.
	code, data = env.do(t, "POST", "/api/v1/jobs", scoreBody(2))
	if code != http.StatusAccepted {
		t.Fatalf("second submit: %d %s", code, data)
	}
	var queued submitResp
	if err := json.Unmarshal(data, &queued); err != nil {
		t.Fatal(err)
	}
	code, data = env.do(t, "DELETE", "/api/v1/jobs/"+queued.Job.ID, nil)
	if code != http.StatusOK {
		t.Fatalf("cancel: %d %s", code, data)
	}
	var canceled jobs.Snapshot
	if err := json.Unmarshal(data, &canceled); err != nil {
		t.Fatal(err)
	}
	if canceled.State != jobs.StateCanceled {
		t.Fatalf("cancel left state %s", canceled.State)
	}

	// Release the first job and long-poll its result.
	close(block)
	code, data = env.do(t, "GET", "/api/v1/jobs/"+sub.Job.ID+"/result?wait=1", nil)
	if code != http.StatusOK {
		t.Fatalf("result wait: %d %s", code, data)
	}
	var set store.ScoreSet
	if err := json.Unmarshal(data, &set); err != nil {
		t.Fatal(err)
	}
	if len(set.Suites) != 1 || set.Suites[0].Suite != "nbench" {
		t.Fatalf("result: %+v", set)
	}

	// The completed result is also in the durable store endpoints.
	code, data = env.do(t, "GET", "/api/v1/results", nil)
	if code != http.StatusOK {
		t.Fatalf("results list: %d %s", code, data)
	}
	var list struct {
		Results []store.Summary `json:"results"`
	}
	if err := json.Unmarshal(data, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Results) != 1 || list.Results[0].Key != sub.Job.Key {
		t.Fatalf("results list: %+v", list.Results)
	}
	code, _ = env.do(t, "GET", "/api/v1/results/"+sub.Job.Key, nil)
	if code != http.StatusOK {
		t.Fatalf("result by key: %d", code)
	}

	// Job listing shows all three jobs.
	code, data = env.do(t, "GET", "/api/v1/jobs", nil)
	if code != http.StatusOK {
		t.Fatalf("jobs list: %d", code)
	}
	var jl struct {
		Jobs []jobs.Snapshot `json:"jobs"`
	}
	if err := json.Unmarshal(data, &jl); err != nil {
		t.Fatal(err)
	}
	if len(jl.Jobs) != 2 {
		t.Fatalf("job list has %d entries, want 2: %+v", len(jl.Jobs), jl.Jobs)
	}
}

func TestStatusMapping(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	env := newEnv(t, stubRunner{block: block}.run, jobs.Options{Workers: 1, MaxQueue: 1}, nil)

	// Unknown job: 404 everywhere.
	for _, path := range []string{"/api/v1/jobs/j-404", "/api/v1/jobs/j-404/result"} {
		if code, _ := env.do(t, "GET", path, nil); code != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", path, code)
		}
	}
	if code, _ := env.do(t, "DELETE", "/api/v1/jobs/j-404", nil); code != http.StatusNotFound {
		t.Errorf("DELETE unknown job = %d, want 404", code)
	}
	if code, _ := env.do(t, "GET", "/api/v1/results/deadbeef", nil); code != http.StatusNotFound {
		t.Errorf("GET unknown result = %d, want 404", code)
	}

	// Malformed and invalid bodies: 400.
	req, _ := http.NewRequest("POST", env.ts.URL+"/api/v1/jobs", strings.NewReader("{not json"))
	resp, err := env.ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body = %d, want 400", resp.StatusCode)
	}
	if code, _ := env.do(t, "POST", "/api/v1/jobs", map[string]any{"kind": "score", "suites": []string{"nosuch"}}); code != http.StatusBadRequest {
		t.Errorf("unknown suite = %d, want 400", code)
	}
	if code, _ := env.do(t, "POST", "/api/v1/jobs", map[string]any{"kind": "score", "surprise": 1}); code != http.StatusBadRequest {
		t.Errorf("unknown field = %d, want 400", code)
	}
	if code, _ := env.do(t, "POST", "/api/v1/jobs", map[string]any{
		"kind": "score", "trace": map[string]any{"format": "csv", "data": []byte("not,a,header\n")},
	}); code != http.StatusBadRequest {
		t.Errorf("unparseable trace = %d, want 400", code)
	}

	// Queue overflow: one running, one queued (MaxQueue=1), next is 429.
	if code, _ := env.do(t, "POST", "/api/v1/jobs", scoreBody(1)); code != http.StatusAccepted {
		t.Fatal("first submit rejected")
	}
	if code, _ := env.do(t, "POST", "/api/v1/jobs", scoreBody(2)); code != http.StatusAccepted {
		t.Fatal("second submit rejected")
	}
	if code, _ := env.do(t, "POST", "/api/v1/jobs", scoreBody(3)); code != http.StatusTooManyRequests {
		t.Errorf("overflow submit = %d, want 429", code)
	}
}

func TestFailedJobResultCarriesStageTag(t *testing.T) {
	failure := fmt.Errorf("boom")
	env := newEnv(t, stubRunner{fail: failure}.run, jobs.Options{Workers: 1}, nil)
	code, data := env.do(t, "POST", "/api/v1/jobs", scoreBody(1))
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, data)
	}
	var sub submitResp
	if err := json.Unmarshal(data, &sub); err != nil {
		t.Fatal(err)
	}
	code, data = env.do(t, "GET", "/api/v1/jobs/"+sub.Job.ID+"/result?wait=1", nil)
	if code != http.StatusConflict {
		t.Fatalf("failed job result = %d %s, want 409", code, data)
	}
	var body struct {
		Error string         `json:"error"`
		Job   *jobs.Snapshot `json:"job"`
	}
	if err := json.Unmarshal(data, &body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(body.Error, "boom") || body.Job == nil || body.Job.State != jobs.StateFailed {
		t.Fatalf("failure body: %s", data)
	}
}

func TestDrainingSubmitReturns503(t *testing.T) {
	env := newEnv(t, stubRunner{}.run, jobs.Options{Workers: 1}, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := env.q.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if code, _ := env.do(t, "POST", "/api/v1/jobs", scoreBody(1)); code != http.StatusServiceUnavailable {
		t.Errorf("submit while draining = %d, want 503", code)
	}
}

func TestSuitesAndHealthz(t *testing.T) {
	env := newEnv(t, stubRunner{}.run, jobs.Options{Workers: 1}, nil)
	code, data := env.do(t, "GET", "/api/v1/suites", nil)
	if code != http.StatusOK {
		t.Fatalf("suites: %d", code)
	}
	var body struct {
		Suites []struct {
			Name      string   `json:"name"`
			Workloads []string `json:"workloads"`
		} `json:"suites"`
	}
	if err := json.Unmarshal(data, &body); err != nil {
		t.Fatal(err)
	}
	if len(body.Suites) != 8 {
		t.Fatalf("listed %d registered suites, want 8 (stock six + bigdatabench + cpu2026)", len(body.Suites))
	}
	names := make(map[string]bool, len(body.Suites))
	for _, s := range body.Suites {
		names[s.Name] = true
		if len(s.Workloads) == 0 {
			t.Fatalf("suite %s has no workloads", s.Name)
		}
	}
	for _, want := range []string{"nbench", "spec17", "bigdatabench", "cpu2026"} {
		if !names[want] {
			t.Errorf("suite listing lacks %q", want)
		}
	}
	if code, _ := env.do(t, "GET", "/healthz", nil); code != http.StatusOK {
		t.Errorf("healthz = %d", code)
	}
}

func TestPprofGating(t *testing.T) {
	off := newEnv(t, stubRunner{}.run, jobs.Options{Workers: 1}, nil)
	if code, _ := off.do(t, "GET", "/debug/pprof/", nil); code != http.StatusNotFound {
		t.Errorf("pprof without flag = %d, want 404", code)
	}
	on := newEnv(t, stubRunner{}.run, jobs.Options{Workers: 1}, func(c *server.Config) { c.EnablePprof = true })
	if code, _ := on.do(t, "GET", "/debug/pprof/", nil); code != http.StatusOK {
		t.Errorf("pprof with flag = %d, want 200", code)
	}
}

// TestPerfRoutesAbsentWithoutService pins that the server mounts no
// benchmark-history dashboard: wall time from the history log's mixed
// hosts supports no trend, so nothing serves one.
func TestPerfRoutesAbsentWithoutService(t *testing.T) {
	rec := httptest.NewRecorder()
	server.New(server.Config{}).Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/perf", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("GET /perf = %d, want 404", rec.Code)
	}
}

func TestMetricsExposition(t *testing.T) {
	env := newEnv(t, stubRunner{}.run, jobs.Options{Workers: 1}, nil)
	code, data := env.do(t, "POST", "/api/v1/jobs", scoreBody(1))
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	var sub submitResp
	if err := json.Unmarshal(data, &sub); err != nil {
		t.Fatal(err)
	}
	if code, _ = env.do(t, "GET", "/api/v1/jobs/"+sub.Job.ID+"/result?wait=1", nil); code != http.StatusOK {
		t.Fatalf("result: %d", code)
	}
	_, body := env.do(t, "GET", "/metrics", nil)
	text := string(body)
	for _, want := range []string{
		`perspectord_requests_total{route="POST /api/v1/jobs",code="202"} 1`,
		`perspectord_jobs{state="done"} 1`,
		`perspectord_jobs{state="queued"} 0`,
		"perspectord_queue_depth 0",
		"perspectord_results_stored 1",
		`perspectord_request_duration_seconds_count{route="POST /api/v1/jobs"} 1`,
		"perspector_simulated_instructions_per_second",
		"perspectord_uptime_seconds",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q\n%s", want, text)
		}
	}
}

// TestFleetJoinForeignArchConflicts checks the HTTP face of the
// coordinator's architecture guard: a join from a worker built for
// another GOARCH is a 409 and registers no node.
func TestFleetJoinForeignArchConflicts(t *testing.T) {
	var coord *fleet.Coordinator
	env := newEnv(t, stubRunner{}.run, jobs.Options{Workers: 1}, func(cfg *server.Config) {
		coord = fleet.NewCoordinator(fleet.CoordinatorOptions{Log: discardLog()})
		cfg.Coordinator = coord
	})
	foreign := "arm64"
	if runtime.GOARCH == foreign {
		foreign = "amd64"
	}
	code, data := env.do(t, "POST", "/api/v1/fleet/join",
		fleet.JoinRequest{NodeID: "node-a", Capacity: 1, GOARCH: foreign})
	if code != http.StatusConflict {
		t.Fatalf("foreign-arch join: %d %s, want 409", code, data)
	}
	if n := len(coord.Status().Nodes); n != 0 {
		t.Fatalf("%d nodes registered after a refused join, want 0", n)
	}
}
