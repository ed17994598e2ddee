package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"perspector/internal/jobs"
	"perspector/internal/store"
)

// fleetMux exposes a coordinator over HTTP the way internal/server
// does, so Worker's client loop can be exercised without importing the
// server package (which imports this one).
func fleetMux(c *Coordinator) http.Handler {
	reply := func(w http.ResponseWriter, v any, err error) {
		switch {
		case errors.Is(err, ErrUnknownNode):
			http.Error(w, err.Error(), http.StatusNotFound)
		case err != nil:
			http.Error(w, err.Error(), http.StatusInternalServerError)
		default:
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(v)
		}
	}
	handle := func(mux *http.ServeMux, path string, fn func(*http.Request) (any, error)) {
		mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
			v, err := fn(r)
			reply(w, v, err)
		})
	}
	mux := http.NewServeMux()
	handle(mux, "/api/v1/fleet/join", func(r *http.Request) (any, error) {
		var req JoinRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			return nil, err
		}
		return c.Join(req)
	})
	handle(mux, "/api/v1/fleet/heartbeat", func(r *http.Request) (any, error) {
		var req HeartbeatRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			return nil, err
		}
		return c.Heartbeat(req)
	})
	handle(mux, "/api/v1/fleet/pull", func(r *http.Request) (any, error) {
		var req PullRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			return nil, err
		}
		return c.Pull(r.Context(), req)
	})
	handle(mux, "/api/v1/fleet/results", func(r *http.Request) (any, error) {
		var req ResultPush
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			return nil, err
		}
		return map[string]bool{"ok": true}, c.PushResult(req)
	})
	handle(mux, "/api/v1/fleet/leave", func(r *http.Request) (any, error) {
		var req JoinRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			return nil, err
		}
		return map[string]bool{"ok": true}, c.Leave(req.NodeID)
	})
	return mux
}

// stubRunner resolves every job instantly with a set derived from the
// request, so fleet mechanics are tested without the simulation engine.
func stubRunner(ctx context.Context, h *jobs.Handle) (store.ScoreSet, error) {
	h.SetStage("measure", 1)
	h.AddInstructions(1000)
	h.Advance(1)
	req := h.Request()
	suites := make([]store.SuiteScores, len(req.Suites))
	for i, s := range req.Suites {
		suites[i] = store.SuiteScores{Suite: s, Cluster: 1, Trend: 1, Coverage: 1, Spread: 1}
	}
	return store.ScoreSet{
		Schema: store.SchemaVersion,
		Kind:   req.Kind,
		Group:  req.Group,
		Source: fmt.Sprintf("stub:%v", req.Suites),
		Suites: suites,
	}, nil
}

func scoreRequest(suite string) jobs.Request {
	return jobs.Request{Kind: store.KindScore, Suites: []string{suite}}
}

// startWorker builds a full worker node (a queue running run + JSONL
// replica) against the coordinator URL and runs it until the returned
// stop function is called; stop blocks through the graceful drain.
func startWorker(t *testing.T, url, id string, capacity int, run jobs.Runner) (stop func(), st *store.Store) {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatalf("open worker store: %v", err)
	}
	q := jobs.New(run, jobs.Options{Workers: capacity, MaxQueue: 256, Store: st})
	w, err := NewWorker(WorkerOptions{
		Coordinator: url,
		NodeID:      id,
		Capacity:    capacity,
		Queue:       q,
		Store:       st,
		PullWait:    200 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("new worker: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- w.Run(ctx) }()
	return func() {
		cancel()
		select {
		case err := <-done:
			if err != nil && !errors.Is(err, context.Canceled) {
				t.Errorf("worker %s run: %v", id, err)
			}
		case <-time.After(10 * time.Second):
			t.Errorf("worker %s did not drain", id)
		}
		drainCtx, dc := context.WithTimeout(context.Background(), 5*time.Second)
		defer dc()
		q.Drain(drainCtx)
	}, st
}

func newTestCoordinator(t *testing.T) (*Coordinator, *store.Store, *httptest.Server) {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatalf("open coordinator store: %v", err)
	}
	c := NewCoordinator(CoordinatorOptions{Store: st, HeartbeatEvery: 200 * time.Millisecond})
	srv := httptest.NewServer(fleetMux(c))
	t.Cleanup(func() { srv.Close(); c.Close() })
	return c, st, srv
}

func TestCoordinatorUnroutedThenDelivered(t *testing.T) {
	c := NewCoordinator(CoordinatorOptions{})
	defer c.Close()

	req := scoreRequest("parsec")
	if err := req.Normalize(); err != nil {
		t.Fatal(err)
	}
	type res struct {
		set store.ScoreSet
		err error
	}
	got := make(chan res, 1)
	go func() {
		set, _, err := c.Dispatch(context.Background(), req.Key(), req)
		got <- res{set, err}
	}()

	// No workers yet: the dispatch parks as unrouted.
	waitFor(t, "dispatch parked unrouted", func() bool { return c.Status().Unrouted == 1 })

	if _, err := c.Join(JoinRequest{NodeID: "n1", Capacity: 2}); err != nil {
		t.Fatal(err)
	}
	if c.Status().Unrouted != 0 {
		t.Fatal("join did not route the parked dispatch")
	}
	pull, err := c.Pull(context.Background(), PullRequest{NodeID: "n1", Max: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(pull.Dispatches) != 1 {
		t.Fatalf("pulled %d dispatches, want 1", len(pull.Dispatches))
	}
	d := pull.Dispatches[0]
	if d.Key != req.Key() {
		t.Errorf("dispatch key %q, want %q", d.Key, req.Key())
	}
	want := store.ScoreSet{Schema: store.SchemaVersion, Kind: store.KindScore, Source: "done"}
	err = c.PushResult(ResultPush{
		NodeID: "n1", DispatchID: d.ID, Key: d.Key,
		At: time.Now().UTC().Format(time.RFC3339Nano), Set: &want, Instructions: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := <-got
	if r.err != nil {
		t.Fatalf("dispatch returned error: %v", r.err)
	}
	if r.set.Source != "done" {
		t.Errorf("dispatch returned set source %q, want done", r.set.Source)
	}
	if st := c.Status(); st.RepLen != 1 {
		t.Errorf("replication log length %d, want 1", st.RepLen)
	}
}

func TestCoordinatorExpiryRequeuesDelivered(t *testing.T) {
	c := NewCoordinator(CoordinatorOptions{})
	defer c.Close()

	req := scoreRequest("ligra")
	if err := req.Normalize(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Join(JoinRequest{NodeID: "n1", Capacity: 1}); err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() {
		_, _, err := c.Dispatch(context.Background(), req.Key(), req)
		got <- err
	}()
	waitFor(t, "dispatch queued for n1", func() bool {
		st := c.Status()
		return len(st.Nodes) == 1 && st.Nodes[0].Pending == 1
	})
	pull, err := c.Pull(context.Background(), PullRequest{NodeID: "n1", Max: 1})
	if err != nil || len(pull.Dispatches) != 1 {
		t.Fatalf("pull: %v, %d dispatches", err, len(pull.Dispatches))
	}
	d := pull.Dispatches[0]

	// n1 crashes: force the expiry path (the sweeper's action, without
	// waiting out a heartbeat timeout).
	c.mu.Lock()
	c.removeNodeLocked(c.nodes["n1"], true)
	c.mu.Unlock()

	// The delivered dispatch is back in the unrouted pool; a new node
	// inherits and finishes it.
	if st := c.Status(); st.Unrouted != 1 {
		t.Fatalf("unrouted = %d after crash expiry, want 1", st.Unrouted)
	}
	if _, err := c.Join(JoinRequest{NodeID: "n2", Capacity: 1}); err != nil {
		t.Fatal(err)
	}
	pull2, err := c.Pull(context.Background(), PullRequest{NodeID: "n2", Max: 1})
	if err != nil || len(pull2.Dispatches) != 1 {
		t.Fatalf("pull after re-join: %v, %d dispatches", err, len(pull2.Dispatches))
	}
	if pull2.Dispatches[0].ID != d.ID {
		t.Fatalf("re-dispatch ID %d, want %d", pull2.Dispatches[0].ID, d.ID)
	}

	// n1's ghost reports a failure for the re-routed dispatch: stale,
	// must not fail the job out from under n2.
	err = c.PushResult(ResultPush{
		NodeID: "n1", DispatchID: d.ID, Key: d.Key,
		Error: &jobs.ErrorInfo{Message: "ghost failure"},
	})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-got:
		t.Fatalf("stale error from expired node completed the dispatch: %v", err)
	case <-time.After(50 * time.Millisecond):
	}

	set := store.ScoreSet{Schema: store.SchemaVersion, Kind: store.KindScore}
	if err := c.PushResult(ResultPush{NodeID: "n2", DispatchID: d.ID, Key: d.Key, Set: &set}); err != nil {
		t.Fatal(err)
	}
	if err := <-got; err != nil {
		t.Fatalf("dispatch failed after re-route: %v", err)
	}
}

func TestCoordinatorAbandonCancelsDelivered(t *testing.T) {
	c := NewCoordinator(CoordinatorOptions{})
	defer c.Close()

	req := scoreRequest("nbench")
	if err := req.Normalize(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Join(JoinRequest{NodeID: "n1", Capacity: 1}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	got := make(chan error, 1)
	go func() {
		_, _, err := c.Dispatch(ctx, req.Key(), req)
		got <- err
	}()
	waitFor(t, "dispatch queued", func() bool {
		st := c.Status()
		return len(st.Nodes) == 1 && st.Nodes[0].Pending == 1
	})
	pull, err := c.Pull(context.Background(), PullRequest{NodeID: "n1", Max: 1})
	if err != nil || len(pull.Dispatches) != 1 {
		t.Fatalf("pull: %v, %d dispatches", err, len(pull.Dispatches))
	}
	cancel()
	if err := <-got; !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoned dispatch returned %v, want context.Canceled", err)
	}
	hb, err := c.Heartbeat(HeartbeatRequest{NodeID: "n1"})
	if err != nil {
		t.Fatal(err)
	}
	if len(hb.Cancels) != 1 || hb.Cancels[0] != pull.Dispatches[0].ID {
		t.Fatalf("heartbeat cancels = %v, want [%d]", hb.Cancels, pull.Dispatches[0].ID)
	}
}

func TestFleetEndToEndThroughWorkers(t *testing.T) {
	c, coordStore, srv := newTestCoordinator(t)
	queue := jobs.New(jobs.RemoteRunner(c), jobs.Options{Workers: 8, MaxQueue: 256, Store: coordStore})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		queue.Drain(ctx)
	}()

	// parsec's first run is held until its duplicate has been submitted:
	// a stub that finished first would turn the duplicate into a replay
	// from the store, and the in-flight dedup path would go untested.
	duplicated := make(chan struct{})
	release := sync.OnceFunc(func() { close(duplicated) })
	gated := func(ctx context.Context, h *jobs.Handle) (store.ScoreSet, error) {
		if h.Request().Suites[0] == "parsec" {
			select {
			case <-duplicated:
			case <-ctx.Done():
				return store.ScoreSet{}, ctx.Err()
			}
		}
		return stubRunner(ctx, h)
	}
	stop1, st1 := startWorker(t, srv.URL, "w1", 2, gated)
	stop2, st2 := startWorker(t, srv.URL, "w2", 2, gated)
	defer stop2()
	// A failed submission below must not leave parsec parked through the
	// workers' graceful drain.
	defer release()

	waitFor(t, "both workers joined", func() bool { return c.Peers() == 2 })
	if got := c.Capacity(); got != 4 {
		t.Errorf("fleet capacity %d, want 4", got)
	}

	// Submit the six stock suites plus a duplicate of the first; the
	// duplicate must fold into the coordinator queue (fleet-wide dedup).
	suites := []string{"parsec", "spec17", "ligra", "lmbench", "nbench", "sgxgauge"}
	ids := make([]string, 0, len(suites))
	for _, s := range suites {
		snap, deduped, err := queue.Submit(scoreRequest(s))
		if err != nil {
			t.Fatalf("submit %s: %v", s, err)
		}
		if deduped {
			t.Fatalf("fresh submission %s reported deduped", s)
		}
		ids = append(ids, snap.ID)
	}
	_, deduped, err := queue.Submit(scoreRequest("parsec"))
	release()
	if err != nil || !deduped {
		t.Fatalf("duplicate parsec submission: deduped=%v err=%v", deduped, err)
	}

	for i, id := range ids {
		done, err := queue.Done(id)
		if err != nil {
			t.Fatalf("done %s: %v", id, err)
		}
		select {
		case <-done:
		case <-time.After(15 * time.Second):
			t.Fatalf("job %s (%s) did not finish", id, suites[i])
		}
		set, ok, jerr := queue.Result(id)
		if !ok {
			t.Fatalf("job %s (%s) has no result: %v", id, suites[i], jerr)
		}
		if want := fmt.Sprintf("stub:[%s]", suites[i]); set.Source != want {
			t.Errorf("job %s result source %q, want %q", id, set.Source, want)
		}
	}

	// Results replicate everywhere: the coordinator replica has all six
	// (via the queue's store path), and both workers converge through
	// piggybacked replication even for keys the other node executed.
	converged := func() bool {
		return len(coordStore.Records()) == 6 &&
			len(st1.Records()) == 6 && len(st2.Records()) == 6
	}
	for deadline := time.Now().Add(10 * time.Second); !converged(); {
		if time.Now().After(deadline) {
			t.Fatalf("replication did not converge: coordinator=%d w1=%d w2=%d records, want 6 each",
				len(coordStore.Records()), len(st1.Records()), len(st2.Records()))
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Work actually spread over the ring: every dispatch went somewhere,
	// and the per-node split matches 6 total.
	st := c.Status()
	var dispatched uint64
	for _, n := range st.Nodes {
		dispatched += n.Dispatched
	}
	if dispatched != 6 {
		t.Errorf("fleet dispatched %d jobs, want 6", dispatched)
	}

	// Graceful drain: stop w1, then the same submission still completes
	// on the survivor — and replays from the replicated store without
	// re-dispatching (records already hold the key).
	stop1()
	waitFor(t, "w1 departed", func() bool { return c.Peers() == 1 })
	snap, _, err := queue.Submit(scoreRequest("parsec"))
	if err != nil {
		t.Fatal(err)
	}
	done, err := queue.Done(snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		t.Fatal("post-drain resubmission did not finish")
	}
	final, _ := queue.Get(snap.ID)
	if !final.Replayed {
		t.Errorf("post-drain resubmission state %s replayed=%v; want replay from the replica", final.State, final.Replayed)
	}
}

func TestWorkerLifecycleGoroutineLeaks(t *testing.T) {
	c, coordStore, srv := newTestCoordinator(t)
	queue := jobs.New(jobs.RemoteRunner(c), jobs.Options{Workers: 2, MaxQueue: 64, Store: coordStore})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		queue.Drain(ctx)
	}()

	// Warm one full join/execute/drain cycle so lazy pools (HTTP
	// transport keep-alives, timer goroutines) exist before the baseline.
	warmStop, _ := startWorker(t, srv.URL, "warm", 1, stubRunner)
	snap, _, err := queue.Submit(scoreRequest("parsec"))
	if err != nil {
		t.Fatal(err)
	}
	if done, err := queue.Done(snap.ID); err == nil {
		<-done
	}
	warmStop()
	waitFor(t, "warm worker departed", func() bool { return c.Peers() == 0 })

	settle := func() int {
		n := runtime.NumGoroutine()
		for i := 0; i < 50; i++ {
			time.Sleep(20 * time.Millisecond)
			if m := runtime.NumGoroutine(); m <= n {
				return m
			} else {
				n = m
			}
		}
		return n
	}
	before := settle()

	for round := 0; round < 3; round++ {
		stop, _ := startWorker(t, srv.URL, fmt.Sprintf("cycle-%d", round), 2, stubRunner)
		waitFor(t, "cycle worker joined", func() bool { return c.Peers() == 1 })
		snap, _, err := queue.Submit(scoreRequest("spec17"))
		if err != nil {
			t.Fatal(err)
		}
		if done, err := queue.Done(snap.ID); err == nil {
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Fatal("cycle job did not finish")
			}
		}
		stop()
		waitFor(t, "cycle worker departed", func() bool { return c.Peers() == 0 })
	}

	after := settle()
	if after > before+3 {
		t.Errorf("goroutines grew %d -> %d across 3 worker join/drain cycles", before, after)
	}
}

func waitFor(t *testing.T, what string, ok func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if ok() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}
