package fleet_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"perspector"
	"perspector/internal/cache"
	"perspector/internal/fleet"
	"perspector/internal/jobs"
	"perspector/internal/metric"
	"perspector/internal/server"
	"perspector/internal/store"
	"perspector/internal/suites"
)

// e2eConfig mirrors the single-node e2e determinism config.
func e2eConfig() suites.Config {
	cfg := suites.DefaultConfig()
	cfg.Instructions = 20_000
	cfg.Samples = 10
	cfg.Seed = 2023
	return cfg
}

func discardLog() *slog.Logger { return slog.New(slog.NewTextHandler(io.Discard, nil)) }

// node is one perspectord stack stood up in-process.
type node struct {
	url   string
	queue *jobs.Queue
	store *store.Store
}

// submitAndWait pushes one score job through a node's HTTP API and
// long-polls the ScoreSet out.
func submitAndWait(t *testing.T, url, suite string, cfg suites.Config) store.ScoreSet {
	t.Helper()
	body, _ := json.Marshal(map[string]any{
		"kind":   "score",
		"suites": []string{suite},
		"config": map[string]any{"instructions": cfg.Instructions, "samples": cfg.Samples, "seed": cfg.Seed},
	})
	resp, err := http.Post(url+"/api/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("submit %s: %d %s", suite, resp.StatusCode, raw)
	}
	var sub struct {
		Job jobs.Snapshot `json:"job"`
	}
	if err := json.Unmarshal(raw, &sub); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(url + "/api/v1/jobs/" + sub.Job.ID + "/result?wait=1")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result %s: %d %s", suite, resp.StatusCode, raw)
	}
	var set store.ScoreSet
	if err := json.Unmarshal(raw, &set); err != nil {
		t.Fatal(err)
	}
	return set
}

// startSingle stands up a classic single-process perspectord.
func startSingle(t *testing.T) node {
	t.Helper()
	cacheStore, err := cache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	q := jobs.New(jobs.EngineRunner(cacheStore), jobs.Options{Workers: 2, Store: st, Log: discardLog()})
	ts := httptest.NewServer(server.New(server.Config{
		Queue: q, Store: st, Cache: cacheStore, Log: discardLog(),
	}).Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		q.Drain(ctx)
		ts.Close()
	})
	return node{url: ts.URL, queue: q, store: st}
}

// startFleet stands up a coordinator with two engine workers and
// returns the coordinator node plus the worker replicas.
func startFleet(t *testing.T) (node, *fleet.Coordinator, []*store.Store) {
	t.Helper()
	coordStore, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	coord := fleet.NewCoordinator(fleet.CoordinatorOptions{Store: coordStore, Log: discardLog()})
	q := jobs.New(jobs.RemoteRunner(coord), jobs.Options{Workers: 8, MaxQueue: 64, Store: coordStore, Log: discardLog()})
	ts := httptest.NewServer(server.New(server.Config{
		Queue: q, Store: coordStore, Log: discardLog(),
		Role: "coordinator", NodeID: "c0", Coordinator: coord,
	}).Handler())

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 2)
	var replicas []*store.Store
	for i := 0; i < 2; i++ {
		workerCache, err := cache.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		st, err := store.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		replicas = append(replicas, st)
		wq := jobs.New(jobs.EngineRunner(workerCache), jobs.Options{Workers: 2, MaxQueue: 64, Store: st, Log: discardLog()})
		w, err := fleet.NewWorker(fleet.WorkerOptions{
			Coordinator: ts.URL, NodeID: fmt.Sprintf("w%d", i+1),
			Capacity: 2, Queue: wq, Store: st, Log: discardLog(),
			PullWait: 200 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		go func() { done <- w.Run(ctx) }()
		t.Cleanup(func() {
			dctx, dc := context.WithTimeout(context.Background(), 10*time.Second)
			defer dc()
			wq.Drain(dctx)
		})
	}
	t.Cleanup(func() {
		cancel()
		for i := 0; i < 2; i++ {
			select {
			case err := <-done:
				if err != nil && !errors.Is(err, context.Canceled) {
					t.Errorf("worker run: %v", err)
				}
			case <-time.After(15 * time.Second):
				t.Error("worker did not drain")
			}
		}
		dctx, dc := context.WithTimeout(context.Background(), 10*time.Second)
		defer dc()
		q.Drain(dctx)
		ts.Close()
		coord.Close()
	})

	deadline := time.Now().Add(10 * time.Second)
	for coord.Peers() != 2 {
		if time.Now().After(deadline) {
			t.Fatal("workers did not join")
		}
		time.Sleep(10 * time.Millisecond)
	}
	return node{url: ts.URL, queue: q, store: coordStore}, coord, replicas
}

// TestFleetScoresBitIdentical is the fleet acceptance test: all six
// stock suites scored through a 3-node fleet must be bit-identical to a
// single-node perspectord and to the direct library engine.
func TestFleetScoresBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	cfg := e2eConfig()
	names := []string{"parsec", "spec17", "ligra", "lmbench", "nbench", "sgxgauge"}

	// Direct-engine reference, the same path the CLI takes.
	ctx := context.Background()
	opts := perspector.DefaultOptions()
	want := make(map[string]metric.Scores, len(names))
	for _, name := range names {
		s, err := perspector.SuiteByName(name, cfg)
		if err != nil {
			t.Fatal(err)
		}
		m, err := perspector.MeasureContext(ctx, s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sc, err := perspector.ScoreContext(ctx, m, opts)
		if err != nil {
			t.Fatal(err)
		}
		want[name] = sc
	}

	single := startSingle(t)
	coordNode, coord, replicas := startFleet(t)

	for _, name := range names {
		singleSet := submitAndWait(t, single.url, name, cfg)
		fleetSet := submitAndWait(t, coordNode.url, name, cfg)

		ss, fs := singleSet.Scores(), fleetSet.Scores()
		if len(ss) != 1 || len(fs) != 1 {
			t.Fatalf("%s: score counts single=%d fleet=%d, want 1", name, len(ss), len(fs))
		}
		if fs[0] != want[name] {
			t.Errorf("%s: fleet scores diverge from direct engine:\n got %x\nwant %x", name, fs[0], want[name])
		}
		if fs[0] != ss[0] {
			t.Errorf("%s: fleet scores diverge from single-node perspectord:\n got %x\nwant %x", name, fs[0], ss[0])
		}
		if fleetSet.Source != "simulator" || fleetSet.Kind != store.KindScore {
			t.Errorf("%s: fleet ScoreSet envelope: kind=%q source=%q", name, fleetSet.Kind, fleetSet.Source)
		}
	}

	// The work actually spread across both workers, and every replica —
	// coordinator included — converged to all six documents.
	st := coord.Status()
	var dispatched uint64
	for _, n := range st.Nodes {
		if n.Dispatched == 0 {
			t.Errorf("node %s executed no dispatches; routing did not spread", n.NodeID)
		}
		dispatched += n.Dispatched
	}
	if dispatched != uint64(len(names)) {
		t.Errorf("fleet dispatched %d jobs, want %d", dispatched, len(names))
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if len(coordNode.store.Records()) == len(names) &&
			len(replicas[0].Records()) == len(names) &&
			len(replicas[1].Records()) == len(names) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replicas did not converge: coordinator=%d w1=%d w2=%d, want %d",
				len(coordNode.store.Records()), len(replicas[0].Records()),
				len(replicas[1].Records()), len(names))
		}
		time.Sleep(20 * time.Millisecond)
	}

	// A resubmission against the coordinator replays from its replica
	// without a new dispatch — the fleet-wide cache at work.
	set := submitAndWait(t, coordNode.url, names[0], cfg)
	if got := set.Scores(); len(got) != 1 || got[0] != want[names[0]] {
		t.Errorf("replayed fleet score diverges:\n got %x\nwant %x", got, want[names[0]])
	}
	if after := coord.Status(); after.RepLen != st.RepLen {
		t.Errorf("resubmission grew the replication log (%d -> %d); expected a coordinator replay", st.RepLen, after.RepLen)
	}
}
