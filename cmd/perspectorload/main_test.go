package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"testing"
	"time"

	"perspector/internal/fleet"
	"perspector/internal/jobs"
	"perspector/internal/server"
	"perspector/internal/store"
)

// startFleet assembles a 3-node in-process fleet — coordinator plus two
// engine workers — and returns the coordinator's base URL.
func startFleet(t *testing.T, maxQueue int, quota *fleet.TenantLimiter) string {
	t.Helper()
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))

	coordStore, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	coord := fleet.NewCoordinator(fleet.CoordinatorOptions{Store: coordStore, Log: quiet})
	queue := jobs.New(jobs.RemoteRunner(coord), jobs.Options{
		Workers: 16, MaxQueue: maxQueue, Store: coordStore, Log: quiet,
	})
	srv := server.New(server.Config{
		Queue: queue, Store: coordStore, Log: quiet,
		Role: "coordinator", NodeID: "c0", Coordinator: coord, Quota: quota,
	})
	ts := httptest.NewServer(srv.Handler())

	ctx, cancel := context.WithCancel(context.Background())
	workerDone := make(chan error, 2)
	for i := 0; i < 2; i++ {
		st, err := store.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		wq := jobs.New(jobs.EngineRunner(nil), jobs.Options{
			Workers: 2, MaxQueue: 64, Store: st, Log: quiet,
		})
		w, err := fleet.NewWorker(fleet.WorkerOptions{
			Coordinator: ts.URL, NodeID: fmt.Sprintf("w%d", i+1),
			Capacity: 2, Queue: wq, Store: st, Log: quiet,
			PullWait: 200 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		go func() { workerDone <- w.Run(ctx) }()
		t.Cleanup(func() {
			drainCtx, dc := context.WithTimeout(context.Background(), 10*time.Second)
			defer dc()
			wq.Drain(drainCtx)
		})
	}
	t.Cleanup(func() {
		cancel()
		for i := 0; i < 2; i++ {
			select {
			case err := <-workerDone:
				if err != nil && !errors.Is(err, context.Canceled) {
					t.Errorf("worker run: %v", err)
				}
			case <-time.After(15 * time.Second):
				t.Error("worker did not drain")
			}
		}
		drainCtx, dc := context.WithTimeout(context.Background(), 10*time.Second)
		defer dc()
		queue.Drain(drainCtx)
		ts.Close()
		coord.Close()
	})

	deadline := time.Now().Add(10 * time.Second)
	for coord.Peers() != 2 {
		if time.Now().After(deadline) {
			t.Fatal("workers did not join the fleet")
		}
		time.Sleep(10 * time.Millisecond)
	}
	return ts.URL
}

// metricValue extracts the first value of a /metrics series matching re.
func metricValue(t *testing.T, url string, re *regexp.Regexp) (float64, bool) {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	m := re.FindSubmatch(raw)
	if m == nil {
		return 0, false
	}
	v, err := strconv.ParseFloat(string(m[1]), 64)
	if err != nil {
		t.Fatalf("unparseable metric value %q", m[1])
	}
	return v, true
}

// TestLoadAgainstFleet is the load-generator acceptance run: 1000
// concurrent submitters against a 3-node fleet, with per-tenant quotas
// tight enough to throttle and a queue small enough to backpressure.
// Nothing accepted may be lost, and both rejection classes must be
// visible on the coordinator's /metrics.
func TestLoadAgainstFleet(t *testing.T) {
	if testing.Short() {
		t.Skip("load test skipped in -short mode")
	}
	// Each of the 4 tenants sends 750 submissions against at most
	// 100 + 5/s × the 2-minute timeout = 700 tokens, so every run that
	// finishes sees quota 429s however slow the host is.
	url := startFleet(t, 8, fleet.NewTenantLimiter(5, 100))

	o := &loadOptions{
		addr:        url,
		concurrency: 1000,
		total:       3000,
		distinct:    64,
		tenants:     4,
		instr:       20000,
		samples:     10,
		timeout:     2 * time.Minute,
	}
	ctx, cancel := context.WithTimeout(context.Background(), o.timeout)
	defer cancel()
	rep, err := runLoad(ctx, o, &http.Client{Timeout: time.Minute})
	if err != nil {
		t.Fatalf("runLoad: %v (report %+v)", err, rep)
	}

	if rep.Submitted != int64(o.total) {
		t.Errorf("submitted %d, want %d", rep.Submitted, o.total)
	}
	if got := rep.Accepted + rep.Deduped + rep.Quota429 + rep.Backpressure + rep.Errors; got != rep.Submitted {
		t.Errorf("outcome sum %d != submitted %d (%+v)", got, rep.Submitted, rep)
	}
	if rep.Errors != 0 {
		t.Errorf("%d transport errors (%+v)", rep.Errors, rep)
	}
	if rep.Lost != 0 {
		t.Errorf("%d accepted jobs lost (%+v)", rep.Lost, rep)
	}
	if rep.Accepted == 0 {
		t.Error("no submissions accepted")
	}
	// 3000 submissions over 64 distinct shapes: server-side dedup must
	// fold a large share of the admitted ones.
	if rep.Deduped == 0 {
		t.Errorf("no fleet-wide dedup observed (%+v)", rep)
	}
	if rep.Quota429 == 0 {
		t.Errorf("tight tenant quota produced no 429s (%+v)", rep)
	}
	if rep.Backpressure == 0 {
		t.Errorf("8-deep queue under 1000 submitters produced no backpressure 429s (%+v)", rep)
	}

	// The same rejections must be visible on the coordinator's /metrics.
	quota, ok := metricValue(t, url, regexp.MustCompile(`perspectord_quota_rejections_total\{tenant="tenant-0"\} (\d+)`))
	if !ok || quota == 0 {
		t.Errorf("quota rejections for tenant-0 missing from /metrics (found=%v value=%g)", ok, quota)
	}
	bp, ok := metricValue(t, url, regexp.MustCompile(`perspectord_backpressure_rejections_total (\d+)`))
	if !ok {
		t.Error("backpressure counter missing from /metrics")
	} else if int64(bp) != rep.Backpressure {
		t.Errorf("/metrics backpressure %g != report %d", bp, rep.Backpressure)
	}
	nodes, ok := metricValue(t, url, regexp.MustCompile(`perspectord_fleet_nodes (\d+)`))
	if !ok || nodes != 2 {
		t.Errorf("fleet nodes gauge = %g (found=%v), want 2", nodes, ok)
	}
}

// TestParseFlags pins flag validation.
func TestParseFlags(t *testing.T) {
	if _, err := parseFlags([]string{"-c", "0"}); err == nil {
		t.Error("zero concurrency accepted")
	}
	o, err := parseFlags([]string{"-addr", "http://x:1", "-c", "7", "-n", "9"})
	if err != nil {
		t.Fatal(err)
	}
	if o.addr != "http://x:1" || o.concurrency != 7 || o.total != 9 {
		t.Errorf("parsed %+v", o)
	}
}
