// Command perspectord is the resident Perspector scoring service: a
// job queue, an HTTP/JSON API, and a durable result store around the
// same engine the CLI uses — scores served over HTTP are bit-identical
// to `perspector score`/`compare` output.
//
// Quickstart:
//
//	perspectord -addr :8080 -store-dir ./perspectord-data -cache-dir ./perspector-cache
//
//	# submit a compare job for two stock suites
//	curl -s -X POST localhost:8080/api/v1/jobs -d '{
//	  "kind": "compare", "suites": ["parsec", "nbench"],
//	  "config": {"instructions": 40000, "samples": 50, "seed": 2023}}'
//
//	# poll it, fetch the result (blocking until done), cancel another
//	curl -s localhost:8080/api/v1/jobs/j-000001
//	curl -s 'localhost:8080/api/v1/jobs/j-000001/result?wait=1'
//	curl -s -X DELETE localhost:8080/api/v1/jobs/j-000002
//
//	# stream measurement chunks and tail the evolving scores: each chunk
//	# rescored incrementally, bit-identical to a batch run of the same data
//	curl -s -X POST localhost:8080/api/v1/streams -d '{"suites": ["live"]}'
//	curl -s -X POST localhost:8080/api/v1/streams/s-000001/chunks -d '{
//	  "workloads": [{"name": "w0", "totals": [1200, 340, ...],
//	                 "series": [[10, 20, 30], [1, 2, 3], ...]}]}'
//	curl -s 'localhost:8080/api/v1/streams/s-000001/scores?since=0&wait=1'
//	curl -s -X POST localhost:8080/api/v1/streams/s-000001/close
//
// # Fleet mode
//
// perspectord also runs as a coordinator/worker cluster. The
// coordinator owns the public API and routes each job by its content
// key onto a consistent-hash ring of workers; workers execute on their
// local engine and stream results back, and every node's store
// converges to the same result set through replication:
//
//	perspectord -role coordinator -addr :8080 -store-dir ./coord-data
//	perspectord -role worker -join http://localhost:8080 -node-id w1 \
//	    -addr :8081 -store-dir ./w1-data -cache-dir ./w1-cache
//
// On SIGTERM/SIGINT the server drains: the listener stops accepting,
// queued jobs are cancelled, and running jobs get -drain-timeout to
// finish before their contexts are cancelled too. A worker drains
// gracefully: it stops pulling, finishes in-flight dispatches, pushes
// their results, and leaves the fleet.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"perspector/internal/buildinfo"
	"perspector/internal/cache"
	"perspector/internal/fleet"
	"perspector/internal/jobs"
	"perspector/internal/par"
	"perspector/internal/server"
	"perspector/internal/store"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perspectord:", err)
		os.Exit(1)
	}
}

// options is the parsed flag set, separated from run for testability.
type options struct {
	addr         string
	storeDir     string
	cacheDir     string
	workers      int
	jobWorkers   int
	maxQueue     int
	maxStreams   int
	drainTimeout time.Duration
	enablePprof  bool
	logJSON      bool
	version      bool

	role        string
	join        string
	nodeID      string
	capacity    int
	tenantRate  float64
	tenantBurst int
}

func parseFlags(args []string) (*options, error) {
	fs := flag.NewFlagSet("perspectord", flag.ContinueOnError)
	o := &options{}
	fs.BoolVar(&o.version, "version", false, "print the build version and exit")
	fs.StringVar(&o.addr, "addr", ":8080", "listen address")
	fs.StringVar(&o.storeDir, "store-dir", "perspectord-data", "result store directory (empty = no durable results)")
	fs.StringVar(&o.cacheDir, "cache-dir", "", "measurement cache directory (empty = no cache)")
	fs.IntVar(&o.workers, "workers", 0, "engine parallelism per job (0 = all CPUs); results are identical at any count")
	fs.IntVar(&o.jobWorkers, "jobs", 2, "jobs running concurrently")
	fs.IntVar(&o.maxQueue, "max-queue", 64, "jobs allowed to wait in the queue")
	fs.IntVar(&o.maxStreams, "max-streams", jobs.DefaultMaxStreams, "concurrent incremental-scoring streams")
	fs.DurationVar(&o.drainTimeout, "drain-timeout", 30*time.Second, "how long running jobs get to finish on shutdown")
	fs.BoolVar(&o.enablePprof, "pprof", false, "serve net/http/pprof under /debug/pprof/")
	fs.BoolVar(&o.logJSON, "log-json", false, "log in JSON instead of text")
	fs.StringVar(&o.role, "role", "single", "node role: single, coordinator, or worker")
	fs.StringVar(&o.join, "join", "", "coordinator URL a worker registers with (role worker)")
	fs.StringVar(&o.nodeID, "node-id", "", "stable fleet node name (default: hostname)")
	fs.IntVar(&o.capacity, "capacity", 0, "dispatches a worker runs concurrently (0 = -jobs)")
	fs.Float64Var(&o.tenantRate, "tenant-rate", 0, "per-tenant submissions/second quota (0 = unlimited)")
	fs.IntVar(&o.tenantBurst, "tenant-burst", 10, "per-tenant submission burst")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if o.jobWorkers < 1 {
		return nil, fmt.Errorf("-jobs must be >= 1")
	}
	switch o.role {
	case "single", "coordinator":
	case "worker":
		if o.join == "" {
			return nil, fmt.Errorf("-role worker requires -join <coordinator URL>")
		}
		if o.storeDir == "" {
			return nil, fmt.Errorf("-role worker requires a -store-dir for its result replica")
		}
	default:
		return nil, fmt.Errorf("unknown -role %q (want single, coordinator, or worker)", o.role)
	}
	if o.capacity == 0 {
		o.capacity = o.jobWorkers
	}
	if o.nodeID == "" {
		host, err := os.Hostname()
		if err != nil || host == "" {
			host = fmt.Sprintf("node-%d", os.Getpid())
		}
		o.nodeID = host
	}
	return o, nil
}

func run(args []string) error {
	o, err := parseFlags(args)
	if err != nil {
		return err
	}
	if o.version {
		buildinfo.Print(os.Stdout, "perspectord")
		return nil
	}
	var handler slog.Handler = slog.NewTextHandler(os.Stderr, nil)
	if o.logJSON {
		handler = slog.NewJSONHandler(os.Stderr, nil)
	}
	// Every log line carries the node's identity, so interleaved fleet
	// logs (or logs shipped to one aggregator) attribute to their node
	// without parsing free text.
	log := slog.New(handler).With("node_id", o.nodeID)

	if o.workers != 0 {
		par.SetWorkers(o.workers)
	}
	var cacheStore *cache.Store
	if o.cacheDir != "" {
		if cacheStore, err = cache.Open(o.cacheDir); err != nil {
			return err
		}
	}
	var resultStore *store.Store
	if o.storeDir != "" {
		if resultStore, err = store.Open(o.storeDir); err != nil {
			return err
		}
		defer resultStore.Close()
	}

	// The queue's runner is the role switch: single and worker nodes
	// execute on the local engine; a coordinator's queue dispatches into
	// the fleet, so dedup/replay/cancel/drain stay fleet-wide.
	var coord *fleet.Coordinator
	runner := jobs.EngineRunner(cacheStore)
	if o.role == "coordinator" {
		coord = fleet.NewCoordinator(fleet.CoordinatorOptions{Store: resultStore, Log: log})
		defer coord.Close()
		runner = jobs.RemoteRunner(coord)
	}
	queue := jobs.New(runner, jobs.Options{
		Workers:  o.jobWorkers,
		MaxQueue: o.maxQueue,
		Store:    resultStore,
		Log:      log,
	})

	// Streams score pure measurement chunks (no simulation), so every
	// role serves them locally: a coordinator does not route them into
	// the fleet, and a worker serves whatever streams clients open on it.
	streams := jobs.NewStreamManager(jobs.StreamOptions{
		Store:      resultStore,
		MaxStreams: o.maxStreams,
		Log:        log,
	})

	var worker *fleet.Worker
	if o.role == "worker" {
		worker, err = fleet.NewWorker(fleet.WorkerOptions{
			Coordinator: o.join,
			NodeID:      o.nodeID,
			Capacity:    o.capacity,
			Queue:       queue,
			Store:       resultStore,
			Log:         log,
		})
		if err != nil {
			return err
		}
	}

	cfg := server.Config{
		Queue:       queue,
		Streams:     streams,
		Store:       resultStore,
		Cache:       cacheStore,
		Log:         log,
		EnablePprof: o.enablePprof,
		Role:        o.role,
		Coordinator: coord,
		Quota:       fleet.NewTenantLimiter(o.tenantRate, o.tenantBurst),
	}
	if o.role != "single" {
		cfg.NodeID = o.nodeID
	}
	if worker != nil {
		cfg.Peers = worker.Peers
	}
	srv := server.New(cfg)
	httpSrv := &http.Server{
		Addr:              o.addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer stop()

	var workerDone chan error
	if worker != nil {
		workerDone = make(chan error, 1)
		go func() { workerDone <- worker.Run(ctx) }()
	}

	errc := make(chan error, 1)
	go func() {
		log.Info("perspectord listening", "addr", o.addr, "role", o.role,
			"node", o.nodeID, "store", o.storeDir, "cache", o.cacheDir,
			"jobs", o.jobWorkers, "engine_workers", par.Workers(), "pprof", o.enablePprof)
		if err := httpSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
			return
		}
		errc <- nil
	}()

	select {
	case err := <-errc:
		// The listener died before any signal; drain what we admitted.
		queue.Drain(context.Background())
		streams.Drain(context.Background())
		return err
	case <-ctx.Done():
	}

	log.Info("draining", "timeout", o.drainTimeout)
	deadline, cancel := context.WithTimeout(context.Background(), o.drainTimeout)
	defer cancel()
	// Stop the listener first so no new jobs arrive, then drain the
	// queue: queued work is cancelled, running jobs get the deadline.
	if err := httpSrv.Shutdown(deadline); err != nil {
		log.Warn("http shutdown", "error", err)
	}
	// A worker's fleet loop drains concurrently with the queue: the
	// signal context already stopped its pulls, Run waits for in-flight
	// dispatches (which the queue deadline bounds), pushes their results
	// and leaves the fleet.
	// Streams drain alongside the queue: open streams are sealed, their
	// backlogged chunks apply, a final score version publishes and
	// persists, and stragglers past the deadline are cancelled.
	drained := make(chan error, 1)
	go func() { drained <- queue.Drain(deadline) }()
	streamsDrained := make(chan error, 1)
	go func() { streamsDrained <- streams.Drain(deadline) }()
	if workerDone != nil {
		select {
		case err := <-workerDone:
			if err != nil && !errors.Is(err, context.Canceled) {
				log.Warn("fleet worker exit", "error", err)
			}
		case <-deadline.Done():
			log.Warn("fleet worker did not drain before the deadline")
		}
	}
	if err := <-streamsDrained; err != nil {
		log.Warn("drain cancelled open streams at deadline", "error", err)
	}
	if err := <-drained; err != nil {
		log.Warn("drain cancelled running jobs at deadline", "error", err)
	} else {
		log.Info("drained cleanly")
	}
	return <-errc
}
