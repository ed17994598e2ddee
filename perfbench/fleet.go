package main

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"perspector/internal/fleet"
	"perspector/internal/jobs"
	"perspector/internal/par"
	"perspector/internal/server"
	"perspector/internal/store"
)

// fleetStack is fleet_jobs: a coordinator and two workers in this
// process on loopback, driven by two closed-loop job clients.
type fleetStack struct {
	*httpStack
	coord    *fleet.Coordinator
	replicas []*store.Store

	// The traced phase's replication watch: results that reached the
	// coordinator, waiting to become visible on every replica.
	lagMu   sync.Mutex
	pending map[string]time.Time
	lags    []float64
	// requeues per phase: dispatches delivered beyond one per dispatch.
	requeues []float64
}

func setupFleet(ctx context.Context, e *env) (stack, error) {
	par.SetWorkers(serviceWorkers)
	h := &httpStack{e: e, top: "fleet.dispatch", jobInstr: fleetInstructions}
	s := &fleetStack{httpStack: h}
	h.afterRunner = s.watch
	open := func(name string) (*store.Store, error) {
		return store.Open(filepath.Join(e.dir, fmt.Sprintf("%s-%d", name, time.Now().UnixNano())))
	}
	coordStore, err := open("coord")
	if err != nil {
		return nil, err
	}
	s.coord = fleet.NewCoordinator(fleet.CoordinatorOptions{Store: coordStore, Log: discardLog()})
	q := jobs.New(h.wrap("fleet.dispatch", "op", 2, jobs.RemoteRunner(s.coord)),
		jobs.Options{Workers: 2, MaxQueue: 64, Store: coordStore, Log: discardLog()})
	if err := h.listen(server.New(server.Config{
		Queue: q, Store: coordStore, Log: discardLog(),
		Role: "coordinator", NodeID: "c0", Coordinator: s.coord,
	}).Handler()); err != nil {
		s.coord.Close()
		coordStore.Close()
		return nil, err
	}

	wctx, stopWorkers := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	var queues []*jobs.Queue
	teardown := func() {
		stopWorkers()
		wg.Wait()
		dctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		for _, wq := range queues {
			wq.Drain(dctx)
		}
		q.Drain(dctx)
		h.shutdown()
		s.coord.Close()
		for _, st := range s.replicas {
			st.Close()
		}
		coordStore.Close()
	}
	h.stop = append(h.stop, teardown)
	for i := 0; i < 2; i++ {
		st, err := open(fmt.Sprintf("w%d", i+1))
		if err != nil {
			teardown()
			return nil, err
		}
		s.replicas = append(s.replicas, st)
		wq := jobs.New(h.wrap("jobs.runner", "fleet.dispatch", 3, jobs.EngineRunner(nil)),
			jobs.Options{Workers: 2, MaxQueue: 64, Store: st, Log: discardLog()})
		queues = append(queues, wq)
		w, err := fleet.NewWorker(fleet.WorkerOptions{
			Coordinator: h.url, NodeID: fmt.Sprintf("w%d", i+1), Capacity: 2,
			Queue: wq, Store: st, Log: discardLog(),
		})
		if err != nil {
			teardown()
			return nil, err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := w.Run(wctx); err != nil && !errors.Is(err, context.Canceled) {
				fmt.Fprintln(e.stderr, "perfbench: fleet worker:", err)
			}
		}()
	}
	deadline := time.Now().Add(30 * time.Second)
	for s.coord.Peers() != 2 {
		if time.Now().After(deadline) {
			teardown()
			return nil, fmt.Errorf("fleet workers did not join")
		}
		time.Sleep(time.Millisecond)
	}
	// Warm-up, untimed: one job through coordinator and worker.
	p, jp := newPhase("job", "job", "replay"), &jobPhase{}
	h.newJobClient(p, jp, nil, "warmup").op(ctx, 0)
	if p.tally.bad() > 0 {
		teardown()
		return nil, fmt.Errorf("fleet_jobs warm-up failed")
	}
	return s, nil
}

// dispatched sums the dispatches the coordinator has delivered to
// workers.
func (s *fleetStack) dispatched() uint64 {
	var n uint64
	for _, node := range s.coord.Status().Nodes {
		n += node.Dispatched
	}
	return n
}

func (s *fleetStack) run(ctx context.Context, deadline time.Time, rec *recorder) (*phase, error) {
	p := newPhase("job", "job", "replay")
	jp := &jobPhase{}
	s.phases = append(s.phases, jp)
	pi := len(s.phases)
	clients := []*jobClient{
		s.newJobClient(p, jp, rec, fmt.Sprintf("fleet%d-a", pi)),
		s.newJobClient(p, jp, rec, fmt.Sprintf("fleet%d-b", pi)),
	}
	d0, calls0 := s.dispatched(), s.calls.Load()
	var watch sync.WaitGroup
	stop := make(chan struct{})
	if rec != nil {
		s.pending = map[string]time.Time{}
		watch.Add(1)
		go func() {
			defer watch.Done()
			s.watchLoop(stop)
		}()
	}
	s.rec.Store(rec)
	timed(p, rec, func() {
		closedLoop(len(clients), deadline, func(client, seq int) { clients[client].op(ctx, seq) })
	})
	s.rec.Store(nil)
	close(stop)
	watch.Wait()
	// Each coordinator runner call is one dispatch; a dispatch delivered
	// to a worker more than once was requeued.
	delivered := float64(s.dispatched() - d0)
	s.requeues = append(s.requeues, max(delivered-float64(s.calls.Load()-calls0), 0))
	return p, nil
}

// watch queues a result that reached the coordinator for the
// replication watch.
func (s *fleetStack) watch(key string, at time.Time) {
	s.lagMu.Lock()
	if s.pending != nil {
		s.pending[key] = at
	}
	s.lagMu.Unlock()
}

// watchLoop polls every replica until each watched result is visible
// everywhere via store.Get, recording the lag, until stop closes.
func (s *fleetStack) watchLoop(stop <-chan struct{}) {
	t := time.NewTicker(250 * time.Microsecond)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		s.lagMu.Lock()
		for key, at := range s.pending {
			visible := true
			for _, st := range s.replicas {
				if _, ok := st.Get(key); !ok {
					visible = false
					break
				}
			}
			if visible {
				s.lags = append(s.lags, ms(time.Since(at)))
				delete(s.pending, key)
			}
		}
		s.lagMu.Unlock()
	}
}

func (s *fleetStack) layers(ctx context.Context, p *phase, out metricSet) error {
	jp := s.phases[len(s.phases)-1]
	s.jobLayers(p, jp, out)
	var overhead []float64
	for _, t := range jp.traced {
		d, ok1 := s.timing.Load("fleet.dispatch/" + t.rid)
		w, ok2 := s.timing.Load("jobs.runner/" + t.rid)
		if t.replay || !ok1 || !ok2 {
			continue
		}
		dt, wt := d.([2]time.Time), w.([2]time.Time)
		overhead = append(overhead, ms(dt[1].Sub(dt[0])-wt[1].Sub(wt[0])))
	}
	out.set("fleet.dispatch_overhead_ms", "ms", median(overhead))
	s.lagMu.Lock()
	out.set("fleet.replication_lag_ms", "ms", median(s.lags))
	s.lagMu.Unlock()
	out.set("fleet.requeues", "count", s.requeues[len(s.requeues)-1])
	return s.storeProbe(jp, out)
}

func (s *fleetStack) verify(ctx context.Context, c *checker) error {
	return s.verifyJobs(ctx, c)
}
