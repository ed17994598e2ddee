// Package par is Perspector's shared parallel-execution layer: a bounded
// worker pool sized from runtime.NumCPU with deterministic, ordered task
// dispatch and context cancellation.
//
// Every hot path in the scoring engine (pairwise DTW, the k-means and
// silhouette k-sweep, per-suite fan-out, suite simulation) funnels
// through Do/DoErr. Two properties make the layer safe for numerics:
//
//   - Tasks are indexed. Each task writes only its own result slot, and
//     callers reduce the gathered slice serially in index order, so no
//     floating-point operation is ever reassociated relative to the
//     serial code. Scores are bit-identical at any worker count
//     (enforced by TestScoreDeterminismAcrossWorkerCounts).
//   - Workers receive a stable worker id in [0, Workers()), which callers
//     use to index per-worker scratch buffers (e.g. dtw.Distancer) without
//     locks.
package par

import (
	"context"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"

	"perspector/internal/obs"
)

// workers is the configured pool width; 0 means "derive from NumCPU".
var workers atomic.Int64

func init() {
	// PERSPECTOR_WORKERS overrides the default pool width, the env-var
	// escape hatch for CI runners and container cgroup limits.
	if s := os.Getenv("PERSPECTOR_WORKERS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			workers.Store(int64(n))
		}
	}
}

// Workers returns the worker-pool width used by Do and DoErr: the value
// set by SetWorkers (or PERSPECTOR_WORKERS), else runtime.NumCPU, never
// below 1.
func Workers() int {
	if n := workers.Load(); n > 0 {
		return int(n)
	}
	n := runtime.NumCPU()
	if n < 1 {
		n = 1
	}
	return n
}

// SetWorkers sets the pool width and returns the previous setting
// (0 = automatic). n <= 0 restores the automatic NumCPU sizing.
func SetWorkers(n int) int {
	prev := int(workers.Load())
	if n < 0 {
		n = 0
	}
	workers.Store(int64(n))
	return prev
}

// Do runs fn(worker, i) for every i in [0, n) on min(Workers(), n)
// workers. Tasks are claimed from an atomic counter, so with one worker
// they run in index order; with several, in arbitrary order — tasks must
// be independent. Do returns when every task has finished.
func Do(n int, fn func(worker, i int)) {
	if n <= 0 {
		return
	}
	w := Workers()
	if w > n {
		w = n
	}
	if w == 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for id := 0; id < w; id++ {
		go func(worker int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(worker, i)
			}
		}(id)
	}
	wg.Wait()
}

// DoErr runs fn(worker, i) for every i in [0, n) like Do, but stops
// claiming new tasks as soon as any task fails or ctx is cancelled.
// Already-running tasks finish. The returned error is the one from the
// lowest failing index (deterministic regardless of scheduling), or
// ctx.Err() when the context ended first and no task failed.
func DoErr(ctx context.Context, n int, fn func(worker, i int) error) error {
	return doErr(ctx, n, func(_ context.Context, worker, i int) error {
		return fn(worker, i)
	}, false)
}

// DoErrCtx is DoErr for instrumented fan-outs: each worker derives its own
// context carrying an obs pool-worker span (so spans started by fn nest
// under their worker's track in the trace, and the fold attributes busy
// time per worker) plus a pprof "worker" goroutine label, and passes it to
// fn. The hot numeric fan-outs keep using DoErr and pay none of this; the
// suite and engine fan-outs — a handful of calls per run — use DoErrCtx.
func DoErrCtx(ctx context.Context, n int, fn func(ctx context.Context, worker, i int) error) error {
	return doErr(ctx, n, fn, true)
}

func doErr(ctx context.Context, n int, fn func(ctx context.Context, worker, i int) error, instrument bool) error {
	if n <= 0 {
		return ctx.Err()
	}
	w := Workers()
	if w > n {
		w = n
	}

	var (
		next    atomic.Int64
		stopped atomic.Bool
		mu      sync.Mutex
		firstI  = n
		firstE  error
	)
	record := func(i int, err error) {
		mu.Lock()
		if i < firstI {
			firstI, firstE = i, err
		}
		mu.Unlock()
		stopped.Store(true)
	}
	body := func(ctx context.Context, worker int) {
		for {
			if stopped.Load() || ctx.Err() != nil {
				return
			}
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			if err := fn(ctx, worker, i); err != nil {
				record(i, err)
				return
			}
		}
	}
	run := body
	if instrument {
		run = func(ctx context.Context, worker int) {
			wctx, span := obs.StartWorker(ctx, worker)
			pprof.Do(wctx, pprof.Labels("worker", strconv.Itoa(worker)), func(ctx context.Context) {
				body(ctx, worker)
			})
			span.End()
		}
	}
	if w == 1 {
		run(ctx, 0)
	} else {
		var wg sync.WaitGroup
		wg.Add(w)
		for id := 0; id < w; id++ {
			go func(worker int) {
				defer wg.Done()
				run(ctx, worker)
			}(id)
		}
		wg.Wait()
	}
	if firstE != nil {
		return firstE
	}
	return ctx.Err()
}
