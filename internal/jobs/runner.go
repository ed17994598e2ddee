package jobs

import (
	"context"

	"perspector/internal/cache"
	"perspector/internal/metric"
	"perspector/internal/par"
	"perspector/internal/perf"
	"perspector/internal/stage"
	"perspector/internal/store"
)

// EngineRunner returns the production Runner: it measures through the
// content-addressed cache (nil disables caching) and scores with the
// staged engine — exactly the path ScoreContext/CompareContext take, so
// scores served by the daemon are bit-identical to CLI scores.
func EngineRunner(cacheStore *cache.Store) Runner {
	return func(ctx context.Context, h *Handle) (store.ScoreSet, error) {
		req := h.Request()
		opts := metric.DefaultOptions()
		group, err := perf.GroupByName(req.Group)
		if err != nil {
			return store.ScoreSet{}, err
		}
		opts.Counters = group.Counters

		if req.Trace != nil {
			return runTrace(ctx, h, req, opts)
		}
		return runSimulated(ctx, h, req, opts, cacheStore)
	}
}

// runTrace scores the uploaded measurement Normalize parsed. A
// totals-only CSV comes back without a TrendScore via the engine's
// capability check, matching the CLI's score-file behaviour.
func runTrace(ctx context.Context, h *Handle, req Request, opts metric.Options) (store.ScoreSet, error) {
	h.SetStage("score", 1)
	scores, err := metric.ScoreSuite(ctx, req.traceMeas, opts, nil)
	if err != nil {
		return store.ScoreSet{}, err
	}
	h.Advance(1)
	return store.New(req.Kind, req.Group, "trace", nil, []metric.Scores{scores}), nil
}

// runSimulated measures the request's suites — registered names plus an
// inline suite spec, if any — in parallel through the cache, and scores
// them: one suite on its own normalization for kind "score", all suites
// under joint normalization for "compare".
func runSimulated(ctx context.Context, h *Handle, req Request, opts metric.Options, cacheStore *cache.Store) (store.ScoreSet, error) {
	cfg := req.SimConfig()
	ss, err := req.ResolvedSuites(cfg)
	if err != nil {
		return store.ScoreSet{}, stage.Wrap(stage.Measure, "", "", err)
	}
	h.SetStage("measure", len(ss))
	ms := make([]*perf.SuiteMeasurement, len(ss))
	err = par.DoErrCtx(ctx, len(ss), func(ctx context.Context, _, i int) error {
		m, hit, err := cacheStore.Measure(ctx, ss[i], cfg)
		if err != nil {
			return err
		}
		// Only a simulation retires instructions: each workload's own
		// budget, which a suite spec may pin apart from the config's.
		if !hit {
			var n uint64
			for _, spec := range ss[i].Specs {
				n += spec.Instructions
			}
			h.AddInstructions(n)
		}
		ms[i] = m
		h.Advance(1)
		return nil
	})
	if err != nil {
		return store.ScoreSet{}, stage.Wrap(stage.Measure, "", "", err)
	}
	h.SetStage("score", 1)
	scores, err := metric.ScoreSuites(ctx, ms, opts, nil)
	if err != nil {
		return store.ScoreSet{}, err
	}
	h.Advance(1)
	rc := req.Config
	return store.New(req.Kind, req.Group, "simulator", &rc, scores), nil
}
