package metric

import (
	"context"
	"fmt"
	"runtime/pprof"

	"perspector/internal/mat"
	"perspector/internal/obs"
	"perspector/internal/par"
	"perspector/internal/perf"
	"perspector/internal/stage"
)

// ScoreSuites drives the registry over every suite: build one Artifacts
// per suite, joint-normalize across all of them (Eq. 9–10, only if a
// registered metric asks for it), then fan the suites out and run the
// metrics in registration order, skipping any metric whose capability
// needs the measurement cannot satisfy.
//
// A nil registry means DefaultRegistry (the four paper scores). Errors
// carry stage tags: per-metric failures are *stage.Error values tagged
// with stage.Score and the suite; a cancellation that fires between
// suites is tagged with the run's own stage (Compare for multi-suite
// runs, Score for a single suite). Results are bit-identical at any
// worker count: the per-suite fan-out writes disjoint slots and each
// metric reduces in fixed serial order.
func ScoreSuites(ctx context.Context, sms []*perf.SuiteMeasurement, opts Options, reg *Registry) ([]Scores, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if len(sms) == 0 {
		return nil, fmt.Errorf("metric: ScoreSuites with no suites")
	}
	if reg == nil {
		reg = DefaultRegistry()
	}
	runStage := stage.Compare
	if len(sms) == 1 {
		runStage = stage.Score
	}
	_, artSpan := obs.Start(ctx, "artifacts")
	arts := make([]*Artifacts, len(sms))
	for i, sm := range sms {
		arts[i] = NewArtifacts(sm, opts)
	}
	artSpan.End()
	if reg.needs(func(c Capabilities) bool { return c.NeedsJointNorm }) {
		_, jnSpan := obs.Start(ctx, "joint_norm")
		raw := make([]*mat.Matrix, len(sms))
		for i, a := range arts {
			raw[i] = a.Raw()
		}
		normed, err := JointNormalize(raw)
		jnSpan.End()
		if err != nil {
			return nil, stage.Wrap(runStage, "", "", err)
		}
		for i, a := range arts {
			a.JointNorm = normed[i]
		}
	}
	return scoreArtifacts(ctx, arts, reg, runStage)
}

// scoreArtifacts fans the suites out and runs the registry's metrics in
// registration order over each suite's Artifacts — the scoring half of
// ScoreSuites, shared with IncrementalRun so an appended measurement is
// scored by the same code that scores a batch run.
//
// Every suite's scores are independent of the others once the joint
// bounds are fixed, and each metric is itself deterministic, so out[i]
// is the same at any worker count. The first error in suite order is
// returned, matching the serial loop.
func scoreArtifacts(ctx context.Context, arts []*Artifacts, reg *Registry, runStage stage.Stage) ([]Scores, error) {
	out := make([]Scores, len(arts))
	err := par.DoErrCtx(ctx, len(arts), func(ctx context.Context, _, i int) error {
		a := arts[i]
		out[i].Suite = a.Meas.Suite
		hasSeries := len(MissingSeries(a.Meas, a.Opts.Counters)) == 0
		sctx, span := obs.Start(ctx, "score", obs.String("suite", a.Meas.Suite))
		defer span.End()
		var suiteErr error
		pprof.Do(sctx, pprof.Labels("suite", a.Meas.Suite, "stage", "score"), func(ctx context.Context) {
			for _, m := range reg.Metrics() {
				req := m.Requires()
				if req.NeedsSeries && !hasSeries {
					continue // capability unmet: slot stays zero
				}
				// Per-metric memo: when every input version the metric's
				// capabilities map to is unchanged since the last compute,
				// the stored value IS what recomputing would produce (the
				// metrics are deterministic functions of those inputs), so
				// e.g. a sample-only append skips the k-means sweep and PCA
				// entirely. Batch runs build fresh Artifacts per call and
				// never hit this.
				key := a.memoKeyFor(req)
				if v, ok := a.memoLookup(m.Name(), key); ok {
					if err := out[i].set(m.Name(), v); err != nil {
						suiteErr = stage.Wrap(stage.Score, a.Meas.Suite, "", err)
						return
					}
					continue
				}
				mctx, msp := obs.Start(ctx, "metric."+m.Name(), obs.String("suite", a.Meas.Suite))
				v, err := m.Compute(mctx, a)
				msp.End()
				if err != nil {
					suiteErr = stage.Wrap(stage.Score, a.Meas.Suite, "", err)
					return
				}
				a.memoStore(m.Name(), key, v)
				if err := out[i].set(m.Name(), v); err != nil {
					suiteErr = stage.Wrap(stage.Score, a.Meas.Suite, "", err)
					return
				}
			}
		})
		return suiteErr
	})
	if err != nil {
		// Covers the path where ctx fired before any metric failed: DoErr
		// returns the bare ctx.Err(), which still deserves a stage tag.
		return nil, stage.Wrap(runStage, "", "", err)
	}
	return out, nil
}

// ScoreSuite scores one suite in isolation (joint normalization
// degenerates to the suite's own bounds).
func ScoreSuite(ctx context.Context, sm *perf.SuiteMeasurement, opts Options, reg *Registry) (Scores, error) {
	res, err := ScoreSuites(ctx, []*perf.SuiteMeasurement{sm}, opts, reg)
	if err != nil {
		return Scores{}, err
	}
	return res[0], nil
}

// ClusterScore computes the §III-A score for one suite on its own
// normalization — the standalone entry point used by focused scoring and
// subset search, bypassing the registry.
func ClusterScore(sm *perf.SuiteMeasurement, opts Options) (float64, error) {
	if err := opts.Validate(); err != nil {
		return 0, err
	}
	return clusterMetric{}.Compute(context.Background(), NewArtifacts(sm, opts))
}

// TrendScore computes the §III-B score for one suite. Unlike the engine
// path, a measurement without series is an error here: the caller asked
// for the trend specifically.
func TrendScore(sm *perf.SuiteMeasurement, opts Options) (float64, error) {
	if err := opts.Validate(); err != nil {
		return 0, err
	}
	return trendMetric{}.Compute(context.Background(), NewArtifacts(sm, opts))
}

// CoverageScore computes the §III-C score on an already-normalized
// matrix (joint normalization is the caller's job — see ScoreSuites).
func CoverageScore(xNorm *mat.Matrix, opts Options) (float64, error) {
	if err := opts.Validate(); err != nil {
		return 0, err
	}
	return coverageMetric{}.Compute(context.Background(), &Artifacts{Opts: opts, JointNorm: xNorm})
}

// SpreadScore computes the §III-D score on an already-normalized matrix.
func SpreadScore(xNorm *mat.Matrix, opts Options) (float64, error) {
	if err := opts.Validate(); err != nil {
		return 0, err
	}
	return spreadMetric{}.Compute(context.Background(), &Artifacts{Opts: opts, JointNorm: xNorm})
}
