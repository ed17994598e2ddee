package perspector_test

// Golden equivalence: the staged scoring engine (internal/metric) must
// reproduce the pre-refactor scores bit-for-bit. The values below were
// pinned from the scoring code before the engine existed, at the
// determinism configuration (40k instructions, 50 samples, seed 2023,
// default options, joint normalization over all six stock suites). They
// are hex float literals, so the comparison is exact — any change to
// evaluation order, normalization bounds, or parallel reduction shape
// fails this test, through the public Compare/CompareContext and the
// engine entry point alike, at any worker count.

import (
	"context"
	"runtime"
	"testing"

	"perspector"
	"perspector/internal/metric"
	"perspector/internal/obs"
)

var goldenScores = []perspector.Scores{
	{Suite: "parsec", Cluster: 0x1.67d5bbfac6474p-03, Trend: 0x1.45b6bdfe054f7p+06, Coverage: 0x1.54bae03eec78dp-04, Spread: 0x1.d89d89d89d89fp-02},
	{Suite: "spec17", Cluster: 0x1.9c8dd1d943a99p-03, Trend: 0x1.3d77ee18b0693p+06, Coverage: 0x1.acf0ec7362a22p-04, Spread: 0x1.d212b601b3749p-02},
	{Suite: "ligra", Cluster: 0x1.5c302bbb277abp-02, Trend: 0x1.dcaf822ce20c2p+04, Coverage: 0x1.e980d2c9b25b3p-05, Spread: 0x1.5b6db6db6db6ep-02},
	{Suite: "lmbench", Cluster: 0x1.f70f675496d4cp-03, Trend: 0x1.09d73ff81c796p+07, Coverage: 0x1.b81a69ee594b8p-04, Spread: 0x1.74bf4bf4bf4cp-01},
	{Suite: "nbench", Cluster: 0x1.329de55a04b91p-02, Trend: 0x1.412494f6ca6e2p+06, Coverage: 0x1.07515a45e0585p-06, Spread: 0x1.715f15f15f15fp-01},
	{Suite: "sgxgauge", Cluster: 0x1.4b1a295921a31p-03, Trend: 0x1.33dc5ba13ea3ap+06, Coverage: 0x1.400418ac427f8p-04, Spread: 0x1.a492492492494p-02},
}

func TestGoldenEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("measures all six suites")
	}
	cfg := determinismConfig()
	ms, err := perspector.MeasureAll(cfg)
	if err != nil {
		t.Fatal(err)
	}
	opts := perspector.DefaultOptions()
	old := perspector.SetWorkers(1)
	defer perspector.SetWorkers(old)
	for _, workers := range []int{1, 3, runtime.NumCPU()} {
		perspector.SetWorkers(workers)

		viaCompare, err := perspector.Compare(ms, opts)
		if err != nil {
			t.Fatal(err)
		}
		requireIdenticalScores(t, "Compare", goldenScores, viaCompare)

		viaCtx, err := perspector.CompareContext(context.Background(), ms, opts)
		if err != nil {
			t.Fatal(err)
		}
		requireIdenticalScores(t, "CompareContext", goldenScores, viaCtx)

		engine, err := metric.ScoreSuites(context.Background(), ms, opts, nil)
		if err != nil {
			t.Fatal(err)
		}
		requireIdenticalScores(t, "engine", goldenScores, engine)
	}
}

// TestGoldenEquivalenceWithRecorder is the observability determinism
// guardrail: attaching a telemetry recorder must not perturb a single
// bit of the scores. It runs the measured + scored pipeline under a
// live recorder (spans in every stage, worker spans in every fan-out)
// and requires the same goldens as the bare run — telemetry is
// read-only with respect to the numerics.
func TestGoldenEquivalenceWithRecorder(t *testing.T) {
	if testing.Short() {
		t.Skip("measures all six suites")
	}
	cfg := determinismConfig()
	rec := obs.NewRecorder()
	ctx := obs.WithRecorder(context.Background(), rec)
	ms, err := perspector.MeasureAllContext(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	opts := perspector.DefaultOptions()
	old := perspector.SetWorkers(3)
	defer perspector.SetWorkers(old)
	scores, err := perspector.CompareContext(ctx, ms, opts)
	if err != nil {
		t.Fatal(err)
	}
	requireIdenticalScores(t, "recorder attached", goldenScores, scores)
	if rec.Len() == 0 {
		t.Fatal("recorder collected no spans — the pipeline is not instrumented")
	}
}

// TestGoldenSingleSuite pins the single-suite path too: Score must agree
// with ScoreContext, and since a lone suite degenerates to its own
// normalization bounds, both must agree with each other bit-for-bit.
func TestGoldenSingleSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("measures a suite")
	}
	cfg := determinismConfig()
	m, err := perspector.Measure(mustSuite(t, "nbench", cfg), cfg)
	if err != nil {
		t.Fatal(err)
	}
	opts := perspector.DefaultOptions()
	legacy, err := perspector.Score(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	viaCtx, err := perspector.ScoreContext(context.Background(), m, opts)
	if err != nil {
		t.Fatal(err)
	}
	if legacy != viaCtx {
		t.Fatalf("Score %+v != ScoreContext %+v", legacy, viaCtx)
	}
}

func mustSuite(t *testing.T, name string, cfg perspector.Config) perspector.Suite {
	t.Helper()
	s, err := perspector.SuiteByName(name, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}
