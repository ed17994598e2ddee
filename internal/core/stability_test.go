package core

import (
	"math"
	"testing"

	"perspector/internal/metric"
	"perspector/internal/perf"
	"perspector/internal/rng"
)

// noisySuiteRun builds one "run" of the same logical suite with
// seed-dependent noise on the counter vectors and series.
func noisySuiteRun(seed uint64) *perf.SuiteMeasurement {
	src := rng.New(seed)
	var vecs [][]float64
	var series [][]float64
	for i := 0; i < 8; i++ {
		base := 1000.0 * float64(i+1)
		v := make([]float64, perf.NumCounters)
		for j := range v {
			v[j] = base * (1 + 0.02*src.Norm(0, 1))
			if v[j] < 1 {
				v[j] = 1
			}
		}
		vecs = append(vecs, v)
		series = append(series, stepSeriesAt(10, float64(100*(i+1)), 40, 5+4*i))
	}
	return synthSuite("noisy", vecs, series)
}

func TestScoreStabilityBasics(t *testing.T) {
	var runs []*perf.SuiteMeasurement
	for s := uint64(1); s <= 5; s++ {
		runs = append(runs, noisySuiteRun(s))
	}
	st, err := ScoreStability(runs, metric.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if st.Runs != 5 || st.Suite != "noisy" {
		t.Fatalf("stability header %+v", st)
	}
	// 2 % input noise must not produce wild score swings.
	rel := st.RelativeStdDev()
	if rel.Trend > 0.3 || rel.Coverage > 0.5 || rel.Spread > 0.3 {
		t.Fatalf("scores unstable under small noise: %+v", rel)
	}
	if st.StdDev.Cluster < 0 || st.StdDev.Trend < 0 {
		t.Fatal("negative standard deviation")
	}
}

func TestScoreStabilityIdenticalRuns(t *testing.T) {
	a := noisySuiteRun(7)
	st, err := ScoreStability([]*perf.SuiteMeasurement{a, a, a}, metric.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Allow float round-off in the mean/variance accumulation.
	const eps = 1e-12
	if st.StdDev.Cluster > eps || st.StdDev.Trend > eps ||
		st.StdDev.Coverage > eps || st.StdDev.Spread > eps {
		t.Fatalf("identical runs produced spread: %+v", st.StdDev)
	}
}

func TestScoreStabilityErrors(t *testing.T) {
	a := noisySuiteRun(1)
	if _, err := ScoreStability([]*perf.SuiteMeasurement{a}, metric.DefaultOptions()); err == nil {
		t.Fatal("single run accepted")
	}
	b := noisySuiteRun(2)
	b.Suite = "other"
	if _, err := ScoreStability([]*perf.SuiteMeasurement{a, b}, metric.DefaultOptions()); err == nil {
		t.Fatal("mixed suites accepted")
	}
}

func TestRelativeStdDevZeroMean(t *testing.T) {
	st := &Stability{Mean: metric.Scores{Cluster: 0}, StdDev: metric.Scores{Cluster: 0.5}}
	if r := st.RelativeStdDev(); r.Cluster != 0 {
		t.Fatalf("zero-mean relative sd = %v", r.Cluster)
	}
	if math.IsNaN(st.RelativeStdDev().Trend) {
		t.Fatal("NaN in relative sd")
	}
}
