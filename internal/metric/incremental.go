package metric

import (
	"context"
	"fmt"

	"perspector/internal/mat"
	"perspector/internal/obs"
	"perspector/internal/perf"
	"perspector/internal/stage"
)

// IncrementalRun is a scoring run whose measurements grow over time: new
// workloads append, existing workloads receive counter/series chunks,
// and every Scores call re-scores the current state. Incremental work is
// kept where it pays: the per-workload normalized series and the
// pairwise-DTW matrices update only the entries a changed series
// touches, and a metric whose inputs did not change is served from its
// memo. Everything derived from the counter totals — the own-normalized
// and distance matrices and the Eq. 9–10 joint normalization — is
// rebuilt by the batch code on any totals change, so every Scores result
// is bit-identical to a fresh batch run (ScoreSuites over the same
// measurements, the golden oracle) by construction.
//
// An IncrementalRun is not safe for concurrent use; callers serialize
// appends and scoring (the jobs stream layer runs one goroutine per
// stream). The run takes ownership of the measurements passed in.
type IncrementalRun struct {
	opts Options
	reg  *Registry
	arts []*Artifacts

	needJoint bool
	// jointAt[i] is suite i's totalsVer when the joint normalization was
	// last computed (staleVer before the first success).
	jointAt []uint64
}

// NewIncrementalRun starts an incremental scoring run over the given
// suite measurements (which may start empty and grow via appends). A nil
// registry means DefaultRegistry.
func NewIncrementalRun(sms []*perf.SuiteMeasurement, opts Options, reg *Registry) (*IncrementalRun, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if len(sms) == 0 {
		return nil, fmt.Errorf("metric: NewIncrementalRun with no suites")
	}
	if reg == nil {
		reg = DefaultRegistry()
	}
	r := &IncrementalRun{
		opts:      opts,
		reg:       reg,
		arts:      make([]*Artifacts, len(sms)),
		needJoint: reg.needs(func(c Capabilities) bool { return c.NeedsJointNorm }),
		jointAt:   make([]uint64, len(sms)),
	}
	for i, sm := range sms {
		r.arts[i] = NewArtifacts(sm, opts)
		r.jointAt[i] = staleVer
	}
	return r, nil
}

// Suites returns the number of suites in the run.
func (r *IncrementalRun) Suites() int { return len(r.arts) }

// Measurement returns suite i's accumulated measurement. The run owns
// it; callers must not mutate it.
func (r *IncrementalRun) Measurement(i int) *perf.SuiteMeasurement { return r.arts[i].Meas }

// WorkloadIndex returns the index of the named workload in suite i, or
// -1 if no workload with that name has been appended.
func (r *IncrementalRun) WorkloadIndex(suite int, name string) int {
	if suite < 0 || suite >= len(r.arts) {
		return -1
	}
	for w := range r.arts[suite].Meas.Workloads {
		if r.arts[suite].Meas.Workloads[w].Workload == name {
			return w
		}
	}
	return -1
}

// AppendWorkload appends a new workload measurement to suite i. The
// next Scores call computes DTW pairs only for the new workload's
// series.
func (r *IncrementalRun) AppendWorkload(suite int, m perf.Measurement) error {
	if suite < 0 || suite >= len(r.arts) {
		return fmt.Errorf("metric: AppendWorkload: suite index %d out of range [0,%d)", suite, len(r.arts))
	}
	r.arts[suite].appendWorkload(m)
	return nil
}

// AppendSamples extends an existing workload of suite i: delta
// accumulates into its counter totals and series (if non-nil and
// non-empty) appends to its sampled time series.
func (r *IncrementalRun) AppendSamples(suite int, workload string, delta perf.Values, series *perf.TimeSeries) error {
	if suite < 0 || suite >= len(r.arts) {
		return fmt.Errorf("metric: AppendSamples: suite index %d out of range [0,%d)", suite, len(r.arts))
	}
	idx := r.WorkloadIndex(suite, workload)
	if idx < 0 {
		return fmt.Errorf("metric: AppendSamples: suite %q has no workload %q",
			r.arts[suite].Meas.Suite, workload)
	}
	r.arts[suite].appendSamples(idx, delta, series)
	return nil
}

// Scores re-scores the current accumulated state. The result is
// bit-identical to ScoreSuites over the same measurements; metrics whose
// inputs no append has touched since the last call are not recomputed.
func (r *IncrementalRun) Scores(ctx context.Context) ([]Scores, error) {
	runStage := stage.Compare
	if len(r.arts) == 1 {
		runStage = stage.Score
	}
	if r.needJoint {
		_, jnSpan := obs.Start(ctx, "joint_norm")
		err := r.updateJoint()
		jnSpan.End()
		if err != nil {
			return nil, stage.Wrap(runStage, "", "", err)
		}
	}
	return scoreArtifacts(ctx, r.arts, r.reg, runStage)
}

// updateJoint keeps the Eq. 9–10 joint normalization current. When any
// suite's counter matrix changed since the last call it re-runs
// JointNormalize over every suite, exactly as the batch path does. A
// suite's JointNorm is replaced, and its version bumped, only when the
// new matrix differs: an append that moved no joint bound leaves the
// other suites' Coverage and Spread memoized.
func (r *IncrementalRun) updateJoint() error {
	stale := false
	for i, a := range r.arts {
		if r.jointAt[i] != a.totalsVer {
			stale = true
		}
	}
	if !stale {
		return nil
	}
	raws := make([]*mat.Matrix, len(r.arts))
	for i, a := range r.arts {
		raws[i] = a.Raw()
	}
	normed, err := JointNormalize(raws)
	if err != nil {
		return err
	}
	for i, a := range r.arts {
		if a.JointNorm == nil || !a.JointNorm.Equal(normed[i], 0) {
			a.JointNorm = normed[i]
			a.bumpJointVersion()
		}
		r.jointAt[i] = a.totalsVer
	}
	return nil
}
