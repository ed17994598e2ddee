package core

import (
	"fmt"
	"math"
	"sort"

	"perspector/internal/metric"
	"perspector/internal/perf"
	"perspector/internal/stat"
)

// CounterRedundancy makes the PCA step's implicit finding explicit: which
// PMU counters move together across a suite's workloads and are therefore
// redundant for characterization. Prior work (§II) relied on PCA to
// silently drop such dimensions; reporting them lets a researcher trim
// the event list *before* measuring — relevant because capturing more
// events than hardware counters forces multiplexing and loses accuracy
// (the paper's footnote 1).

// RedundantPair is a pair of counters whose values are strongly
// correlated across the suite's workloads.
type RedundantPair struct {
	A, B perf.Counter
	// R is the Pearson correlation coefficient across workloads.
	R float64
}

// CounterRedundancy returns every counter pair with |Pearson r| >=
// threshold across the suite's workloads, strongest first. Constant
// counters correlate with nothing (r = 0 by convention). threshold must
// lie in (0, 1].
func CounterRedundancy(sm *perf.SuiteMeasurement, opts metric.Options, threshold float64) ([]RedundantPair, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if threshold <= 0 || threshold > 1 {
		return nil, fmt.Errorf("core: redundancy threshold %v out of (0,1]", threshold)
	}
	if len(sm.Workloads) < 2 {
		return nil, fmt.Errorf("core: redundancy needs at least two workloads, got %d", len(sm.Workloads))
	}
	x := metric.NewArtifacts(sm, opts).Raw()
	var out []RedundantPair
	for i := 0; i < len(opts.Counters); i++ {
		for j := i + 1; j < len(opts.Counters); j++ {
			r := stat.Pearson(x.Col(i), x.Col(j))
			if math.Abs(r) >= threshold {
				out = append(out, RedundantPair{A: opts.Counters[i], B: opts.Counters[j], R: r})
			}
		}
	}
	sort.SliceStable(out, func(a, b int) bool {
		return math.Abs(out[a].R) > math.Abs(out[b].R)
	})
	return out, nil
}
