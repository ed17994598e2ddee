// Package perf defines the performance-monitoring-unit event set of the
// paper's Table IV, the event groups used for focused scoring (§IV-B),
// and the counter-matrix / time-series containers that carry measurements
// from the simulator to the Perspector metrics.
package perf

import "fmt"

// Counter identifies one PMU event from Table IV of the paper.
type Counter int

const (
	// CPUCycles is the total CPU cycle count.
	CPUCycles Counter = iota
	// BranchInstructions counts dynamic branch instructions.
	BranchInstructions
	// BranchMisses counts branch mispredictions.
	BranchMisses
	// DTLBWalkPending counts CPU cycles spent walking the page table for
	// dTLB load and store misses.
	DTLBWalkPending
	// StallsMemAny counts cycles stalled on any memory access.
	StallsMemAny
	// PageFaults counts page faults.
	PageFaults
	// DTLBLoads counts dTLB load accesses.
	DTLBLoads
	// DTLBStores counts dTLB store accesses.
	DTLBStores
	// DTLBLoadMisses counts dTLB load misses.
	DTLBLoadMisses
	// DTLBStoreMisses counts dTLB store misses.
	DTLBStoreMisses
	// LLCLoads counts last-level-cache load accesses.
	LLCLoads
	// LLCStores counts last-level-cache store accesses.
	LLCStores
	// LLCLoadMisses counts last-level-cache load misses.
	LLCLoadMisses
	// LLCStoreMisses counts last-level-cache store misses.
	LLCStoreMisses

	// NumCounters is the total number of PMU events (the m of the paper).
	NumCounters
)

var counterNames = [NumCounters]string{
	"cpu-cycles",
	"branch-instructions",
	"branch-misses",
	"dtlb_walk_pending",
	"cycle_activity.stalls_mem_any",
	"page-faults",
	"dTLB-loads",
	"dTLB-stores",
	"dTLB-load-misses",
	"dTLB-store-misses",
	"LLC-loads",
	"LLC-stores",
	"LLC-load-misses",
	"LLC-store-misses",
}

// String returns the perf-style event name.
func (c Counter) String() string {
	if c < 0 || c >= NumCounters {
		return fmt.Sprintf("Counter(%d)", int(c))
	}
	return counterNames[c]
}

// ParseCounter returns the Counter with the given perf-style name.
func ParseCounter(name string) (Counter, error) {
	for i, n := range counterNames {
		if n == name {
			return Counter(i), nil
		}
	}
	return 0, fmt.Errorf("perf: unknown counter %q", name)
}

// AllCounters returns every counter in Table-IV order.
func AllCounters() []Counter {
	out := make([]Counter, NumCounters)
	for i := range out {
		out[i] = Counter(i)
	}
	return out
}

// Group is a named subset of counters used for focused scoring.
type Group struct {
	Name     string
	Counters []Counter
}

// GroupAll covers every Table-IV event (the Fig. 3a setting).
func GroupAll() Group { return Group{Name: "all", Counters: AllCounters()} }

// GroupLLC covers only LLC-related events (the Fig. 3b setting).
func GroupLLC() Group {
	return Group{Name: "llc", Counters: []Counter{LLCLoads, LLCStores, LLCLoadMisses, LLCStoreMisses}}
}

// GroupTLB covers only TLB-related events (the Fig. 3c setting).
func GroupTLB() Group {
	return Group{Name: "tlb", Counters: []Counter{
		DTLBWalkPending, DTLBLoads, DTLBStores, DTLBLoadMisses, DTLBStoreMisses}}
}

// GroupByName resolves "all", "llc" or "tlb".
func GroupByName(name string) (Group, error) {
	switch name {
	case "all":
		return GroupAll(), nil
	case "llc":
		return GroupLLC(), nil
	case "tlb":
		return GroupTLB(), nil
	default:
		return Group{}, fmt.Errorf("perf: unknown event group %q", name)
	}
}

// Values is a full set of counter totals for one workload execution.
type Values [NumCounters]uint64

// Get returns the value of counter c.
func (v *Values) Get(c Counter) uint64 { return v[c] }

// Add accumulates delta into counter c.
func (v *Values) Add(c Counter, delta uint64) { v[c] += delta }

// Sub returns v − w element-wise (callers guarantee monotonicity).
func (v Values) Sub(w Values) Values {
	var out Values
	for i := range v {
		out[i] = v[i] - w[i]
	}
	return out
}

// Vector returns the values of the given counters as float64s, in order.
func (v *Values) Vector(counters []Counter) []float64 {
	out := make([]float64, len(counters))
	for i, c := range counters {
		out[i] = float64(v[c])
	}
	return out
}

// TimeSeries holds the sampled evolution of every counter over one
// execution. Samples[c][t] is the delta of counter c during sample
// interval t (not the running total), which is the signal phase analysis
// needs: a phase change appears as a level shift in the delta series.
type TimeSeries struct {
	// Interval is the instruction distance between samples.
	Interval uint64
	Samples  [NumCounters][]float64
}

// Series returns the delta series of counter c.
func (ts *TimeSeries) Series(c Counter) []float64 { return ts.Samples[c] }

// Len returns the number of samples: the length of the sampled
// counters' series (a valid measurement's are all one length), or 0
// when no counter was sampled. A tool may sample only some events, so
// no single counter stands for the rest.
func (ts *TimeSeries) Len() int {
	for _, s := range ts.Samples {
		if len(s) > 0 {
			return len(s)
		}
	}
	return 0
}

// Measurement is the full result of executing one workload: totals and
// sampled time series.
type Measurement struct {
	Workload string
	Totals   Values
	Series   TimeSeries
}

// SuiteMeasurement aggregates the measurements of every workload in a
// suite, in suite order. This is the matrix X of the paper (§III,
// Notations) plus the per-counter time-series set T_z of §III-B.
type SuiteMeasurement struct {
	Suite     string
	Workloads []Measurement
}

// Matrix returns the n×m matrix of counter totals restricted to the given
// counters: row i is workload i, column j is counters[j]. (The paper
// writes X as m×n; orientation here follows the "row vectors per
// benchmark" convention of §III Notations.)
func (sm *SuiteMeasurement) Matrix(counters []Counter) [][]float64 {
	out := make([][]float64, len(sm.Workloads))
	for i := range sm.Workloads {
		out[i] = sm.Workloads[i].Totals.Vector(counters)
	}
	return out
}

// Validate checks the structure every reader of a stored or imported
// measurement must enforce, whatever the encoding it came from: the
// suite is named, every workload is named, and within one workload every
// counter that carries samples carries the same number of them. A
// counter without samples is allowed (a trace may sample only some
// counters; scoring skips TrendScore when the scored group needs one
// that no workload samples, see metric.MissingSeries).
func (sm *SuiteMeasurement) Validate() error {
	if sm.Suite == "" {
		return fmt.Errorf("perf: measurement has no suite name")
	}
	for i := range sm.Workloads {
		m := &sm.Workloads[i]
		if m.Workload == "" {
			return fmt.Errorf("perf: workload %d has no name", i)
		}
		n := 0
		for _, s := range m.Series.Samples {
			if len(s) == 0 {
				continue
			}
			if n == 0 {
				n = len(s)
			} else if len(s) != n {
				return fmt.Errorf("perf: workload %q has ragged series", m.Workload)
			}
		}
	}
	return nil
}

// Names returns the workload names in order.
func (sm *SuiteMeasurement) Names() []string {
	out := make([]string, len(sm.Workloads))
	for i := range sm.Workloads {
		out[i] = sm.Workloads[i].Workload
	}
	return out
}
