package perf

import (
	"strings"
	"testing"
)

func TestCounterNamesRoundTrip(t *testing.T) {
	for _, c := range AllCounters() {
		name := c.String()
		if name == "" || strings.HasPrefix(name, "Counter(") {
			t.Fatalf("counter %d has no name", int(c))
		}
		back, err := ParseCounter(name)
		if err != nil {
			t.Fatalf("ParseCounter(%q): %v", name, err)
		}
		if back != c {
			t.Fatalf("round trip %q: %v != %v", name, back, c)
		}
	}
}

func TestParseCounterUnknown(t *testing.T) {
	if _, err := ParseCounter("nope"); err == nil {
		t.Fatal("unknown counter accepted")
	}
}

func TestCounterStringOutOfRange(t *testing.T) {
	if Counter(-1).String() != "Counter(-1)" {
		t.Fatal("out-of-range String wrong")
	}
}

func TestAllCountersCount(t *testing.T) {
	if len(AllCounters()) != 14 {
		t.Fatalf("Table IV defines 14 events, got %d", len(AllCounters()))
	}
}

func TestGroups(t *testing.T) {
	all := GroupAll()
	if len(all.Counters) != int(NumCounters) {
		t.Fatalf("GroupAll has %d counters", len(all.Counters))
	}
	llc := GroupLLC()
	if len(llc.Counters) != 4 {
		t.Fatalf("GroupLLC has %d counters", len(llc.Counters))
	}
	for _, c := range llc.Counters {
		if !strings.HasPrefix(c.String(), "LLC") {
			t.Fatalf("GroupLLC contains %v", c)
		}
	}
	tlb := GroupTLB()
	if len(tlb.Counters) != 5 {
		t.Fatalf("GroupTLB has %d counters", len(tlb.Counters))
	}
	for _, c := range tlb.Counters {
		if !strings.Contains(strings.ToLower(c.String()), "tlb") {
			t.Fatalf("GroupTLB contains %v", c)
		}
	}
}

func TestGroupByName(t *testing.T) {
	for _, name := range []string{"all", "llc", "tlb"} {
		g, err := GroupByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if g.Name != name {
			t.Fatalf("group name %q", g.Name)
		}
	}
	if _, err := GroupByName("bogus"); err == nil {
		t.Fatal("bogus group accepted")
	}
}

func TestValues(t *testing.T) {
	var v Values
	v.Add(CPUCycles, 100)
	v.Add(CPUCycles, 50)
	if v.Get(CPUCycles) != 150 {
		t.Fatalf("Get = %d", v.Get(CPUCycles))
	}
	var w Values
	w.Add(CPUCycles, 40)
	diff := v.Sub(w)
	if diff.Get(CPUCycles) != 110 {
		t.Fatalf("Sub = %d", diff.Get(CPUCycles))
	}
}

func TestValuesVector(t *testing.T) {
	var v Values
	v.Add(LLCLoads, 7)
	v.Add(LLCStores, 9)
	vec := v.Vector([]Counter{LLCStores, LLCLoads})
	if vec[0] != 9 || vec[1] != 7 {
		t.Fatalf("Vector = %v", vec)
	}
}

func TestSuiteMeasurementMatrix(t *testing.T) {
	var m1, m2 Values
	m1.Add(CPUCycles, 10)
	m2.Add(CPUCycles, 20)
	sm := &SuiteMeasurement{
		Suite: "test",
		Workloads: []Measurement{
			{Workload: "a", Totals: m1},
			{Workload: "b", Totals: m2},
		},
	}
	x := sm.Matrix([]Counter{CPUCycles})
	if len(x) != 2 || x[0][0] != 10 || x[1][0] != 20 {
		t.Fatalf("Matrix = %v", x)
	}
	names := sm.Names()
	if names[0] != "a" || names[1] != "b" {
		t.Fatalf("Names = %v", names)
	}
}

func TestTimeSeries(t *testing.T) {
	var ts TimeSeries
	ts.Interval = 1000
	ts.Samples[CPUCycles] = []float64{1, 2, 3}
	if ts.Len() != 3 {
		t.Fatalf("Len = %d", ts.Len())
	}
	if s := ts.Series(CPUCycles); len(s) != 3 || s[2] != 3 {
		t.Fatalf("Series = %v", s)
	}
	// A trace that samples only some events, not cpu-cycles, still has
	// samples.
	var llc TimeSeries
	llc.Samples[LLCLoadMisses] = []float64{4, 5}
	if llc.Len() != 2 {
		t.Fatalf("LLC-only Len = %d, want 2", llc.Len())
	}
}
