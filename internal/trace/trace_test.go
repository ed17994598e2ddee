package trace

import (
	"bytes"
	"strings"
	"testing"

	"perspector/internal/perf"
	"perspector/internal/rng"
)

func sampleMeasurement(withSeries bool) *perf.SuiteMeasurement {
	src := rng.New(1)
	sm := &perf.SuiteMeasurement{Suite: "sample"}
	for i := 0; i < 3; i++ {
		var m perf.Measurement
		m.Workload = "w" + string(rune('a'+i))
		for c := perf.Counter(0); c < perf.NumCounters; c++ {
			m.Totals.Add(c, uint64(src.Intn(1_000_000)))
			if withSeries {
				m.Series.Interval = 1000
				s := make([]float64, 20)
				for k := range s {
					s[k] = float64(src.Intn(500))
				}
				m.Series.Samples[c] = s
			}
		}
		sm.Workloads = append(sm.Workloads, m)
	}
	return sm
}

func TestJSONRoundTripWithSeries(t *testing.T) {
	orig := sampleMeasurement(true)
	var buf bytes.Buffer
	if err := WriteJSON(&buf, orig); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Suite != orig.Suite || len(back.Workloads) != len(orig.Workloads) {
		t.Fatalf("shape mismatch: %+v", back)
	}
	for i := range orig.Workloads {
		if back.Workloads[i].Totals != orig.Workloads[i].Totals {
			t.Fatalf("workload %d totals differ", i)
		}
		if back.Workloads[i].Series.Interval != 1000 {
			t.Fatalf("interval lost: %d", back.Workloads[i].Series.Interval)
		}
		for c := perf.Counter(0); c < perf.NumCounters; c++ {
			a := orig.Workloads[i].Series.Series(c)
			b := back.Workloads[i].Series.Series(c)
			if len(a) != len(b) {
				t.Fatalf("series length mismatch for %v", c)
			}
			for k := range a {
				if a[k] != b[k] {
					t.Fatalf("series value mismatch at %v[%d]", c, k)
				}
			}
		}
	}
}

func TestJSONRoundTripTotalsOnly(t *testing.T) {
	orig := sampleMeasurement(false)
	var buf bytes.Buffer
	if err := WriteJSON(&buf, orig); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range orig.Workloads {
		if back.Workloads[i].Series.Len() != 0 {
			t.Fatal("series materialized from nothing")
		}
		if back.Workloads[i].Totals != orig.Workloads[i].Totals {
			t.Fatal("totals differ")
		}
	}
}

func TestReadJSONRejectsBadInput(t *testing.T) {
	cases := map[string]string{
		"not json":        "{",
		"bad version":     `{"version":99,"suite":"x","counters":[],"workloads":[]}`,
		"missing suite":   `{"version":1,"counters":[],"workloads":[]}`,
		"unknown counter": `{"version":1,"suite":"x","counters":["nope"],"workloads":[]}`,
		"totals mismatch": `{"version":1,"suite":"x","counters":["cpu-cycles"],"workloads":[{"name":"w","totals":[1,2]}]}`,
		"unnamed workload": `{"version":1,"suite":"x","counters":["cpu-cycles"],` +
			`"workloads":[{"name":"","totals":[1]}]}`,
		"ragged series": `{"version":1,"suite":"x","counters":["cpu-cycles"],` +
			`"workloads":[{"name":"w","totals":[1],"series":[[1,2],[1]]}]}`,
		"repeated counter": `{"version":1,"suite":"x","counters":["LLC-loads","LLC-loads"],` +
			`"workloads":[{"name":"w","totals":[5,7],"series":[[1,2],[3,4]]}]}`,
		"repeated workload": `{"version":1,"suite":"x","counters":["cpu-cycles"],` +
			`"workloads":[{"name":"w","totals":[1]},{"name":"w","totals":[2]}]}`,
	}
	for name, in := range cases {
		if _, err := ReadJSON(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestCSVRoundTrip(t *testing.T) {
	orig := sampleMeasurement(false)
	counters := perf.AllCounters()
	var buf bytes.Buffer
	if err := WriteCSV(&buf, orig, counters); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf, "sample")
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Workloads) != 3 {
		t.Fatalf("workloads = %d", len(back.Workloads))
	}
	for i := range orig.Workloads {
		if back.Workloads[i].Totals != orig.Workloads[i].Totals {
			t.Fatalf("workload %d totals differ", i)
		}
	}
}

func TestCSVSubsetOfCounters(t *testing.T) {
	orig := sampleMeasurement(false)
	counters := perf.GroupLLC().Counters
	var buf bytes.Buffer
	if err := WriteCSV(&buf, orig, counters); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf, "llc-only")
	if err != nil {
		t.Fatal(err)
	}
	for i := range orig.Workloads {
		for _, c := range counters {
			if back.Workloads[i].Totals.Get(c) != orig.Workloads[i].Totals.Get(c) {
				t.Fatalf("LLC counter %v differs", c)
			}
		}
		// Unexported counters stay zero.
		if back.Workloads[i].Totals.Get(perf.CPUCycles) != 0 {
			t.Fatal("cpu-cycles materialized from an LLC-only CSV")
		}
	}
}

func TestReadCSVRejectsBadInput(t *testing.T) {
	cases := map[string]string{
		"empty":             "",
		"bad header":        "foo,cpu-cycles\nw,1\n",
		"unknown counter":   "workload,bogus\nw,1\n",
		"non-numeric":       "workload,cpu-cycles\nw,abc\n",
		"empty name":        "workload,cpu-cycles\n,1\n",
		"duplicate name":    "workload,cpu-cycles\nw,1\nw,2\n",
		"no rows":           "workload,cpu-cycles\n",
		"short header only": "workload\n",
		"repeated counter":  "workload,LLC-loads,LLC-loads\nw1,5,7\n",
	}
	for name, in := range cases {
		if _, err := ReadCSV(strings.NewReader(in), "x"); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := ReadCSV(strings.NewReader("workload,cpu-cycles\nw,1\n"), ""); err == nil {
		t.Error("empty suite name accepted")
	}
}

// TestJSONIntervalFromSampledWorkload writes a suite whose first
// workload carries no series: the sample interval of the sampled ones
// must survive the round trip.
func TestJSONIntervalFromSampledWorkload(t *testing.T) {
	orig := sampleMeasurement(true)
	orig.Workloads[0].Series = perf.TimeSeries{}
	for i := 1; i < len(orig.Workloads); i++ {
		orig.Workloads[i].Series.Interval = 10
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, orig); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(back.Workloads); i++ {
		if got := back.Workloads[i].Series.Interval; got != 10 {
			t.Fatalf("workload %d interval read back as %d, want 10", i, got)
		}
	}
}

// TestReadCSVTotalsOnly reads a CSV trace through Read: the suite takes
// the given name and no workload carries series.
func TestReadCSVTotalsOnly(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCSV(&buf, sampleMeasurement(true), perf.AllCounters()); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf, "csv", "imported")
	if err != nil {
		t.Fatal(err)
	}
	if got.Suite != "imported" {
		t.Fatalf("suite name = %q", got.Suite)
	}
	for i := range got.Workloads {
		if got.Workloads[i].Series.Len() != 0 {
			t.Fatalf("CSV import carries series for workload %d", i)
		}
	}
}

func TestReadUnknownFormat(t *testing.T) {
	for _, format := range []string{"", "xml", "JSON"} {
		if _, err := Read(strings.NewReader("{}"), format, "x"); err == nil {
			t.Errorf("format %q accepted", format)
		}
	}
}

func TestWriteCSVNoCounters(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCSV(&buf, sampleMeasurement(false), nil); err == nil {
		t.Fatal("no counters accepted")
	}
}

// allCountersForTest returns the full counter list for fuzz round-trips.
func allCountersForTest() []perf.Counter { return perf.AllCounters() }
