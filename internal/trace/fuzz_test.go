package trace

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// Fuzz targets for the external-data parsers: arbitrary input must never
// panic, and any successfully parsed measurement must round-trip.

func FuzzReadCSV(f *testing.F) {
	f.Add("workload,cpu-cycles\nw,1\n")
	f.Add("workload,cpu-cycles,LLC-loads\na,1,2\nb,3,4\n")
	f.Add("workload\n")
	f.Add("")
	f.Add("workload,cpu-cycles\nw,99999999999999999999\n") // overflow
	f.Add("workload,cpu-cycles\n\"quoted,name\",5\n")
	f.Fuzz(func(t *testing.T, data string) {
		sm, err := ReadCSV(strings.NewReader(data), "fuzz")
		if err != nil {
			return
		}
		// Parsed data must survive a write/read cycle unchanged.
		var buf bytes.Buffer
		counters := allCountersForTest()
		if err := WriteCSV(&buf, sm, counters); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		back, err := ReadCSV(&buf, "fuzz")
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if len(back.Workloads) != len(sm.Workloads) {
			t.Fatalf("round trip changed workload count %d -> %d",
				len(sm.Workloads), len(back.Workloads))
		}
		for i := range sm.Workloads {
			if back.Workloads[i].Totals != sm.Workloads[i].Totals {
				t.Fatalf("round trip changed totals for %q", sm.Workloads[i].Workload)
			}
		}
	})
}

// FuzzReadJSON checks that every accepted document round-trips: the
// re-encoded trace reads back with the same names, totals and samples,
// and the same interval on each workload that has samples.
func FuzzReadJSON(f *testing.F) {
	// Seed with a valid document.
	var buf bytes.Buffer
	if err := WriteJSON(&buf, sampleMeasurement(true)); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	f.Add("{}")
	f.Add(`{"version":1,"suite":"x","counters":[],"workloads":[]}`)
	f.Add("null")
	f.Add("[")
	// Only the second workload is sampled, so the interval must come
	// from it.
	f.Add(`{"version":1,"suite":"x","counters":["cpu-cycles"],"sample_interval":10,` +
		`"workloads":[{"name":"a","totals":[1]},{"name":"b","totals":[2],"series":[[3,4]]}]}`)
	// Only a counter other than the first is sampled.
	f.Add(`{"version":1,"suite":"x","counters":["LLC-loads"],"sample_interval":5,` +
		`"workloads":[{"name":"a","totals":[1],"series":[[1,2]]}]}`)
	f.Fuzz(func(t *testing.T, data string) {
		sm, err := ReadJSON(strings.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteJSON(&out, sm); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		back, err := ReadJSON(&out)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if back.Suite != sm.Suite || len(back.Workloads) != len(sm.Workloads) {
			t.Fatalf("round trip changed suite %q with %d workloads to %q with %d",
				sm.Suite, len(sm.Workloads), back.Suite, len(back.Workloads))
		}
		for i := range sm.Workloads {
			w, g := &sm.Workloads[i], &back.Workloads[i]
			if g.Workload != w.Workload || g.Totals != w.Totals {
				t.Fatalf("round trip changed the name or totals of workload %q", w.Workload)
			}
			if hasSamples(w) && g.Series.Interval != w.Series.Interval {
				t.Fatalf("round trip changed the interval of %q from %d to %d",
					w.Workload, w.Series.Interval, g.Series.Interval)
			}
			for c := range w.Series.Samples {
				ws, gs := w.Series.Samples[c], g.Series.Samples[c]
				if len(gs) != len(ws) {
					t.Fatalf("round trip changed %q counter %d from %d samples to %d",
						w.Workload, c, len(ws), len(gs))
				}
				for k := range ws {
					if math.Float64bits(gs[k]) != math.Float64bits(ws[k]) {
						t.Fatalf("round trip changed %q counter %d sample %d from %v to %v",
							w.Workload, c, k, ws[k], gs[k])
					}
				}
			}
		}
	})
}
