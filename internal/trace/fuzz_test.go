package trace

import (
	"bytes"
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
	f.Fuzz(func(t *testing.T, data string) {
		sm, err := ReadJSON(strings.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteJSON(&out, sm); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		if _, err := ReadJSON(&out); err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
	})
}
