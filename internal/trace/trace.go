// Package trace serializes suite measurements so Perspector can score
// counter data that did not come from the built-in simulator — e.g.
// numbers collected with `perf stat` on real hardware — and so simulated
// measurements can be archived and re-scored without re-running.
//
// Two formats are supported:
//
//   - JSON: the full measurement (totals + sampled time series), enough
//     to compute all four scores including the TrendScore.
//   - CSV: totals only (workload × counter). Enough for ClusterScore,
//     CoverageScore and SpreadScore; TrendScore needs series data.
package trace

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"perspector/internal/perf"
)

// Version identifies the JSON schema; readers reject unknown versions.
const Version = 1

// jsonSuite is the serialized form of a perf.SuiteMeasurement.
type jsonSuite struct {
	Version   int            `json:"version"`
	Suite     string         `json:"suite"`
	Counters  []string       `json:"counters"`
	Interval  uint64         `json:"sample_interval"`
	Workloads []jsonWorkload `json:"workloads"`
}

type jsonWorkload struct {
	Name   string      `json:"name"`
	Totals []uint64    `json:"totals"` // parallel to Counters
	Series [][]float64 `json:"series,omitempty"`
}

// WriteJSON serializes a full measurement.
func WriteJSON(w io.Writer, sm *perf.SuiteMeasurement) error {
	counters := perf.AllCounters()
	out := jsonSuite{
		Version:  Version,
		Suite:    sm.Suite,
		Counters: make([]string, len(counters)),
	}
	for i, c := range counters {
		out.Counters[i] = c.String()
	}
	for i := range sm.Workloads {
		m := &sm.Workloads[i]
		jw := jsonWorkload{Name: m.Workload, Totals: make([]uint64, len(counters))}
		for j, c := range counters {
			jw.Totals[j] = m.Totals.Get(c)
		}
		if hasSamples(m) {
			// The schema holds one interval: the first sampled workload's.
			if out.Interval == 0 {
				out.Interval = m.Series.Interval
			}
			jw.Series = make([][]float64, len(counters))
			for j, c := range counters {
				jw.Series[j] = m.Series.Series(c)
			}
		}
		out.Workloads = append(out.Workloads, jw)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(&out)
}

// hasSamples reports whether any counter of m was sampled.
func hasSamples(m *perf.Measurement) bool {
	for _, s := range m.Series.Samples {
		if len(s) > 0 {
			return true
		}
	}
	return false
}

// ReadJSON reconstructs a measurement written by WriteJSON (or produced
// by an external tool following the same schema).
func ReadJSON(r io.Reader) (*perf.SuiteMeasurement, error) {
	var in jsonSuite
	dec := json.NewDecoder(r)
	if err := dec.Decode(&in); err != nil {
		return nil, fmt.Errorf("trace: decode: %w", err)
	}
	if in.Version != Version {
		return nil, fmt.Errorf("trace: unsupported version %d (want %d)", in.Version, Version)
	}
	counters, err := parseCounters(in.Counters)
	if err != nil {
		return nil, err
	}
	sm := &perf.SuiteMeasurement{Suite: in.Suite}
	seen := map[string]bool{}
	for _, jw := range in.Workloads {
		if seen[jw.Name] {
			return nil, fmt.Errorf("trace: duplicate workload %q", jw.Name)
		}
		seen[jw.Name] = true
		if len(jw.Totals) != len(counters) {
			return nil, fmt.Errorf("trace: workload %q has %d totals for %d counters",
				jw.Name, len(jw.Totals), len(counters))
		}
		var m perf.Measurement
		m.Workload = jw.Name
		for j, c := range counters {
			m.Totals.Add(c, jw.Totals[j])
		}
		if jw.Series != nil {
			if len(jw.Series) != len(counters) {
				return nil, fmt.Errorf("trace: workload %q has %d series for %d counters",
					jw.Name, len(jw.Series), len(counters))
			}
			m.Series.Interval = in.Interval
			for j, c := range counters {
				m.Series.Samples[c] = append([]float64(nil), jw.Series[j]...)
			}
		}
		sm.Workloads = append(sm.Workloads, m)
	}
	if err := sm.Validate(); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	return sm, nil
}

// WriteCSV writes the totals matrix: header "workload,<counter>,...",
// then one row per workload.
func WriteCSV(w io.Writer, sm *perf.SuiteMeasurement, counters []perf.Counter) error {
	if len(counters) == 0 {
		return fmt.Errorf("trace: WriteCSV with no counters")
	}
	cw := csv.NewWriter(w)
	header := make([]string, 1+len(counters))
	header[0] = "workload"
	for i, c := range counters {
		header[i+1] = c.String()
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	row := make([]string, 1+len(counters))
	for i := range sm.Workloads {
		m := &sm.Workloads[i]
		row[0] = m.Workload
		for j, c := range counters {
			row[j+1] = strconv.FormatUint(m.Totals.Get(c), 10)
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses a totals matrix in the WriteCSV format. Counters are
// identified from the header; unknown columns are an error so silently
// dropped data cannot skew scores.
func ReadCSV(r io.Reader, suiteName string) (*perf.SuiteMeasurement, error) {
	if suiteName == "" {
		return nil, fmt.Errorf("trace: ReadCSV needs a suite name")
	}
	cr := csv.NewReader(r)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("trace: header: %w", err)
	}
	if len(header) < 2 || header[0] != "workload" {
		return nil, fmt.Errorf("trace: header must start with \"workload\", got %v", header)
	}
	counters, err := parseCounters(header[1:])
	if err != nil {
		return nil, err
	}
	sm := &perf.SuiteMeasurement{Suite: suiteName}
	seen := map[string]bool{}
	for line := 2; ; line++ {
		row, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		if row[0] == "" {
			return nil, fmt.Errorf("trace: line %d: empty workload name", line)
		}
		if seen[row[0]] {
			return nil, fmt.Errorf("trace: duplicate workload %q", row[0])
		}
		seen[row[0]] = true
		var m perf.Measurement
		m.Workload = row[0]
		for j, c := range counters {
			v, err := strconv.ParseUint(row[j+1], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("trace: line %d column %q: %w", line, header[j+1], err)
			}
			m.Totals.Add(c, v)
		}
		sm.Workloads = append(sm.Workloads, m)
	}
	if len(sm.Workloads) == 0 {
		return nil, fmt.Errorf("trace: no workload rows")
	}
	return sm, nil
}

// parseCounters resolves counter names. A counter named twice is an
// error: summing its columns, or keeping one, would each hand the
// scorer a value the source never reported.
func parseCounters(names []string) ([]perf.Counter, error) {
	counters := make([]perf.Counter, len(names))
	var seen [perf.NumCounters]bool
	for i, name := range names {
		c, err := perf.ParseCounter(name)
		if err != nil {
			return nil, fmt.Errorf("trace: counter %d: %w", i+1, err)
		}
		if seen[c] {
			return nil, fmt.Errorf("trace: counter %q listed twice", name)
		}
		seen[c] = true
		counters[i] = c
	}
	return counters, nil
}

// Read decodes a trace in format "json" (see ReadJSON) or "csv" (see
// ReadCSV, which names the suite suiteName).
func Read(r io.Reader, format, suiteName string) (*perf.SuiteMeasurement, error) {
	switch format {
	case "json":
		return ReadJSON(r)
	case "csv":
		return ReadCSV(r, suiteName)
	}
	return nil, fmt.Errorf("trace: unknown format %q", format)
}
