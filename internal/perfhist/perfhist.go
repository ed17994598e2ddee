// Package perfhist owns the repository's benchmark-history log.
// cmd/benchjson appends one Record per run to BENCH_history.jsonl — an
// append-only JSONL log carrying the git SHA, goos/goarch, go version
// and timestamp of every measurement — and this package ingests and
// checks that log and judges runs against it:
//
//   - Runs selects one benchmark's rows, filtered to one machine class;
//   - Gate fails a fresh run that lands below a low percentile of the
//     last K same-machine-class runs (`benchjson -check-history`);
//   - CheckLog validates the committed log (`obscheck -bench-history`);
//   - Compare, in compare.go, is the paired same-moment A/B comparator
//     for interleaved best-of-N runs — the primitive behind
//     `benchjson compare` and the CI regression gate.
//
// It draws no trend across commits: the log's records come from
// different hosts, and cross-host wall time supports no claim. Only a
// same-moment paired comparison does.
//
// The decoder follows the same torn-tail discipline as internal/store:
// an append-only log's only crash corruption is a garbled or truncated
// line, so undecodable lines are skipped and every complete record
// around them survives. Records from older schema revisions (PR-6 rows
// without the fields added since) decode with zero values and
// participate in every query.
package perfhist

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"perspector/internal/obs"
	"perspector/internal/stat"
)

// Benchmark is one benchmark's measurement inside a Record — the same
// JSON schema cmd/benchjson has written since PR 4.
type Benchmark struct {
	Name    string  `json:"name"`
	NsPerOp float64 `json:"ns_per_op"`
	// Iterations is the b.N the benchmark driver settled on.
	Iterations int `json:"iterations"`
	// SimulatedInstrPerOp is how many simulated instructions one op
	// executes (0 for benchmarks that are not instruction-granular).
	SimulatedInstrPerOp uint64 `json:"simulated_instr_per_op,omitempty"`
	// SimulatedInstrPerSec is the headline throughput figure.
	SimulatedInstrPerSec float64 `json:"simulated_instr_per_sec,omitempty"`
}

// Record is one benchjson run: build metadata plus every benchmark it
// measured. Rounds and Note were added after the first schema;
// older history rows lack them and decode with zero values.
type Record struct {
	GeneratedAt time.Time `json:"generated_at"`
	GitSHA      string    `json:"git_sha,omitempty"`
	GoVersion   string    `json:"go_version"`
	GOOS        string    `json:"goos"`
	GOARCH      string    `json:"goarch"`
	// Rounds is how many repetitions the suite benchmark kept the best
	// of (0 on pre-perfhist rows: a single round).
	Rounds int `json:"rounds,omitempty"`
	// Note tags the run's origin ("ci", "gate", …); free-form.
	Note       string      `json:"note,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// Class is the machine class a record was measured on. Records from
// different classes are never compared by the distribution gate:
// absolute ns/op across machine generations is exactly the
// cross-machine comparison the paper warns against.
type Class struct {
	GOOS   string `json:"goos"`
	GOARCH string `json:"goarch"`
}

// Class returns the record's machine class.
func (r *Record) Class() Class { return Class{GOOS: r.GOOS, GOARCH: r.GOARCH} }

// Validate reports whether the record is structurally usable: a
// timestamp, a platform, and at least one benchmark with a positive
// ns/op. Records failing it are skipped on ingest.
func (r *Record) Validate() error {
	if r.GeneratedAt.IsZero() {
		return fmt.Errorf("perfhist: record without generated_at")
	}
	if r.GOOS == "" || r.GOARCH == "" {
		return fmt.Errorf("perfhist: record without goos/goarch")
	}
	if len(r.Benchmarks) == 0 {
		return fmt.Errorf("perfhist: record without benchmarks")
	}
	for _, b := range r.Benchmarks {
		if b.Name == "" {
			return fmt.Errorf("perfhist: benchmark without a name")
		}
		if b.NsPerOp <= 0 {
			return fmt.Errorf("perfhist: benchmark %s with ns_per_op %g", b.Name, b.NsPerOp)
		}
	}
	return nil
}

// Bench returns the named benchmark's row, if the record has one.
func (r *Record) Bench(name string) (Benchmark, bool) {
	for _, b := range r.Benchmarks {
		if b.Name == name {
			return b, true
		}
	}
	return Benchmark{}, false
}

// History is an ingested benchmark-history log: records in file order
// (which for an append-only log is arrival order), plus the skipped
// line count so callers can surface corruption instead of hiding it.
type History struct {
	Records []Record
	// Skipped counts lines that did not decode or validate — a torn
	// tail, a hand-edit, or a foreign schema.
	Skipped int
}

// Decode ingests a history log from r. It never fails on record-level
// corruption — undecodable or invalid lines are counted in Skipped —
// and only returns an error when reading r itself fails.
func Decode(r io.Reader) (*History, error) {
	h := &History{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(line, &rec); err != nil {
			h.Skipped++
			continue
		}
		if rec.Validate() != nil {
			h.Skipped++
			continue
		}
		h.Records = append(h.Records, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("perfhist: %w", err)
	}
	return h, nil
}

// Load ingests the history file at path. A missing file is an empty
// history, not an error: a fresh checkout has no trajectory yet.
func Load(ctx context.Context, path string) (*History, error) {
	_, sp := obs.Start(ctx, "perfhist.ingest", obs.String("path", path))
	defer sp.End()
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return &History{}, nil
	}
	if err != nil {
		return nil, fmt.Errorf("perfhist: %w", err)
	}
	defer f.Close()
	h, err := Decode(f)
	if err != nil {
		return nil, fmt.Errorf("perfhist: %s: %w", path, err)
	}
	sp.SetAttr("records", fmt.Sprint(len(h.Records)))
	sp.SetAttr("skipped", fmt.Sprint(h.Skipped))
	return h, nil
}

// Append adds rec as one JSON line to the history file at path,
// creating the file if needed. A crash mid-append leaves the file
// without a trailing '\n'; Append seals that torn tail first (as
// store.Open does), so the new record starts on a line of its own
// instead of merging into the partial one.
func Append(path string, rec Record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("perfhist: %w", err)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("perfhist: %w", err)
	}
	fi, err := f.Stat()
	if err == nil && fi.Size() > 0 {
		var last [1]byte
		if _, err = f.ReadAt(last[:], fi.Size()-1); err == nil && last[0] != '\n' {
			line = append([]byte{'\n'}, line...)
		}
	}
	if err != nil {
		f.Close()
		return fmt.Errorf("perfhist: %w", err)
	}
	_, werr := f.Write(append(line, '\n'))
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("perfhist: %w", werr)
	}
	return nil
}

// Runs returns the named benchmark's rows across the history, paired
// with their records, in file order. Class filters to one machine
// class when non-zero.
func (h *History) Runs(name string, class Class) []Run {
	var out []Run
	for i := range h.Records {
		rec := &h.Records[i]
		if class != (Class{}) && rec.Class() != class {
			continue
		}
		if b, ok := rec.Bench(name); ok {
			out = append(out, Run{Record: rec, Bench: b})
		}
	}
	return out
}

// Run is one benchmark measurement with its run's metadata.
type Run struct {
	Record *Record
	Bench  Benchmark
}

// shortSHA abbreviates a git SHA for display.
func shortSHA(sha string) string {
	if len(sha) > 12 {
		return sha[:12]
	}
	return sha
}

// GateOptions tunes the history-distribution gate.
type GateOptions struct {
	// LastK bounds how many recent same-class runs form the reference
	// distribution (default 10).
	LastK int
	// Percentile is the low percentile of the reference distribution a
	// fresh run must not fall below (default 10 — the p10 floor).
	Percentile float64
	// Slack relaxes the floor by a relative margin, absorbing honest
	// single-digit machine drift (default 0.05; negative means no
	// slack).
	Slack float64
	// MinRuns is how many reference runs the gate needs before it will
	// judge at all (default 3): with fewer the verdict is Inconclusive,
	// never a failure.
	MinRuns int
}

// DefaultGateOptions returns the gate defaults.
func DefaultGateOptions() GateOptions {
	return GateOptions{LastK: 10, Percentile: 10, Slack: 0.05, MinRuns: 3}
}

func (o *GateOptions) normalize() {
	if o.LastK <= 0 {
		o.LastK = 10
	}
	if o.Percentile <= 0 || o.Percentile >= 100 {
		o.Percentile = 10
	}
	if o.Slack == 0 {
		o.Slack = 0.05
	} else if o.Slack < 0 {
		o.Slack = 0
	}
	if o.MinRuns < 1 {
		o.MinRuns = 3
	}
}

// GateResult is the machine-readable verdict of one distribution gate.
type GateResult struct {
	Bench string `json:"bench"`
	Class Class  `json:"class"`
	// Current is the fresh run's simulated instr/sec.
	Current float64 `json:"current_instr_per_sec"`
	// Floor is the value Current must not fall below: the reference
	// distribution's percentile relaxed by Slack. 0 when inconclusive.
	Floor float64 `json:"floor_instr_per_sec"`
	// Reference describes the distribution: how many runs, their
	// percentile value and best.
	ReferenceRuns int     `json:"reference_runs"`
	Percentile    float64 `json:"percentile"`
	Best          float64 `json:"best_instr_per_sec"`
	// Pass is false only on a confident regression verdict.
	Pass bool `json:"pass"`
	// Inconclusive marks a gate with too little same-class history to
	// judge; Pass is true in that case and Reason says why.
	Inconclusive bool   `json:"inconclusive,omitempty"`
	Reason       string `json:"reason,omitempty"`
}

// Gate judges a fresh instr/sec figure for one benchmark against the
// distribution of the last K same-machine-class history runs: the run
// fails when it falls below the reference percentile (relaxed by
// Slack). Unlike a fixed-tolerance snapshot check, the floor tracks
// what this machine class has actually sustained recently — a slow
// trend tightens it and noisy history widens nothing (the percentile
// is robust to upward outliers by construction).
func (h *History) Gate(ctx context.Context, bench string, class Class, current float64, opt GateOptions) GateResult {
	_, sp := obs.Start(ctx, "perfhist.gate", obs.String("bench", bench))
	defer sp.End()
	opt.normalize()
	res := GateResult{Bench: bench, Class: class, Current: current, Percentile: opt.Percentile, Pass: true}
	if current <= 0 {
		res.Inconclusive = true
		res.Reason = "run has no simulated instr/sec figure"
		return res
	}
	runs := h.Runs(bench, class)
	var sample []float64
	for _, r := range runs {
		if r.Bench.SimulatedInstrPerSec > 0 {
			sample = append(sample, r.Bench.SimulatedInstrPerSec)
		}
	}
	if len(sample) > opt.LastK {
		sample = sample[len(sample)-opt.LastK:]
	}
	res.ReferenceRuns = len(sample)
	if len(sample) < opt.MinRuns {
		res.Inconclusive = true
		res.Reason = fmt.Sprintf("only %d same-class reference runs (need %d)", len(sample), opt.MinRuns)
		return res
	}
	sorted := append([]float64(nil), sample...)
	sort.Float64s(sorted)
	res.Best = sorted[len(sorted)-1]
	res.Floor = stat.Percentile(sorted, opt.Percentile) * (1 - opt.Slack)
	if current < res.Floor {
		res.Pass = false
		res.Reason = fmt.Sprintf("%.3g instr/sec below the p%g floor %.3g of the last %d %s/%s runs",
			current, opt.Percentile, res.Floor, len(sample), class.GOOS, class.GOARCH)
	}
	sp.SetAttr("pass", fmt.Sprint(res.Pass))
	return res
}

// CheckLog validates a history log the way obscheck consumes it: every
// line must decode and validate (no skips tolerated — the committed
// log is supposed to be clean), and within each SHA the timestamps
// must be monotone non-decreasing in file order (an append-only log
// accrues time forward; a violation means hand-editing or clock
// trouble). Returns one message per violation.
func CheckLog(r io.Reader) []string {
	var errs []string
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lastAt := make(map[string]time.Time)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(line, &rec); err != nil {
			errs = append(errs, fmt.Sprintf("line %d: undecodable: %v", lineNo, err))
			continue
		}
		if err := rec.Validate(); err != nil {
			errs = append(errs, fmt.Sprintf("line %d: %v", lineNo, err))
			continue
		}
		sha := rec.GitSHA
		if sha == "" {
			sha = "unknown"
		}
		if prev, ok := lastAt[sha]; ok && rec.GeneratedAt.Before(prev) {
			errs = append(errs, fmt.Sprintf("line %d: %s timestamp %s precedes earlier run %s of the same SHA",
				lineNo, shortSHA(sha), rec.GeneratedAt.Format(time.RFC3339), prev.Format(time.RFC3339)))
		}
		lastAt[sha] = rec.GeneratedAt
	}
	if err := sc.Err(); err != nil {
		errs = append(errs, err.Error())
	}
	if lineNo == 0 {
		errs = append(errs, "history is empty")
	}
	return errs
}
