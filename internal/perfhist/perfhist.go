// Package perfhist turns the repository's benchmark trajectory into a
// queryable subsystem. cmd/benchjson appends one Record per run to
// BENCH_history.jsonl — an append-only JSONL log carrying the git SHA,
// goos/goarch, go version and timestamp of every measurement — and this
// package ingests that log, indexes it by benchmark name and commit,
// and computes trend statistics over it:
//
//   - per-benchmark, per-commit aggregates (min/median/p90 ns_per_op,
//     best/median simulated instr/sec across the runs of one SHA),
//   - deltas between consecutive commits with a noise-aware regression
//     verdict (the within-commit spread of repeated runs is the noise
//     estimate the across-commit delta must clear),
//   - a distribution gate: fail a fresh run that lands below a low
//     percentile of the last K same-machine-class runs (Gate), and
//   - a paired same-moment A/B comparator for interleaved best-of-N
//     runs (Compare, in compare.go) — the primitive behind
//     `benchjson compare` and the CI regression gate.
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
// measured. Rounds and Note were added with the perf-history service;
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

// BenchNames returns every benchmark name seen in the history, in
// first-seen order.
func (h *History) BenchNames() []string {
	var names []string
	seen := make(map[string]bool)
	for _, r := range h.Records {
		for _, b := range r.Benchmarks {
			if !seen[b.Name] {
				seen[b.Name] = true
				names = append(names, b.Name)
			}
		}
	}
	return names
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

// TrendPoint aggregates one benchmark's runs at one commit. Repeated
// runs of the same SHA are the noise sample: their spread is what a
// cross-commit delta must clear to count as a real change.
type TrendPoint struct {
	GitSHA   string `json:"git_sha"`
	ShortSHA string `json:"short_sha"`
	// FirstAt/LastAt bound the runs folded into this point.
	FirstAt time.Time `json:"first_at"`
	LastAt  time.Time `json:"last_at"`
	Runs    int       `json:"runs"`
	// ns/op aggregates. Min is the headline (OS noise only ever slows a
	// run down, so the fastest observation is the least contaminated).
	MinNsPerOp    float64 `json:"min_ns_per_op"`
	MedianNsPerOp float64 `json:"median_ns_per_op"`
	P90NsPerOp    float64 `json:"p90_ns_per_op"`
	// Simulated throughput aggregates (0 when the benchmark is not
	// instruction-granular).
	BestInstrPerSec   float64 `json:"best_instr_per_sec,omitempty"`
	MedianInstrPerSec float64 `json:"median_instr_per_sec,omitempty"`
	// Noise is the relative within-commit spread,
	// (median − min) / min of ns/op — 0 for a single run.
	Noise float64 `json:"noise"`
}

// Trend is one benchmark's trajectory across commits, oldest first.
type Trend struct {
	Name   string       `json:"name"`
	Points []TrendPoint `json:"points"`
	// Delta compares the newest point against the previous one; nil
	// with fewer than two points.
	Delta *Delta `json:"delta,omitempty"`
}

// Delta is a cross-commit comparison of two trend points through the
// same noise-aware rule as the paired comparator: the relative change
// of best-of ns/op must clear the combined within-commit noise plus
// the minimum effect size to be called significant.
type Delta struct {
	FromSHA string `json:"from_sha"`
	ToSHA   string `json:"to_sha"`
	// RelNsPerOp is (to.Min − from.Min) / from.Min: positive = slower.
	RelNsPerOp float64 `json:"rel_ns_per_op"`
	// RelInstrPerSec is (to.Best − from.Best) / from.Best: negative =
	// less throughput. 0 when either side lacks the figure.
	RelInstrPerSec float64 `json:"rel_instr_per_sec,omitempty"`
	// Noise is the band the delta must clear: the larger within-commit
	// spread of the two points plus MinEffect.
	Noise float64 `json:"noise"`
	// Significant marks |RelNsPerOp| > Noise + MinEffect; Regressed
	// additionally requires the slow direction.
	Significant bool `json:"significant"`
	Regressed   bool `json:"regressed"`
}

// Trends computes every benchmark's trajectory for one machine class
// (zero Class folds all classes together — only useful for display,
// never for gating). Points group runs by git SHA in first-seen order;
// runs without a SHA group under "unknown".
func (h *History) Trends(ctx context.Context, class Class) []Trend {
	_, sp := obs.Start(ctx, "perfhist.trends")
	defer sp.End()
	var out []Trend
	for _, name := range h.BenchNames() {
		runs := h.Runs(name, class)
		if len(runs) == 0 {
			continue
		}
		t := Trend{Name: name, Points: trendPoints(runs)}
		if n := len(t.Points); n >= 2 {
			t.Delta = compareTrendPoints(t.Points[n-2], t.Points[n-1])
		}
		out = append(out, t)
	}
	sp.SetAttr("benchmarks", fmt.Sprint(len(out)))
	return out
}

// trendPoints groups runs by SHA in first-seen order and aggregates
// each group.
func trendPoints(runs []Run) []TrendPoint {
	var order []string
	bySHA := make(map[string][]Run)
	for _, r := range runs {
		sha := r.Record.GitSHA
		if sha == "" {
			sha = "unknown"
		}
		if _, ok := bySHA[sha]; !ok {
			order = append(order, sha)
		}
		bySHA[sha] = append(bySHA[sha], r)
	}
	out := make([]TrendPoint, 0, len(order))
	for _, sha := range order {
		out = append(out, aggregatePoint(sha, bySHA[sha]))
	}
	return out
}

func aggregatePoint(sha string, runs []Run) TrendPoint {
	p := TrendPoint{GitSHA: sha, ShortSHA: shortSHA(sha), Runs: len(runs)}
	ns := make([]float64, 0, len(runs))
	var ips []float64
	for _, r := range runs {
		ns = append(ns, r.Bench.NsPerOp)
		if r.Bench.SimulatedInstrPerSec > 0 {
			ips = append(ips, r.Bench.SimulatedInstrPerSec)
		}
		at := r.Record.GeneratedAt
		if p.FirstAt.IsZero() || at.Before(p.FirstAt) {
			p.FirstAt = at
		}
		if at.After(p.LastAt) {
			p.LastAt = at
		}
	}
	sort.Float64s(ns)
	p.MinNsPerOp = ns[0]
	p.MedianNsPerOp = stat.Percentile(ns, 50)
	p.P90NsPerOp = stat.Percentile(ns, 90)
	if p.MinNsPerOp > 0 {
		p.Noise = (p.MedianNsPerOp - p.MinNsPerOp) / p.MinNsPerOp
	}
	if len(ips) > 0 {
		sort.Float64s(ips)
		p.BestInstrPerSec = ips[len(ips)-1]
		p.MedianInstrPerSec = stat.Percentile(ips, 50)
	}
	return p
}

// compareTrendPoints applies the noise-aware significance rule to two
// commits' aggregates.
func compareTrendPoints(from, to TrendPoint) *Delta {
	d := &Delta{FromSHA: from.GitSHA, ToSHA: to.GitSHA}
	if from.MinNsPerOp > 0 {
		d.RelNsPerOp = (to.MinNsPerOp - from.MinNsPerOp) / from.MinNsPerOp
	}
	if from.BestInstrPerSec > 0 && to.BestInstrPerSec > 0 {
		d.RelInstrPerSec = (to.BestInstrPerSec - from.BestInstrPerSec) / from.BestInstrPerSec
	}
	d.Noise = from.Noise
	if to.Noise > d.Noise {
		d.Noise = to.Noise
	}
	opt := DefaultCompareOptions()
	band := opt.NoiseMult*d.Noise + opt.MinEffect
	d.Significant = d.RelNsPerOp > band || d.RelNsPerOp < -band
	d.Regressed = d.Significant && d.RelNsPerOp > 0
	return d
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
