// Package benchset holds the bodies of the simulator benchmarks that
// cmd/benchjson records into BENCH_simulator.json and
// BENCH_history.jsonl. The `go test -bench` benchmarks of the same names
// (in the root package, internal/uarch and internal/trace) are one-line
// calls into this package, so each benchmark has exactly one body and a
// `go test -bench` number and a recorded number measure the same work.
//
// A body that simulates (or parses) instructions reports how many per op
// with b.ReportMetric(n, "instructions/op"); benchjson reads that metric
// back from testing.BenchmarkResult.Extra to derive simulated
// instructions per second.
package benchset

import (
	"context"
	"fmt"
	"io"
	"strconv"
	"testing"

	perspector "perspector"
	"perspector/internal/metric"
	"perspector/internal/obs"
	"perspector/internal/perf"
	"perspector/internal/rng"
	"perspector/internal/trace"
	"perspector/internal/uarch"
)

// Bench is one recorded benchmark: its name and its body.
type Bench struct {
	Name string
	Run  func(*testing.B)
}

// All is the set cmd/benchjson records, in the order of
// BENCH_simulator.json. The names key the history's trend lines and
// perfbench/legacy_names.json, so they never change.
var All = []Bench{
	{"SimulateSuite", SimulateSuite},
	{"SimulateSuiteTotalsOnly", SimulateSuiteTotalsOnly},
	{"SimulateWorkload", SimulateWorkload},
	{"StreamIngest", StreamIngest},
	{"FullRescore", FullRescore},
	{"IncrRescore", IncrRescore},
	{"MachineStep", MachineStep},
	{"CacheAccess", CacheAccess},
	{"TLBTranslate", TLBTranslate},
}

// InstrMetric is the unit under which a body reports its simulated
// instructions per op.
const InstrMetric = "instructions/op"

// SimulateSuite measures raw simulator throughput: the Nbench suite end
// to end at the paper's full configuration (the substrate cost behind
// every figure).
func SimulateSuite(b *testing.B) { simulate(b, perspector.DefaultConfig(), 0, false) }

// SimulateSuiteTotalsOnly is SimulateSuite through the counters-only
// fast path: no sampled series is built, and the totals are pinned
// bit-identical to the full run by TestCountersOnlyMatchesFullTotals.
func SimulateSuiteTotalsOnly(b *testing.B) {
	cfg := perspector.DefaultConfig()
	cfg.TotalsOnly = true
	simulate(b, cfg, 0, false)
}

// SimulateWorkload measures the simulator on a single workload — the
// first Nbench kernel — so per-core throughput is separable from the
// suite-level number, which folds in the worker fan-out and any
// cross-workload machine reuse.
func SimulateWorkload(b *testing.B) { simulate(b, perspector.DefaultConfig(), 1, false) }

// SimulateSuiteRecorder is SimulateSuite with a live telemetry recorder
// attached: the pair quantifies the span overhead. A fresh recorder per
// op keeps the arena from amortizing across ops.
func SimulateSuiteRecorder(b *testing.B) { simulate(b, perspector.DefaultConfig(), 0, true) }

// simulate measures the Nbench suite once per op, cut to its first
// `workloads` kernels when that is positive.
func simulate(b *testing.B, cfg perspector.Config, workloads int, recorder bool) {
	s, err := perspector.SuiteByName("nbench", cfg)
	if err != nil {
		b.Fatal(err)
	}
	if workloads > 0 {
		s.Specs = s.Specs[:workloads]
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx := context.Background()
		if recorder {
			ctx = obs.WithRecorder(ctx, obs.NewRecorder())
		}
		if _, err := perspector.MeasureContext(ctx, s, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(cfg.Instructions*uint64(len(s.Specs))), InstrMetric)
}

// StreamIngest measures the streaming trace reader: one op parses one
// streamBlock (~1 MiB of log) through ProgramReader.NextBatch.
// instructions/op counts parsed log records, so instr/sec is the ingest
// ceiling for replaying instruction logs through the simulator.
func StreamIngest(b *testing.B) {
	block, perBlock := streamBlock()
	pr := trace.NewProgramReader(&repeatReader{block: block, reps: b.N}, "bench")
	batch := make([]uarch.Instr, 4096)
	b.SetBytes(int64(len(block)))
	b.ResetTimer()
	total := 0
	for {
		n := pr.NextBatch(batch)
		total += n
		if n < len(batch) {
			break
		}
	}
	if err := pr.Err(); err != nil {
		b.Fatal(err)
	}
	if total != perBlock*b.N {
		b.Fatalf("parsed %d records, want %d", total, perBlock*b.N)
	}
	b.ReportMetric(float64(perBlock), InstrMetric)
}

// streamBlock renders ~1 MiB of instruction-log text cycling through
// all five record kinds, and reports how many records it holds.
func streamBlock() ([]byte, int) {
	var buf []byte
	records := 0
	for i := uint64(0); len(buf) < 1<<20; i++ {
		buf = append(buf, 'A', '\n')
		buf = append(buf, 'L', ',')
		buf = strconv.AppendUint(buf, i*64%(1<<22), 10)
		buf = append(buf, '\n', 'S', ',')
		buf = strconv.AppendUint(buf, i*128%(1<<24), 10)
		buf = append(buf, '\n', 'B', ',')
		buf = strconv.AppendUint(buf, 0x400000+i%64*4, 10)
		buf = append(buf, ',', '0'+byte(i&1), '\n')
		buf = append(buf, 'Y', ',', '0', '\n')
		records += 5
	}
	return buf, records
}

// repeatReader serves block reps times: a log of any length without
// the buffer to hold it.
type repeatReader struct {
	block []byte
	off   int
	reps  int
}

func (r *repeatReader) Read(p []byte) (int, error) {
	if r.reps == 0 {
		return 0, io.EOF
	}
	n := copy(p, r.block[r.off:])
	r.off += n
	if r.off == len(r.block) {
		r.off = 0
		r.reps--
	}
	return n, nil
}

// rescoreMeasurement fabricates the fixed measurement the rescore
// benchmarks score: 64 workloads, each with totals and a 64-sample
// series per counter — the shape a perspectord stream accumulates chunk
// by chunk.
func rescoreMeasurement() *perf.SuiteMeasurement {
	src := rng.New(2023)
	sm := &perf.SuiteMeasurement{Suite: "streambench"}
	for i := 0; i < 64; i++ {
		m := perf.Measurement{Workload: fmt.Sprintf("w%02d", i)}
		m.Series.Interval = 1000
		for c := 0; c < int(perf.NumCounters); c++ {
			m.Totals[perf.Counter(c)] = uint64(src.Intn(50000))
			for s := 0; s < 64; s++ {
				m.Series.Samples[perf.Counter(c)] = append(
					m.Series.Samples[perf.Counter(c)], float64(src.Intn(2000)))
			}
		}
		sm.Workloads = append(sm.Workloads, m)
	}
	return sm
}

// FullRescore is the batch baseline of the incremental A/B pair: one op
// scores the fixed measurement from scratch — the cost a streaming
// client would pay per chunk without the incremental engine.
func FullRescore(b *testing.B) {
	sm := rescoreMeasurement()
	opts := metric.DefaultOptions()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := metric.ScoreSuites(ctx, []*perf.SuiteMeasurement{sm}, opts, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// IncrRescore measures the steady state of the streaming path: one op
// appends a sample chunk (two series samples per counter) to one
// workload and rescores. The counter matrix is untouched, so the
// cluster/coverage/spread results stay memoized and only the touched
// row's DTW pair distances recompute.
func IncrRescore(b *testing.B) { incrAppend(b, false) }

// IncrRescoreTotals is the worst-case chunk: a counter totals delta
// rides along with the samples, so the normalization bounds, the
// distance matrix and every totals-derived metric (the full k-means
// sweep included) recompute alongside the DTW row.
func IncrRescoreTotals(b *testing.B) { incrAppend(b, true) }

// incrAppend starts from a run already holding the fixed measurement
// with every artifact cached; one op appends a chunk to one workload
// and rescores. withTotals selects whether the chunk carries a counter
// totals delta alongside its series samples.
func incrAppend(b *testing.B, withTotals bool) {
	run, err := metric.NewIncrementalRun(
		[]*perf.SuiteMeasurement{rescoreMeasurement()}, metric.DefaultOptions(), nil)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	if _, err := run.Scores(ctx); err != nil {
		b.Fatal(err)
	}
	names := make([]string, len(run.Measurement(0).Workloads))
	for i := range names {
		names[i] = run.Measurement(0).Workloads[i].Workload
	}
	src := rng.New(7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var delta perf.Values
		tail := &perf.TimeSeries{Interval: 1000}
		for c := 0; c < int(perf.NumCounters); c++ {
			if withTotals {
				delta[perf.Counter(c)] = uint64(src.Intn(500))
			}
			tail.Samples[perf.Counter(c)] = []float64{
				float64(src.Intn(2000)), float64(src.Intn(2000))}
		}
		if err := run.AppendSamples(0, names[i%len(names)], delta, tail); err != nil {
			b.Fatal(err)
		}
		if _, err := run.Scores(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// MachineStep measures the per-instruction cost of the machine's
// execution loop itself — block fetch, cache/TLB lookups, PMU accounting —
// with a deterministic generator whose own cost is a few ALU operations.
// One op is one instruction.
func MachineStep(b *testing.B) {
	m, err := uarch.NewMachine(uarch.DefaultMachineConfig())
	if err != nil {
		b.Fatal(err)
	}
	n := uint64(b.N)
	b.ResetTimer()
	if _, err := m.Run(NewStrideProg(n), n); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(1, InstrMetric)
}

// CacheAccess measures one probe of a 32 KiB 8-way cache over a seeded
// 4 MiB address stream.
func CacheAccess(b *testing.B) {
	c, err := uarch.NewCache(uarch.CacheConfig{Name: "b", SizeB: 32 << 10, LineB: 64, Ways: 8})
	if err != nil {
		b.Fatal(err)
	}
	addrs := seededAddrs(1 << 22)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(addrs[i&4095])
	}
}

// TLBTranslate measures one translation through the default two-level
// TLB over a seeded 1 GiB address stream.
func TLBTranslate(b *testing.B) {
	tlb, err := uarch.NewTLB(uarch.DefaultTLBConfig())
	if err != nil {
		b.Fatal(err)
	}
	addrs := seededAddrs(1 << 30)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tlb.Translate(addrs[i&4095])
	}
}

// seededAddrs draws 4096 addresses below limit from a fixed seed.
func seededAddrs(limit int) []uint64 {
	src := rng.New(1)
	addrs := make([]uint64, 4096)
	for i := range addrs {
		addrs[i] = uint64(src.Intn(limit))
	}
	return addrs
}

// StrideProg is a minimal deterministic program for machine-level tests
// and benchmarks: a fixed repeating kind pattern with striding loads and
// alternating branches, no RNG in the emission path.
type StrideProg struct {
	n, limit uint64
}

// NewStrideProg returns a StrideProg that emits limit instructions.
func NewStrideProg(limit uint64) *StrideProg { return &StrideProg{limit: limit} }

func (p *StrideProg) Name() string { return "stride" }

// NextBlock implements uarch.Program.
func (p *StrideProg) NextBlock(b *uarch.Block, n int) int {
	b.Reset(n)
	if rem := p.limit - p.n; rem < uint64(n) {
		n = int(rem)
	}
	for k := 0; k < n; k++ {
		i, pos := p.n+uint64(k), uint32(k)
		switch i % 8 {
		case 0, 3:
			b.Mem = append(b.Mem, uarch.MemRef{Addr: i * 24, Pos: pos})
		case 5:
			b.Mem = append(b.Mem, uarch.MemRef{Addr: i * 40, Pos: pos, Store: true})
		case 6:
			b.Branches = append(b.Branches, uarch.BranchRef{PC: 0x400000 + i%32*4, Pos: pos, Taken: i%3 != 0})
		}
	}
	p.n += uint64(n)
	return n
}
