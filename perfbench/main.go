// Command perfbench is perspector's repository benchmark. One process
// runs one named workload against the library and the perspectord
// stack, measures it for a fixed time, checks every output it can
// against the direct engine, and prints the metrics BENCHMARK.json
// declares as the last line of standard output:
//
//	bash perfbench/run.sh --workload compare_cold --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics (tracing off). --trace 1
// first repeats the untraced phase, then runs a traced phase that
// records a span around every call into a layer, times each layer's
// primitives in isolation, writes the spans as a Chrome trace under
// .bench_build/, and reports the per-layer metrics. Lines before the
// JSON line are a human-readable table of every metric the run
// computed, including the workload-specific ones BENCHMARK.json cannot
// declare for every workload.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"
)

// processStart anchors setup_s: the first set-up is timed from here.
var processStart = time.Now()

// A run sets its workload up at least minSetups times, and more (up to
// maxSetups) while the set-ups so far took under setupBudget; setup_s is
// the median. Cheap set-ups get more repetitions, which steadies a
// median of millisecond-scale timings.
const (
	minSetups   = 3
	maxSetups   = 9
	setupBudget = 2 * time.Second
)

// buildDir holds everything a run writes, relative to the checkout root.
const buildDir = ".bench_build"

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// env is one run's configuration.
type env struct {
	workload string
	seed     uint64
	seconds  time.Duration
	dir      string // scratch directory, removed when the run ends
	stderr   io.Writer
	// digests collects a fingerprint of each set-up's measurement, for
	// workloads whose set-up simulates (PMU totals must repeat).
	digests []string
}

// stack is a set-up workload: the system under test plus its clients.
type stack interface {
	// run drives one timed phase until deadline. rec is nil when tracing
	// is off.
	run(ctx context.Context, deadline time.Time, rec *recorder) (*phase, error)
	// layers computes the per-layer metrics of a traced phase, timing
	// layer primitives in isolation where the phase cannot.
	layers(ctx context.Context, p *phase, out metricSet) error
	// verify checks the outputs of every phase run so far.
	verify(ctx context.Context, c *checker) error
	close()
}

// workloads maps each BENCHMARK.json workload to its set-up function.
var workloads = map[string]func(ctx context.Context, e *env) (stack, error){
	"compare_cold": setupCompareCold,
	"compare_warm": setupCompareWarm,
	"serve_mixed":  setupServe,
	"fleet_jobs":   setupFleet,
}

// phase is what one timed phase measured.
type phase struct {
	wall      time.Duration
	completed int
	tally     tally
	// lat holds op latencies by class ("compare", "job", "replay",
	// "chunk"); headline names the class behind op_p50_ms.
	lat      map[string]*latencies
	headline string
	// ops lists the traced phase's op roots for span analysis.
	ops   []tracedOp
	spans []span
	// runtime counters over the phase.
	allocBytes    float64
	gcCPU, allCPU float64
	extra         metricSet // workload-specific end-to-end metrics
	mu            sync.Mutex
}

// tracedOp is one op's root span and class.
type tracedOp struct {
	root  int
	class string
}

func newPhase(headline string, classes ...string) *phase {
	p := &phase{lat: make(map[string]*latencies), headline: headline, extra: metricSet{}}
	for _, c := range classes {
		p.lat[c] = &latencies{}
	}
	return p
}

// done records one op: its outcome, its latency (a miss when not ok) in
// class, and, when traced, its root span.
func (p *phase) done(class string, o outcome, d time.Duration, root int) {
	p.tally.record(o)
	p.mu.Lock()
	defer p.mu.Unlock()
	if o == opOK {
		p.completed++
		p.lat[class].add(d)
	} else {
		p.lat[class].miss()
	}
	if root >= 0 {
		p.ops = append(p.ops, tracedOp{root: root, class: class})
	}
}

// timed runs body as a timed phase, sampling the runtime counters
// around it.
func timed(p *phase, rec *recorder, body func()) {
	before := readRuntime()
	start := time.Now()
	body()
	p.wall = time.Since(start)
	after := readRuntime()
	p.allocBytes = after[0] - before[0]
	p.gcCPU = after[1] - before[1]
	p.allCPU = after[2] - before[2]
	p.spans = rec.snapshot()
}

// readRuntime samples heap allocation bytes, GC CPU seconds and total
// CPU seconds from runtime/metrics.
func readRuntime() [3]float64 {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	var out [3]float64
	for i := range s {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			out[i] = s[i].Value.Float64()
		}
	}
	return out
}

// metricVal is one reported metric.
type metricVal struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metricVal

func (m metricSet) set(name, unit string, v float64) { m[name] = metricVal{Value: v, Unit: unit} }

// result is the JSON line the run ends with.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// benchSpec is the part of BENCHMARK.json the run reads: which metrics
// to report, under which unit.
type benchSpec struct {
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (see BENCHMARK.json)")
	seed := fs.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Int("seconds", 10, "length of one timed phase")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	setup, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %s), --seconds >= 1, --trace 0|1\n", workloadNames())
		return 2
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		fmt.Fprintln(stderr, "perfbench: BENCHMARK.json:", err)
		return 1
	}
	dir := filepath.Join(buildDir, fmt.Sprintf("run-%s-%d", *name, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	e := &env{workload: *name, seed: *seed, seconds: time.Duration(*seconds) * time.Second, dir: dir, stderr: stderr}
	res, table, err := execute(context.Background(), e, setup, *trace == 1, spec)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprint(stdout, table)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// execute sets the workload up repeatedly (keeping the last stack), runs
// the timed phase(s), checks correctness, and assembles the result and
// the text table.
func execute(ctx context.Context, e *env, setup func(context.Context, *env) (stack, error), traced bool, spec benchSpec) (*result, string, error) {
	var setups []float64
	var st stack
	for spent := 0.0; ; {
		start := time.Now()
		if len(setups) == 0 {
			start = processStart
		}
		s, err := setup(ctx, e)
		if err != nil {
			return nil, "", fmt.Errorf("set-up: %w", err)
		}
		d := time.Since(start).Seconds()
		setups, spent = append(setups, d), spent+d
		if len(setups) >= maxSetups || (len(setups) >= minSetups && spent >= setupBudget.Seconds()) {
			st = s
			break
		}
		s.close()
	}
	defer st.close()

	all := metricSet{}
	all.set("setup_s", "s", median(setups))
	all.set("setup_n", "count", float64(len(setups)))
	base, err := st.run(ctx, time.Now().Add(e.seconds), nil)
	if err != nil {
		return nil, "", err
	}
	endToEnd(base, all)
	want := spec.EndToEnd
	var tallies = []*tally{&base.tally}
	if traced {
		rec := newRecorder()
		tp, err := st.run(ctx, time.Now().Add(e.seconds), rec)
		if err != nil {
			return nil, "", err
		}
		tallies = append(tallies, &tp.tally)
		perLayer(tp, all)
		if b := opsPerSec(base); b > 0 {
			all.set("bench.trace_overhead_frac", "ratio", 1-opsPerSec(tp)/b)
		}
		if err := st.layers(ctx, tp, all); err != nil {
			return nil, "", err
		}
		path := filepath.Join(buildDir, fmt.Sprintf("trace-%s-%d.json", e.workload, e.seed))
		if err := writeTraceFile(path, tp.spans); err != nil {
			return nil, "", err
		}
		fmt.Fprintf(e.stderr, "perfbench: %d spans written to %s\n", len(tp.spans), path)
		want = spec.PerLayer
	}

	c := &checker{w: e.stderr}
	checkStart := time.Now()
	if err := st.verify(ctx, c); err != nil {
		return nil, "", err
	}
	fmt.Fprintf(e.stderr, "perfbench: %d correctness checks in %.1fs\n", c.checks, time.Since(checkStart).Seconds())
	// Wrong outputs count against the ops of the untraced phase, whose
	// outputs the checks sample.
	base.tally.addWrong(c.wrongOps)
	all.set("failed_frac", "ratio", base.tally.failedFrac())

	res := &result{Correct: c.mismatches == 0, Metrics: metricSet{}}
	for _, t := range tallies {
		res.Attempted += t.attempted
		res.Failed += t.bad()
	}
	for _, m := range want {
		v, ok := all[m.Name]
		switch {
		case !ok && traced:
			v = metricVal{Value: 0, Unit: m.Unit} // layer not on this workload's path
		case !ok:
			return nil, "", fmt.Errorf("metric %s was not measured", m.Name)
		case v.Unit != m.Unit:
			return nil, "", fmt.Errorf("metric %s measured in %s, BENCHMARK.json says %s", m.Name, v.Unit, m.Unit)
		}
		res.Metrics[m.Name] = metricVal{Value: finite(v.Value), Unit: m.Unit}
	}
	return res, table(e, all, c), nil
}

// endToEnd derives the end-to-end metrics of an untraced phase.
func endToEnd(p *phase, out metricSet) {
	out.set("ops_per_s", "1/s", opsPerSec(p))
	out.set("op_p50_ms", "ms", median(*p.lat[p.headline]))
	if p.completed > 0 {
		out.set("alloc_mb_per_op", "MB", p.allocBytes/1e6/float64(p.completed))
	}
	classes := make([]string, 0, len(p.lat))
	for c := range p.lat {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		xs := *p.lat[c]
		if len(xs) == 0 {
			continue
		}
		out.set(c+"_p50_ms", "ms", median(xs))
		out.set(c+"_n", "count", float64(len(xs)))
		if q, v, ok := tail(xs); ok {
			out.set(fmt.Sprintf("%s_p%g_ms", c, q), "ms", v)
		}
		if len(xs)-rank(len(xs), 90) >= minBeyond {
			out.set(c+"_p90_ms", "ms", percentile(xs, 90))
		}
	}
	for k, v := range p.extra {
		out[k] = v
	}
}

func opsPerSec(p *phase) float64 {
	if p.wall <= 0 {
		return 0
	}
	return float64(p.completed) / p.wall.Seconds()
}

// perLayer derives the span-based metrics every workload shares: the
// residual, each layer's share of op time along the blocking path, and
// the GC's share of CPU.
func perLayer(p *phase, out metricSet) {
	if p.allCPU > 0 {
		out.set("runtime.gc_cpu_frac", "ratio", p.gcCPU/p.allCPU)
	}
	kids := children(p.spans)
	var residuals []float64
	shares := map[string]time.Duration{}
	var total time.Duration
	for _, op := range p.ops {
		tree := subtree(p.spans, kids, op.root)
		self, residual := attribute(tree)
		residuals = append(residuals, ms(residual))
		total += tree[0].end - tree[0].start
		for name, d := range self {
			shares[layerOf(name)] += d
		}
		shares["unattributed"] += residual
	}
	if len(residuals) > 0 {
		out.set("bench.unattributed_ms", "ms", median(residuals))
	}
	if total > 0 {
		for layer, d := range shares {
			out.set("bench.share."+layer, "ratio", float64(d)/float64(total))
		}
	}
}

// layerOf maps a span name to the layer its self time is charged to:
// suite runs are the simulator (suites, workload and uarch together).
func layerOf(span string) string {
	layer, _, _ := strings.Cut(span, ".")
	if layer == "suites" {
		return "sim"
	}
	return layer
}

// spanStats gives, per op of class, the summed duration of each span
// name in the op's tree, as a list per name (one entry per op that
// recorded it, in ms).
func spanStats(p *phase, class string) map[string][]float64 {
	kids := children(p.spans)
	out := map[string][]float64{}
	for _, op := range p.ops {
		if op.class != class {
			continue
		}
		for name, d := range durations(subtree(p.spans, kids, op.root)) {
			out[name] = append(out[name], ms(d))
		}
	}
	return out
}

func writeTraceFile(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeTrace(f, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// finite keeps a value JSON-encodable: a latency that is +Inf (the
// median op was refused) reports as the largest float.
func finite(v float64) float64 {
	switch {
	case math.IsNaN(v):
		return 0
	case math.IsInf(v, 1):
		return math.MaxFloat64
	case math.IsInf(v, -1):
		return -math.MaxFloat64
	}
	return v
}

// table renders every computed metric, sorted by name.
func table(e *env, all metricSet, c *checker) string {
	names := make([]string, 0, len(all))
	for n := range all {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	fmt.Fprintf(&b, "# perfbench workload=%s seed=%d seconds=%g gomaxprocs=%d\n",
		e.workload, e.seed, e.seconds.Seconds(), runtime.GOMAXPROCS(0))
	for _, n := range names {
		fmt.Fprintf(&b, "%-36s %16.6g %s\n", n, all[n].Value, all[n].Unit)
	}
	fmt.Fprintf(&b, "# correctness: %d checks, %d mismatches\n", c.checks, c.mismatches)
	return b.String()
}

// checker counts correctness checks. A mismatch on an op's output also
// counts that op as wrong in failed_frac.
type checker struct {
	w                            io.Writer
	checks, mismatches, wrongOps int
}

// expect records one check of a property that is not an op output.
func (c *checker) expect(ok bool, format string, args ...any) {
	c.checks++
	if !ok {
		c.mismatches++
		fmt.Fprintf(c.w, "perfbench: MISMATCH: "+format+"\n", args...)
	}
}

// op records one check of an op's output.
func (c *checker) op(ok bool, format string, args ...any) {
	c.expect(ok, format, args...)
	if !ok {
		c.wrongOps++
	}
}
