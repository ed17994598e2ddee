package main

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"time"

	"perspector"
	"perspector/internal/cache"
	"perspector/internal/mat"
	"perspector/internal/metric"
	"perspector/internal/par"
	"perspector/internal/perf"
	"perspector/internal/rng"
	"perspector/internal/suites"
	"perspector/internal/uarch"
	"perspector/internal/workload"
)

// compareStack runs compare_cold and compare_warm. One op measures the
// six stock suites at the default config (cold: simulated under a fresh
// seed; warm: read back from the measurement cache) and scores them
// under joint normalization, the way `perspector compare` does.
type compareStack struct {
	e    *env
	warm bool

	// warm only: the cache the set-up filled, the config and keys it
	// was filled under, and the measurement it stored.
	store *cache.Store
	cfg   suites.Config
	keys  []string
	meas  []*perf.SuiteMeasurement

	phases [][]compareOp
	// decomp holds the traced run's Compile+Machine.Run replay of one
	// op, checked against the op's measurement in verify.
	decomp []decompResult
}

// compareOp is one completed op's inputs and outputs.
type compareOp struct {
	cfg    suites.Config
	group  string
	meas   []*perf.SuiteMeasurement
	scores []metric.Scores
}

type decompResult struct {
	name  string
	match bool
}

// groups is the event-group rotation of compare_warm (Fig. 3a–c).
var groups = []string{"all", "llc", "tlb"}

// derive draws the i-th seed of a named input stream from the workload
// seed, so every input of a run is a function of --seed alone.
func derive(seed uint64, stream string, i int) uint64 {
	h := uint64(0xcbf29ce484222325)
	for j := 0; j < len(stream); j++ {
		h ^= uint64(stream[j])
		h *= 0x100000001b3
	}
	return rng.ChildSeed(seed^h, i) | 1 // never 0: jobs read seed 0 as "default"
}

func setupCompareCold(ctx context.Context, e *env) (stack, error) {
	// Warm the machine pool and the code paths with one small compare,
	// as any long-lived process would have; it is not a timed op.
	cfg := suites.DefaultConfig()
	cfg.Instructions, cfg.Samples, cfg.Seed = 20_000, 20, derive(e.seed, "warmup", 0)
	warm, err := suites.RunAllContext(ctx, cfg)
	if err != nil {
		return nil, err
	}
	if _, err := metric.ScoreSuites(ctx, warm, metric.DefaultOptions(), nil); err != nil {
		return nil, err
	}
	return &compareStack{e: e}, nil
}

// setupCompareWarm fills a measurement cache with the six stock suites
// at the default config — what `perspector compare` caches on its first
// run. The cached data stays the same for every workload seed (scoring
// cost depends on the data, and one config per run would turn that into
// run-to-run spread); the seed orders the ops' event groups.
func setupCompareWarm(ctx context.Context, e *env) (stack, error) {
	cfg := suites.DefaultConfig()
	st, err := cache.Open(filepath.Join(e.dir, fmt.Sprintf("cache-%d", time.Now().UnixNano())))
	if err != nil {
		return nil, err
	}
	sms, err := suites.RunAllContext(ctx, cfg)
	if err != nil {
		return nil, err
	}
	s := &compareStack{e: e, warm: true, store: st, cfg: cfg, meas: sms}
	for i, suite := range suites.All(cfg) {
		key := cache.Key(suite, cfg)
		if err := st.Put(key, sms[i]); err != nil {
			return nil, err
		}
		s.keys = append(s.keys, key)
	}
	e.digests = append(e.digests, digest(sms))
	return s, nil
}

func (s *compareStack) close() {}

func (s *compareStack) run(ctx context.Context, deadline time.Time, rec *recorder) (*phase, error) {
	p := newPhase("compare", "compare")
	var ops []compareOp
	var instr uint64
	var simTime time.Duration
	hits0, misses0 := s.store.Hits(), s.store.Misses()
	var runErr error
	timed(p, rec, func() {
		// One client in a closed loop: a compare op already uses every
		// core through the engine's worker pool.
		closedLoop(1, deadline, func(_, i int) {
			if runErr != nil {
				return
			}
			op, d, root, err := s.op(ctx, i, rec)
			if err != nil {
				runErr = err
				p.done("compare", opFailed, d, root)
				return
			}
			p.done("compare", opOK, d, root)
			if s.warm && len(ops) > 0 {
				// Warm ops all read the same measurement; keeping every
				// decoded copy would grow the heap by ~14 MB per op.
				ops[len(ops)-1].meas = nil
			}
			ops = append(ops, op)
			if !s.warm {
				instr += stockInstructions(op.cfg)
				simTime += d
			}
		})
	})
	if runErr != nil {
		return nil, runErr
	}
	s.phases = append(s.phases, ops)
	if !s.warm && simTime > 0 {
		p.extra.set("sim_minstr_per_s", "Minstr/s", float64(instr)/1e6/simTime.Seconds())
	}
	if s.warm {
		p.extra.set("cache.hits", "count", float64(s.store.Hits()-hits0))
		p.extra.set("cache.misses", "count", float64(s.store.Misses()-misses0))
	}
	return p, nil
}

// op runs compare op i. The op's own spans (suites.run per suite or
// cache.get per suite, metric.score around the scoring engine, and one
// span per metric stage inside it) hang under the returned root.
func (s *compareStack) op(ctx context.Context, i int, rec *recorder) (compareOp, time.Duration, int, error) {
	op := compareOp{group: "all"}
	opts := metric.DefaultOptions()
	start := time.Now()
	root := rec.begin("compare", -1, 0)
	defer rec.end(root)
	if s.warm {
		op.cfg = s.cfg
		op.group = groups[(i+int(s.e.seed%uint64(len(groups))))%len(groups)]
		g, err := perf.GroupByName(op.group)
		if err != nil {
			return op, 0, root, err
		}
		opts.Counters = g.Counters
		for _, key := range s.keys {
			id := rec.begin("cache.get", root, 1)
			m, ok := s.store.Get(key)
			rec.end(id)
			if !ok {
				return op, time.Since(start), root, fmt.Errorf("compare_warm: cache miss on %s", key)
			}
			op.meas = append(op.meas, m)
		}
	} else {
		op.cfg = suites.DefaultConfig()
		op.cfg.Seed = derive(s.e.seed, "cold", i)
		for _, suite := range suites.All(op.cfg) {
			id := rec.begin("suites.run", root, 1)
			m, err := suites.RunContext(ctx, suite, op.cfg)
			rec.end(id)
			if err != nil {
				return op, time.Since(start), root, err
			}
			op.meas = append(op.meas, m)
		}
	}
	id := rec.begin("metric.score", root, 1)
	scores, err := metric.ScoreSuites(ctx, op.meas, opts, timedRegistry(rec, id))
	rec.end(id)
	op.scores = scores
	return op, time.Since(start), root, err
}

// stockInstructions is the simulated instruction count of one cold op:
// every workload of the six stock suites at its budget under cfg.
func stockInstructions(cfg suites.Config) uint64 {
	var n uint64
	for _, suite := range suites.All(cfg) {
		for _, spec := range suite.Specs {
			n += spec.Instructions
		}
	}
	return n
}

// timedMetric records a span around one metric stage's Compute.
type timedMetric struct {
	metric.Metric
	rec    *recorder
	parent int
}

func (t timedMetric) Compute(ctx context.Context, a *metric.Artifacts) (float64, error) {
	id := t.rec.begin("metric."+t.Name(), t.parent, 2)
	defer t.rec.end(id)
	return t.Metric.Compute(ctx, a)
}

// timedRegistry wraps the default metrics in timedMetric; without a
// recorder it returns nil, the engine's own default registry.
func timedRegistry(rec *recorder, parent int) *metric.Registry {
	if rec == nil {
		return nil
	}
	var ms []metric.Metric
	for _, m := range metric.DefaultRegistry().Metrics() {
		ms = append(ms, timedMetric{Metric: m, rec: rec, parent: parent})
	}
	reg, err := metric.NewRegistry(ms...)
	if err != nil {
		panic(err) // the default registry has unique names
	}
	return reg
}

func (s *compareStack) layers(ctx context.Context, p *phase, out metricSet) error {
	ops := s.phases[len(s.phases)-1]
	if len(ops) == 0 {
		return fmt.Errorf("traced phase completed no op")
	}
	st := spanStats(p, "compare")
	for _, name := range []string{"trend", "cluster", "coverage", "spread"} {
		out.set("metric."+name+"_ms", "ms", median(st["metric."+name]))
	}
	// Pairwise DTW work of one op: every workload pair of each suite, per
	// counter of the op's event group (the last op's suite sizes stand
	// for all: every op of a phase scores the same suites).
	last := ops[len(ops)-1]
	n := 0
	for _, m := range last.meas {
		w := len(m.Workloads)
		n += w * (w - 1) / 2
	}
	var pairs []float64
	for _, op := range ops {
		g, _ := perf.GroupByName(op.group)
		pairs = append(pairs, float64(n*len(g.Counters)))
	}
	out.set("metric.dtw_pairs", "count", median(pairs))

	opts := metric.DefaultOptions()
	g, _ := perf.GroupByName(last.group)
	opts.Counters = g.Counters
	if err := jointNormProbe(last.meas, opts, out); err != nil {
		return err
	}
	if s.warm {
		out.set("cache.get_ms", "ms", median(st["cache.get"]))
		hits, misses := p.extra["cache.hits"].Value, p.extra["cache.misses"].Value
		if hits+misses > 0 {
			out.set("cache.hit_ratio", "ratio", hits/(hits+misses))
		}
		return nil
	}
	out.set("suites.run_ms", "ms", median(st["suites.run"]))
	pmuRatios(last, out)
	if err := primitives(s.e.seed, out); err != nil {
		return err
	}
	return s.decompose(ctx, last, p, out)
}

// jointNormProbe times metric.JointNormalize on one op's counter
// matrices (the joint-normalization stage of the op's scoring).
func jointNormProbe(sms []*perf.SuiteMeasurement, opts metric.Options, out metricSet) error {
	var xs []float64
	for rep := 0; rep < 21; rep++ {
		raws := make([]*mat.Matrix, len(sms))
		for i, m := range sms {
			raws[i] = metric.NewArtifacts(m, opts).Raw()
		}
		start := time.Now()
		if _, err := metric.JointNormalize(raws); err != nil {
			return err
		}
		xs = append(xs, ms(time.Since(start)))
	}
	out.set("metric.joint_norm_ms", "ms", median(xs))
	return nil
}

// pmuRatios reports the simulated machine's event ratios over every
// workload of one op. They describe the simulated programs, not the
// host: a simulator-speed change must leave them identical.
func pmuRatios(op compareOp, out metricSet) {
	var t perf.Values
	for _, m := range op.meas {
		for _, w := range m.Workloads {
			for c := range t {
				t[c] += w.Totals[c]
			}
		}
	}
	instr := float64(stockInstructions(op.cfg))
	ratio := func(a, b perf.Counter) float64 {
		if t[b] == 0 {
			return 0
		}
		return float64(t[a]) / float64(t[b])
	}
	out.set("uarch.llc_load_miss_ratio", "ratio", ratio(perf.LLCLoadMisses, perf.LLCLoads))
	out.set("uarch.dtlb_load_miss_ratio", "ratio", ratio(perf.DTLBLoadMisses, perf.DTLBLoads))
	out.set("uarch.branch_miss_ratio", "ratio", ratio(perf.BranchMisses, perf.BranchInstructions))
	out.set("uarch.sim_cpi", "cycles/instr", float64(t[perf.CPUCycles])/instr)
}

// primitives times the simulator's two hottest probes over a seeded
// address stream: an L1D cache access and a dTLB translation.
func primitives(seed uint64, out metricSet) error {
	mc := uarch.DefaultMachineConfig()
	src := rng.New(derive(seed, "addresses", 0))
	addrs := make([]uint64, 4096)
	for i := range addrs {
		addrs[i] = src.Uint64() & (1<<30 - 1)
	}
	c, err := uarch.NewCache(mc.L1)
	if err != nil {
		return err
	}
	out.set("uarch.cache_access_ns", "ns", perCall(func(i int) { c.Access(addrs[i&4095] & (1<<22 - 1)) }))
	t, err := uarch.NewTLB(mc.TLB)
	if err != nil {
		return err
	}
	out.set("uarch.tlb_translate_ns", "ns", perCall(func(i int) { t.Translate(addrs[i&4095]) }))
	return nil
}

// perCall is the median over repetitions of ns per call of f.
func perCall(f func(i int)) float64 {
	const n = 1 << 21
	var xs []float64
	for rep := 0; rep < 7; rep++ {
		start := time.Now()
		for i := 0; i < n; i++ {
			f(i)
		}
		xs = append(xs, float64(time.Since(start))/n)
	}
	return median(xs)
}

// decompose replays one traced op's workloads one by one outside the
// engine — workload.Compile, Program.NextBatch drained alone, then
// Compile again and Machine.Run — and splits simulator time into
// instruction emission and machine stepping. Each replayed measurement
// must equal the op's (checked in verify).
func (s *compareStack) decompose(ctx context.Context, op compareOp, p *phase, out metricSet) error {
	var emit, runT, host time.Duration
	var instr uint64
	buf := make([]uarch.Instr, 4096)
	var m *uarch.Machine
	for si, suite := range suites.All(op.cfg) {
		for wi, spec := range suite.Specs {
			if err := ctx.Err(); err != nil {
				return err
			}
			prog, err := workload.Compile(spec)
			if err != nil {
				return err
			}
			start := time.Now()
			for prog.NextBatch(buf) == len(buf) {
			}
			emit += time.Since(start)

			mc := op.cfg.Machine
			mc.SampleInterval = max(spec.Instructions/uint64(op.cfg.Samples), 1)
			mc.CountersOnly = op.cfg.TotalsOnly
			start = time.Now()
			prog, err = workload.Compile(spec)
			if err != nil {
				return err
			}
			if m == nil || !m.Reconfigure(mc) {
				if m, err = uarch.NewMachine(mc); err != nil {
					return err
				}
			}
			runStart := time.Now()
			meas, err := m.Run(prog, spec.Instructions)
			runT += time.Since(runStart)
			host += time.Since(start)
			if err != nil {
				return err
			}
			instr += spec.Instructions
			s.decomp = append(s.decomp, decompResult{
				name:  suite.Name + "/" + spec.Name,
				match: sameMeasurement(meas, &op.meas[si].Workloads[wi]),
			})
		}
	}
	out.set("workload.emit_ns_per_instr", "ns", float64(emit)/float64(instr))
	out.set("uarch.step_ns_per_instr", "ns", float64(runT-emit)/float64(instr))
	// busy_frac compares per-workload host time with the wall time the
	// suites took on the worker pool, using the last traced op's spans.
	kids := children(p.spans)
	var wall time.Duration
	for _, sp := range subtree(p.spans, kids, p.ops[len(p.ops)-1].root)[1:] {
		if sp.name == "suites.run" {
			wall += sp.end - sp.start
		}
	}
	if wall > 0 {
		out.set("suites.busy_frac", "ratio", host.Seconds()/(wall.Seconds()*float64(par.Workers())))
	}
	return nil
}

func (s *compareStack) verify(ctx context.Context, c *checker) error {
	if s.warm {
		return s.verifyWarm(ctx, c)
	}
	base := s.phases[0]
	if len(base) == 0 {
		c.expect(false, "compare_cold: no op completed")
		return nil
	}
	// One seed-derived op goes through the public API: one of its suites
	// is re-simulated (its PMU totals must repeat), and the op's
	// measurements, with that suite swapped for the re-simulated copy, are
	// scored by CompareContext (the scores must match bit for bit).
	i := int(derive(s.e.seed, "check", 0) % uint64(len(base)))
	op := base[i]
	j := int(derive(s.e.seed, "check", 1) % uint64(len(op.meas)))
	suite, err := perspector.SuiteByName(op.meas[j].Suite, op.cfg)
	if err != nil {
		return err
	}
	again, err := perspector.MeasureContext(ctx, suite, op.cfg)
	if err != nil {
		return err
	}
	c.expect(sameSuites(op.meas[j:j+1], []*perf.SuiteMeasurement{again}),
		"compare_cold op %d: PMU totals of %s differ across repetitions of seed %d", i, suite.Name, op.cfg.Seed)
	sms := append([]*perf.SuiteMeasurement(nil), op.meas...)
	sms[j] = again
	ref, err := perspector.CompareContext(ctx, sms, perspector.DefaultOptions())
	if err != nil {
		return err
	}
	c.op(sameScores(op.scores, ref), "compare_cold op %d: scores differ from CompareContext:\n got %s\nwant %s",
		i, hexScores(op.scores), hexScores(ref))
	// A traced phase repeats the untraced phase's seeds op for op.
	for _, later := range s.phases[1:] {
		for j := 0; j < len(later) && j < len(base); j++ {
			c.op(sameScores(later[j].scores, base[j].scores) && sameSuites(later[j].meas, base[j].meas),
				"compare_cold op %d: traced repetition differs", j)
		}
	}
	for _, d := range s.decomp {
		c.expect(d.match, "Compile+Machine.Run replay of %s differs from suites.RunContext", d.name)
	}
	return nil
}

func (s *compareStack) verifyWarm(ctx context.Context, c *checker) error {
	for _, d := range s.e.digests[1:] {
		c.expect(d == s.e.digests[0], "compare_warm: PMU totals differ across set-ups of one seed")
	}
	for i, key := range s.keys {
		m, ok := s.store.Get(key)
		c.expect(ok && sameSuites([]*perf.SuiteMeasurement{m}, []*perf.SuiteMeasurement{s.meas[i]}),
			"compare_warm: cache round trip of suite %d is not bit-exact", i)
	}
	// One seed-derived op per event group against the direct engine.
	for _, ops := range s.phases {
		for gi, g := range groups {
			var idx []int
			for i, op := range ops {
				if op.group == g {
					idx = append(idx, i)
				}
			}
			if len(idx) == 0 {
				continue
			}
			i := idx[derive(s.e.seed, "check", gi)%uint64(len(idx))]
			opts := perspector.DefaultOptions()
			counters, err := perspector.EventGroup(g)
			if err != nil {
				return err
			}
			opts.Counters = counters
			ref, err := perspector.CompareContext(ctx, s.meas, opts)
			if err != nil {
				return err
			}
			c.op(sameScores(ops[i].scores, ref), "compare_warm op %d (group %s): scores differ from CompareContext:\n got %s\nwant %s",
				i, g, hexScores(ops[i].scores), hexScores(ref))
		}
	}
	return nil
}

// sameScores compares score lists bit for bit.
func sameScores(a, b []metric.Scores) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Suite != b[i].Suite {
			return false
		}
		for _, pair := range [][2]float64{
			{a[i].Cluster, b[i].Cluster}, {a[i].Trend, b[i].Trend},
			{a[i].Coverage, b[i].Coverage}, {a[i].Spread, b[i].Spread},
		} {
			if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
				return false
			}
		}
	}
	return true
}

// hexScores renders scores as hex floats, the form a bit-level
// mismatch is readable in.
func hexScores(ss []metric.Scores) string {
	out := ""
	for _, s := range ss {
		out += fmt.Sprintf("%s{%x %x %x %x} ", s.Suite, s.Cluster, s.Trend, s.Coverage, s.Spread)
	}
	return out
}

// sameSuites compares suite measurements: totals, sample interval and
// every series sample, bit for bit.
func sameSuites(a, b []*perf.SuiteMeasurement) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Suite != b[i].Suite || len(a[i].Workloads) != len(b[i].Workloads) {
			return false
		}
		for w := range a[i].Workloads {
			if !sameMeasurement(&a[i].Workloads[w], &b[i].Workloads[w]) {
				return false
			}
		}
	}
	return true
}

func sameMeasurement(a, b *perf.Measurement) bool {
	if a.Workload != b.Workload || a.Totals != b.Totals || a.Series.Interval != b.Series.Interval {
		return false
	}
	for c := range a.Series.Samples {
		x, y := a.Series.Samples[c], b.Series.Samples[c]
		if len(x) != len(y) {
			return false
		}
		for k := range x {
			if math.Float64bits(x[k]) != math.Float64bits(y[k]) {
				return false
			}
		}
	}
	return true
}

// digest renders a measurement's totals and series as one comparable
// string, for repetition checks across set-ups.
func digest(sms []*perf.SuiteMeasurement) string {
	h := uint64(0xcbf29ce484222325)
	mix := func(v uint64) {
		h ^= v
		h *= 0x100000001b3
	}
	for _, m := range sms {
		for _, w := range m.Workloads {
			for _, v := range w.Totals {
				mix(v)
			}
			for _, s := range w.Series.Samples {
				for _, x := range s {
					mix(math.Float64bits(x))
				}
			}
		}
	}
	return fmt.Sprintf("%016x", h)
}
