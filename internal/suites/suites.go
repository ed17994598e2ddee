// Package suites models the six benchmark suites of the paper's Table III
// as synthetic workload specs for the uarch simulator. Each model is one
// embedded spec document, specs/<name>.json (see registry.go, and
// DESIGN.md "Stock suite models" for the modelling rationale). The
// models encode each suite's published character rather than its code:
// Ligra's workloads share a graph-loading framework and differ only in
// the compute kernel; LMbench's microbenchmarks each hammer one subsystem
// to an extreme; PARSEC and SGXGauge are phase-rich real-world
// applications; Nbench is a set of steady compute kernels; SPEC'17 spans
// 43 diverse int/fp workloads. Those structural properties — not the
// exact programs — are what Perspector's scores react to, so preserving
// them preserves the paper's findings.
package suites

import (
	"context"
	"fmt"
	"runtime/pprof"

	"perspector/internal/obs"
	"perspector/internal/par"
	"perspector/internal/perf"
	"perspector/internal/rng"
	"perspector/internal/stage"
	"perspector/internal/uarch"
	"perspector/internal/workload"
)

// Config controls suite construction and execution.
type Config struct {
	// Instructions is the dynamic instruction budget per workload. The
	// paper tunes inputs so all workloads run for roughly the same time;
	// a fixed instruction budget is the simulator analogue.
	Instructions uint64
	// Samples is the number of PMU time-series samples per workload.
	Samples int
	// Seed drives all randomness; per-workload seeds are derived from it.
	Seed uint64
	// Machine configures the simulated core; SampleInterval is overridden
	// per workload from Samples.
	Machine uarch.MachineConfig
	// TotalsOnly skips the per-workload sampled series: scoring paths
	// that only read Totals (spread, compare, totals-only CSV) set it to
	// drop the series bookkeeping the measurement would discard. The
	// sample interval still ticks — the OS-noise model charges totals at
	// interval boundaries — so Totals stay bit-identical to a full run
	// with the same Samples count.
	TotalsOnly bool
}

// DefaultConfig returns the configuration used for the paper reproduction.
func DefaultConfig() Config {
	return Config{
		Instructions: 400_000,
		Samples:      100,
		Seed:         2023, // DATE'23
		Machine:      uarch.DefaultMachineConfig(),
	}
}

// Validate checks a Config.
func (c *Config) Validate() error {
	if c.Instructions == 0 {
		return fmt.Errorf("suites: zero instruction budget")
	}
	if c.Samples < 1 {
		return fmt.Errorf("suites: need at least one sample, got %d", c.Samples)
	}
	if uint64(c.Samples) > c.Instructions {
		return fmt.Errorf("suites: more samples (%d) than instructions (%d)", c.Samples, c.Instructions)
	}
	return nil
}

// machineFor returns Machine configured for a run of the given number of
// dynamic instructions: Samples samples over the run (one per instruction
// when the run is shorter), and only totals kept under TotalsOnly.
func (c *Config) machineFor(instructions uint64) uarch.MachineConfig {
	mc := c.Machine
	mc.SampleInterval = max(instructions/uint64(c.Samples), 1)
	mc.CountersOnly = c.TotalsOnly
	return mc
}

// Suite is a named set of workload specs.
type Suite struct {
	Name        string
	Description string
	Specs       []workload.Spec
}

// fnv1a hashes a suite name into the seed-derivation domain.
func fnv1a(s string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	return h
}

// seedFor derives the deterministic seed of workload i in suite name.
func seedFor(cfg Config, name string, i int) uint64 {
	return rng.ChildSeed(cfg.Seed^fnv1a(name), i)
}

// Run executes every workload of the suite on a fresh machine and collects
// totals and time series. Workloads run in parallel; results keep suite
// order and are fully deterministic (each workload owns its machine and
// RNG streams).
func Run(s Suite, cfg Config) (*perf.SuiteMeasurement, error) {
	return RunContext(context.Background(), s, cfg)
}

// RunContext is Run with end-to-end cancellation: ctx flows through the
// worker-pool fan-out into every simulator loop, so a cancelled context
// stops the measurement within one sample batch. Failures and
// cancellations surface as *stage.Error values tagged with the suite and
// (when one was executing) the workload.
func RunContext(ctx context.Context, s Suite, cfg Config) (*perf.SuiteMeasurement, error) {
	// A func literal, not the method value, so that passing it allocates nothing.
	return runSuite(ctx, s, cfg, runOne, func(m *uarch.Machine) { uarch.DefaultMachinePool.Put(m) })
}

// runSuite is the fan-out behind RunContext and RunMulticoreContext: it
// runs measure on every workload of s over the worker pool, each under a
// "workload" span on its worker's track and the suite pprof label, and
// keeps suite order. Each worker keeps one slot (its machine) across the
// workloads it shards, reconfigured in place as a pool Get would, so
// results are bit-identical to per-workload allocation; release, if
// set, gets each slot back afterwards.
func runSuite[M any](ctx context.Context, s Suite, cfg Config,
	measure func(ctx context.Context, spec workload.Spec, cfg Config, slot *M) (*perf.Measurement, error),
	release func(M)) (*perf.SuiteMeasurement, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(s.Specs) == 0 {
		return nil, fmt.Errorf("suites: suite %q has no workloads", s.Name)
	}
	sm := &perf.SuiteMeasurement{
		Suite:     s.Name,
		Workloads: make([]perf.Measurement, len(s.Specs)),
	}
	ctx = pprof.WithLabels(ctx, pprof.Labels("suite", s.Name))
	slots := make([]M, par.Workers())
	err := par.DoErrCtx(ctx, len(s.Specs), func(ctx context.Context, worker, i int) error {
		wctx, span := obs.Start(ctx, "workload",
			obs.String("suite", s.Name), obs.String("workload", s.Specs[i].Name))
		span.SetWorker(worker)
		meas, err := measure(wctx, s.Specs[i], cfg, &slots[worker])
		span.End()
		if err != nil {
			return stage.Wrap(stage.Measure, s.Name, s.Specs[i].Name, err)
		}
		sm.Workloads[i] = *meas
		return nil
	})
	if release != nil {
		for _, m := range slots {
			release(m)
		}
	}
	if err != nil {
		// Covers the path where ctx fired before any workload failed:
		// DoErr returns the bare ctx.Err(), which still deserves a tag.
		return nil, stage.Wrap(stage.Measure, s.Name, "", err)
	}
	return sm, nil
}

// runOne measures one workload on the worker's machine. slot holds the
// machine the calling worker keeps across workloads: reconfigured in
// place when the structural geometry matches, replaced through the shared
// pool otherwise (a reused machine is Reset either way, so it is
// indistinguishable from a fresh one, and the 12288-set L3 allocation is
// paid once per worker instead of once per workload). The caller returns
// slot machines to the pool after the fan-out.
func runOne(ctx context.Context, spec workload.Spec, cfg Config, slot **uarch.Machine) (*perf.Measurement, error) {
	prog, err := workload.Compile(spec)
	if err != nil {
		return nil, err
	}
	defer prog.Release()
	mc := cfg.machineFor(spec.Instructions)
	m := *slot
	if m == nil || !m.Reconfigure(mc) {
		uarch.DefaultMachinePool.Put(m) // structural mismatch; Put(nil) is a no-op
		if m, err = uarch.DefaultMachinePool.Get(mc); err != nil {
			*slot = nil
			return nil, err
		}
		*slot = m
	}
	// pprof.Do scopes the workload/stage labels to exactly the simulator
	// run, so /debug/pprof/profile samples attribute to pipeline work.
	var meas *perf.Measurement
	pprof.Do(ctx, pprof.Labels("workload", spec.Name, "stage", "measure"), func(ctx context.Context) {
		meas, err = m.RunContext(ctx, prog, spec.Instructions)
	})
	return meas, err
}

// RunAll executes every Table-III suite and returns the measurements in
// paper order. Suites fan out in parallel on top of Run's per-workload
// fan-out; the first error in suite order wins, as in the serial loop.
func RunAll(cfg Config) ([]*perf.SuiteMeasurement, error) {
	return RunAllContext(context.Background(), cfg)
}

// RunAllContext is RunAll with cancellation (see RunContext).
func RunAllContext(ctx context.Context, cfg Config) ([]*perf.SuiteMeasurement, error) {
	all := All(cfg)
	out := make([]*perf.SuiteMeasurement, len(all))
	err := par.DoErr(ctx, len(all), func(_, i int) error {
		sm, err := RunContext(ctx, all[i], cfg)
		if err != nil {
			return err
		}
		out[i] = sm
		return nil
	})
	if err != nil {
		return nil, stage.Wrap(stage.Measure, "", "", err)
	}
	return out, nil
}
