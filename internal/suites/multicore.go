package suites

import (
	"context"
	"fmt"

	"perspector/internal/par"
	"perspector/internal/perf"
	"perspector/internal/rng"
	"perspector/internal/stage"
	"perspector/internal/uarch"
	"perspector/internal/workload"
)

// RunMulticore executes every workload of the suite as `threads` parallel
// process clones on a shared-L3 multicore machine (private
// L1/L2/TLB/predictor per core). Each clone gets an independent seed and
// a private address-space offset, so the clones are homologous processes
// with disjoint footprints contending for the shared LLC — the rate-style
// multiprogrammed setup (cf. SPECrate). Counter totals and series
// aggregate across threads, like system-wide `perf stat -a`.
//
// This is an extension beyond the paper's single-threaded methodology;
// use Run for the paper reproduction.
func RunMulticore(s Suite, cfg Config, threads int) (*perf.SuiteMeasurement, error) {
	return RunMulticoreContext(context.Background(), s, cfg, threads)
}

// RunMulticoreContext is RunMulticore with cancellation (see RunContext).
func RunMulticoreContext(ctx context.Context, s Suite, cfg Config, threads int) (*perf.SuiteMeasurement, error) {
	if threads < 1 {
		return nil, fmt.Errorf("suites: RunMulticore with %d threads", threads)
	}
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

	// One multicore machine per worker, held across every workload that
	// worker shards, as RunContext holds its machines: Reconfigure resets
	// it between items, so the shared L3 and the cores are allocated once
	// per worker instead of once per workload.
	machines := make([]*uarch.MultiCore, par.Workers())
	err := par.DoErr(ctx, len(s.Specs), func(worker, i int) error {
		meas, err := runOneMulticore(ctx, s.Specs[i], cfg, threads, &machines[worker])
		if err != nil {
			return stage.Wrap(stage.Measure, s.Name, s.Specs[i].Name, err)
		}
		sm.Workloads[i] = *meas
		return nil
	})
	if err != nil {
		return nil, stage.Wrap(stage.Measure, s.Name, "", err)
	}
	return sm, nil
}

// runOneMulticore measures one workload on the worker's multicore
// machine, held in slot: reconfigured in place when its geometry and core
// count match, replaced by a new one otherwise.
func runOneMulticore(ctx context.Context, spec workload.Spec, cfg Config, threads int, slot **uarch.MultiCore) (*perf.Measurement, error) {
	progs := make([]uarch.Program, threads)
	compiled := make([]*workload.Program, 0, threads)
	defer func() {
		for _, p := range compiled {
			p.Release()
		}
	}()
	for th := 0; th < threads; th++ {
		threadSpec := spec
		threadSpec.Seed = rng.ChildSeed(spec.Seed, th+1)
		threadSpec.BaseOffset = uint64(th) << 40 // disjoint address spaces
		p, err := workload.Compile(threadSpec)
		if err != nil {
			return nil, err
		}
		compiled = append(compiled, p)
		progs[th] = p
	}
	// Sample against the aggregate instruction count so the series length
	// stays cfg.Samples regardless of the thread count.
	mc := cfg.machineFor(spec.Instructions * uint64(threads))
	m := *slot
	if m == nil || !m.Reconfigure(mc, threads) {
		var err error
		if m, err = uarch.NewMultiCore(mc, threads); err != nil {
			return nil, err
		}
		*slot = m
	}
	return m.RunParallelContext(ctx, progs, spec.Instructions)
}
