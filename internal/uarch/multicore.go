package uarch

import (
	"context"
	"fmt"

	"perspector/internal/perf"
)

// MultiCore simulates N cores with private L1/L2/dTLB/branch state and a
// shared L3, interleaving the cores' instruction streams round-robin —
// the contention structure multithreaded suites like PARSEC exercise on
// the Table-II machine (6 cores, shared 12 MiB LLC). PMU events aggregate
// across cores, matching how system-wide `perf stat -a` counts.
//
// The model is deliberately simple: round-robin interleaving at
// instruction granularity approximates symmetric simultaneous progress;
// it captures LLC capacity contention (the first-order multicore effect
// on Table-IV counters) and ignores coherence and bandwidth queueing.
type MultiCore struct {
	cfg   MachineConfig
	cores []*Machine
	feeds []coreFeed // one per core, kept across runs
	l3    *Cache
}

// NewMultiCore builds n cores from a shared config. Each core gets
// private L1, L2, TLB and branch state; the L3 from cfg.L3 is shared.
func NewMultiCore(cfg MachineConfig, n int) (*MultiCore, error) {
	if n < 1 {
		return nil, fmt.Errorf("uarch: NewMultiCore with %d cores", n)
	}
	shared, err := NewCache(cfg.L3)
	if err != nil {
		return nil, err
	}
	mc := &MultiCore{cfg: cfg, l3: shared, feeds: make([]coreFeed, n)}
	for i := 0; i < n; i++ {
		m, err := newMachine(cfg, shared)
		if err != nil {
			return nil, err
		}
		mc.cores = append(mc.cores, m)
	}
	return mc, nil
}

// Cores returns the number of cores.
func (mc *MultiCore) Cores() int { return len(mc.cores) }

// Reset restores power-on state on every core and the shared L3.
func (mc *MultiCore) Reset() {
	for _, c := range mc.cores {
		c.resetCore()
	}
	mc.l3.Reset()
}

// Reconfigure rewrites the non-structural configuration of every core
// (latencies, sampling, prefetch) and resets the machine to power-on
// state, like Machine.Reconfigure, and reports whether it could: a cfg
// with different structural geometry or a different core count needs a
// different machine and leaves this one untouched. Suite workers use it
// to keep one multicore machine, shared L3 included, across the
// workloads they shard.
func (mc *MultiCore) Reconfigure(cfg MachineConfig, cores int) bool {
	if cores != len(mc.cores) || keyOf(cfg) != keyOf(mc.cfg) {
		return false
	}
	mc.cfg = cfg
	for _, c := range mc.cores {
		c.cfg = cfg
	}
	mc.Reset()
	return true
}

// RunParallel executes one program per core (len(progs) must equal the
// core count), interleaving instructions round-robin until every program
// has executed maxInstrPerCore instructions or ended. It returns one
// aggregated measurement; the workload name is taken from the first
// program. Sampling (cfg.SampleInterval) applies to the aggregate
// instruction count; cfg.CountersOnly keeps the totals and drops the
// series, as in Machine.RunContext.
func (mc *MultiCore) RunParallel(progs []Program, maxInstrPerCore uint64) (*perf.Measurement, error) {
	return mc.RunParallelContext(context.Background(), progs, maxInstrPerCore)
}

// RunParallelContext is RunParallel with cooperative cancellation; the
// interleaved loop polls ctx on the same stride as Machine.RunContext,
// measured in aggregate instructions.
//
// Each core fetches its program a block at a time into its own feed, but
// steps and samples one instruction per turn: the next position of the
// block is the head of its memory, branch or syscall list, or else an
// ALU instruction. Programs are independent of one another and of
// machine state, so fetching ahead leaves every instruction stream, and
// so every counter, unchanged.
func (mc *MultiCore) RunParallelContext(ctx context.Context, progs []Program, maxInstrPerCore uint64) (*perf.Measurement, error) {
	if len(progs) != len(mc.cores) {
		return nil, fmt.Errorf("uarch: RunParallel got %d programs for %d cores", len(progs), len(mc.cores))
	}
	if maxInstrPerCore == 0 {
		return nil, fmt.Errorf("uarch: RunParallel with zero instruction budget")
	}
	meas := &perf.Measurement{Workload: progs[0].Name()}
	pmu := &meas.Totals
	ts := &meas.Series
	interval := mc.cfg.SampleInterval
	ts.Interval = interval

	stride := checkStride(interval)
	for i := range mc.feeds {
		mc.feeds[i].start(maxInstrPerCore)
	}
	remaining := len(progs)
	var total uint64
	var prev perf.Values
	for remaining > 0 {
		for i, prog := range progs {
			f, core := &mc.feeds[i], mc.cores[i]
			if f.done {
				continue
			}
			if f.pos == f.n && !f.refill(prog) {
				f.done = true
				remaining--
				continue
			}
			pmu.Add(perf.CPUCycles, f.step(core, pmu))
			total++
			if interval > 0 && total%interval == 0 {
				core.chargeOSNoise(pmu)
				if !mc.cfg.CountersOnly {
					delta := pmu.Sub(prev)
					prev = *pmu
					for c := perf.Counter(0); c < perf.NumCounters; c++ {
						ts.Samples[c] = append(ts.Samples[c], float64(delta.Get(c)))
					}
				}
			}
			if total%stride == 0 {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
		}
	}
	return meas, nil
}

// coreFeed is one core's fetched-ahead block: positions pos to n-1 are
// still to be stepped, mem, br and sys index the heads of the block's
// lists, and left is what the budget allows the program to emit.
type coreFeed struct {
	blk          Block
	pos, n       int
	mem, br, sys int
	left         uint64
	done         bool
}

// feedBlock is the per-core fetch size of the interleaver. Stepping is
// per instruction whatever the fetch size, so a small block amortizes
// the NextBlock call without a large block per core.
const feedBlock = 256

// start readies the feed for a run with the given per-core budget,
// keeping its block storage.
func (f *coreFeed) start(budget uint64) {
	f.pos, f.n, f.left, f.done = 0, 0, budget, false
}

// refill fetches the core's next block, never past the budget. It
// reports false once the budget is spent or the program has ended.
func (f *coreFeed) refill(prog Program) bool {
	n := uint64(feedBlock)
	if f.left < n {
		n = f.left
	}
	if n == 0 {
		return false
	}
	got := prog.NextBlock(&f.blk, int(n))
	f.pos, f.n = 0, got
	f.mem, f.br, f.sys = 0, 0, 0
	f.left -= uint64(got)
	if uint64(got) < n {
		f.left = 0 // short block: the program ended
	}
	return got > 0
}

// step executes the feed's next instruction on m and returns its cycles.
func (f *coreFeed) step(m *Machine, pmu *perf.Values) uint64 {
	p := uint32(f.pos)
	f.pos++
	b := &f.blk
	switch {
	case f.mem < len(b.Mem) && b.Mem[f.mem].Pos == p:
		f.mem++
		return 1 + m.stepMem(b.Mem[f.mem-1:f.mem], pmu)
	case f.br < len(b.Branches) && b.Branches[f.br].Pos == p:
		f.br++
		return 1 + m.stepBranches(b.Branches[f.br-1:f.br], pmu)
	case f.sys < len(b.Syscalls) && b.Syscalls[f.sys].Pos == p:
		f.sys++
		return 1 + m.stepSyscalls(b.Syscalls[f.sys-1:f.sys], pmu)
	}
	return 1 // ALU
}
