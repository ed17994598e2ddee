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
	mc := &MultiCore{cfg: cfg, l3: shared}
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
// Each core fetches its program a block at a time into its machine's
// block buffer, but steps and samples one instruction per turn. Programs
// are independent of one another and of machine state, so fetching ahead
// leaves every instruction stream, and so every counter, unchanged.
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
	feeds := make([]coreFeed, len(progs))
	for i := range feeds {
		feeds[i].left = maxInstrPerCore
	}
	remaining := len(progs)
	var total uint64
	var prev perf.Values
	for remaining > 0 {
		for i, prog := range progs {
			f, core := &feeds[i], mc.cores[i]
			if f.done {
				continue
			}
			if f.pos == len(f.buf) && !f.refill(core, prog) {
				f.done = true
				remaining--
				continue
			}
			in := f.buf[f.pos : f.pos+1]
			f.pos++
			total++
			pmu.Add(perf.CPUCycles, core.stepBlock(in, pmu))
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

// coreFeed is one core's fetched-ahead block: buf[pos:] is still to be
// stepped, and left is what the budget allows the program to emit.
type coreFeed struct {
	buf  []Instr
	pos  int
	left uint64
	done bool
}

// feedBlock is the per-core fetch size of the interleaver. Stepping is
// per instruction whatever the fetch size, so a small block amortizes
// the NextBatch call without a 96 KiB buffer per core.
const feedBlock = 256

// refill fetches the core's next block into the machine's block buffer,
// never past the budget. It reports false once the budget is spent or the
// program has ended.
func (f *coreFeed) refill(m *Machine, prog Program) bool {
	if cap(m.batch) < feedBlock {
		m.batch = make([]Instr, feedBlock)
	}
	n := uint64(feedBlock)
	if f.left < n {
		n = f.left
	}
	if n == 0 {
		return false
	}
	got := prog.NextBatch(m.batch[:n])
	f.buf, f.pos = m.batch[:got], 0
	f.left -= uint64(got)
	if uint64(got) < n {
		f.left = 0 // short block: the program ended
	}
	return got > 0
}
