package uarch

import (
	"context"
	"fmt"

	"perspector/internal/obs"
	"perspector/internal/perf"
)

// InstrKind classifies one dynamic instruction.
type InstrKind uint8

const (
	// ALU is a register-only instruction (1 cycle).
	ALU InstrKind = iota
	// Load reads memory.
	Load
	// Store writes memory.
	Store
	// Branch is a conditional branch.
	Branch
	// Syscall models an OS entry (fixed cost plus a page-fault chance
	// charged by the workload through the Fault flag).
	Syscall
)

// Instr is one dynamic instruction handed to the machine by a workload
// program. Addr is the virtual address for Load/Store; PC and Taken
// describe Branch instructions; Fault marks a Syscall that raises a page
// fault (e.g. mmap-backed I/O).
type Instr struct {
	Addr  uint64
	PC    uint64
	Kind  InstrKind
	Taken bool
	Fault bool
}

// Program is a workload: a generator of dynamic instructions, pulled a
// kind-split Block at a time so the machine pays one interface dispatch
// per block rather than per instruction.
type Program interface {
	// Name identifies the workload.
	Name() string
	// NextBlock replaces b's lists with the program's next instructions,
	// at most n of them, and returns how many it produced, ALU
	// instructions included; their positions run from 0 to the count
	// minus one. A short count means the program ended. The sequence must
	// not depend on how callers size n: n blocks of one produce exactly
	// the instructions of one block of n.
	NextBlock(b *Block, n int) int
}

// MachineConfig assembles the full core model. Latencies are in cycles.
type MachineConfig struct {
	L1                CacheConfig
	L2                CacheConfig
	L3                CacheConfig
	TLB               TLBConfig
	BranchTableBits   uint
	BranchHistoryBits uint

	// DRAMCycles is the miss-to-memory latency.
	DRAMCycles int
	// MispredictPenalty is the pipeline flush cost of a branch miss.
	MispredictPenalty int
	// SyscallCycles is the base cost of a syscall.
	SyscallCycles int
	// MinorFaultCycles is the OS cost of a minor page fault (first touch).
	MinorFaultCycles int
	// SampleInterval is the instruction distance between PMU samples;
	// 0 disables sampling.
	SampleInterval uint64
	// CountersOnly skips the sampled time series entirely: no per-counter
	// sample slices are allocated and no per-interval delta snapshots are
	// taken. The interval countdown itself still runs — the OS-noise model
	// charges the PMU at sample boundaries, so identical boundaries are
	// what keep totals bit-identical to a full sampled run. Callers that
	// never read Series (totals-only CSV, spread/compare scoring) set this
	// to drop the bookkeeping the measurement would throw away.
	CountersOnly bool
	// OSNoiseFrac models background kernel activity (timer interrupts,
	// scheduler ticks, RCU callbacks) as a fraction of each sample
	// interval's instructions executed in the kernel with a typical
	// kernel profile. Real PMU measurements always contain this steady
	// trickle; without it, counters that the workload barely exercises
	// degenerate into sparse random staircases that distort trend
	// analysis. 0 disables the model.
	OSNoiseFrac float64
	// NextLinePrefetch enables a simple L2 next-line prefetcher: on an L2
	// miss for line X, line X+1 is installed into L2 (and L3) without
	// charging demand-miss events. Streaming workloads then hit in L2 on
	// roughly every other line, halving their LLC traffic — the classic
	// hardware-prefetching effect. Off by default so the paper's
	// reproduction stays prefetcher-free; used by the ablation bench.
	NextLinePrefetch bool
}

// DefaultMachineConfig mirrors the Table-II machine at per-core scale:
// 32 KiB L1D, 256 KiB L2, 12 MiB L3, Skylake-class latencies.
func DefaultMachineConfig() MachineConfig {
	return MachineConfig{
		L1:                CacheConfig{Name: "L1D", SizeB: 32 << 10, LineB: 64, Ways: 8, LatencyC: 4},
		L2:                CacheConfig{Name: "L2", SizeB: 256 << 10, LineB: 64, Ways: 8, LatencyC: 12},
		L3:                CacheConfig{Name: "L3", SizeB: 12 << 20, LineB: 64, Ways: 16, LatencyC: 40},
		TLB:               DefaultTLBConfig(),
		BranchTableBits:   14,
		BranchHistoryBits: 12,
		DRAMCycles:        200,
		MispredictPenalty: 15,
		SyscallCycles:     400,
		MinorFaultCycles:  2500,
		SampleInterval:    0,
		OSNoiseFrac:       0.005,
	}
}

// Machine is one simulated core with its private cache/TLB hierarchy.
type Machine struct {
	cfg        MachineConfig
	l1, l2, l3 *Cache
	tlb        *TLB
	bp         *BranchPredictor
	pageBits   uint
	touched    pageBitmap // pages already faulted in
	blk        Block      // block buffer reused across RunContext calls
	// noiseAcc carries fractional OS-noise event counts between samples
	// so small rates accumulate deterministically.
	noiseAcc [perf.NumCounters]float64
}

// NewMachine builds a machine from a config.
func NewMachine(cfg MachineConfig) (*Machine, error) {
	l3, err := NewCache(cfg.L3)
	if err != nil {
		return nil, err
	}
	return newMachine(cfg, l3)
}

// newMachine builds a machine around the given L3, which MultiCore
// shares between its cores.
func newMachine(cfg MachineConfig, l3 *Cache) (*Machine, error) {
	l1, err := NewCache(cfg.L1)
	if err != nil {
		return nil, err
	}
	l2, err := NewCache(cfg.L2)
	if err != nil {
		return nil, err
	}
	tlb, err := NewTLB(cfg.TLB)
	if err != nil {
		return nil, err
	}
	bp, err := NewBranchPredictor(cfg.BranchTableBits, cfg.BranchHistoryBits)
	if err != nil {
		return nil, err
	}
	if cfg.DRAMCycles <= 0 || cfg.MispredictPenalty < 0 {
		return nil, fmt.Errorf("uarch: invalid latency configuration")
	}
	pageBits, err := exactLog2(uint64(cfg.TLB.PageB))
	if err != nil {
		return nil, fmt.Errorf("uarch: page size: %w", err)
	}
	m := &Machine{
		cfg: cfg, l1: l1, l2: l2, l3: l3, tlb: tlb, bp: bp,
		pageBits: pageBits,
	}
	m.touched.init()
	return m, nil
}

// Reset restores the machine to power-on state (cold caches, cold TLB,
// reset predictor, no touched pages).
func (m *Machine) Reset() {
	m.l3.Reset()
	m.resetCore()
}

// resetCore resets everything but the L3, which MultiCore resets once
// for all its cores.
func (m *Machine) resetCore() {
	m.l1.Reset()
	m.l2.Reset()
	m.tlb.Reset()
	m.bp.Reset()
	m.touched.reset()
	m.noiseAcc = [perf.NumCounters]float64{}
}

// osNoiseRates gives the per-kernel-instruction event rates of the
// background-activity model: a typical interrupt/scheduler profile
// (branchy code over cold kernel data structures). Indexed by
// perf.Counter; a flat array so chargeOSNoise never walks a Go map.
var osNoiseRates = [perf.NumCounters]float64{
	perf.CPUCycles:          2.0,
	perf.BranchInstructions: 0.20,
	perf.BranchMisses:       0.02,
	perf.StallsMemAny:       0.50,
	perf.DTLBLoads:          0.25,
	perf.DTLBStores:         0.08,
	perf.DTLBLoadMisses:     0.020,
	perf.DTLBStoreMisses:    0.006,
	perf.DTLBWalkPending:    0.40, // ≈ walk rate × walk cycles
	perf.LLCLoads:           0.030,
	perf.LLCStores:          0.010,
	perf.LLCLoadMisses:      0.020,
	perf.LLCStoreMisses:     0.006,
	perf.PageFaults:         0.0002,
}

// chargeOSNoise adds one sample interval's worth of background kernel
// activity to the PMU, carrying fractional counts across intervals. Each
// counter accumulates independently, so the switch from map iteration to
// an indexed loop changes no emitted value.
func (m *Machine) chargeOSNoise(pmu *perf.Values) {
	if m.cfg.OSNoiseFrac <= 0 || m.cfg.SampleInterval == 0 {
		return
	}
	kernelInstr := m.cfg.OSNoiseFrac * float64(m.cfg.SampleInterval)
	for c := perf.Counter(0); c < perf.NumCounters; c++ {
		rate := osNoiseRates[c]
		if rate == 0 {
			continue
		}
		m.noiseAcc[c] += rate * kernelInstr
		if whole := uint64(m.noiseAcc[c]); whole > 0 {
			pmu.Add(c, whole)
			m.noiseAcc[c] -= float64(whole)
		}
	}
}

// Run executes prog for at most maxInstr dynamic instructions (or to
// completion if the program ends earlier) and returns the PMU measurement.
// Sampling follows cfg.SampleInterval.
func (m *Machine) Run(prog Program, maxInstr uint64) (*perf.Measurement, error) {
	return m.RunContext(context.Background(), prog, maxInstr)
}

// cancelStride bounds the instruction distance between context checks in
// the simulation loops, so cancellation latency stays well under one
// sample batch even when sampling is disabled or the interval is huge
// (e.g. calibration probes with Samples = 1).
const cancelStride = 4096

// checkStride returns the context-poll period for a sample interval.
func checkStride(sampleInterval uint64) uint64 {
	if sampleInterval > 0 && sampleInterval < cancelStride {
		return sampleInterval
	}
	return cancelStride
}

// blockCap bounds the block size for RunContext; it equals cancelStride
// so a full block never delays a cancellation poll.
const blockCap = cancelStride

// blockSizeFor picks the block size for RunContext: ideally the largest
// divisor of the sample interval not exceeding blockCap, so in steady
// state every block is full and a sample boundary coincides with a block
// boundary. Intervals with no usable divisor (e.g. primes) fall back to
// blockCap; the countdown clamp in RunContext keeps sampling exact
// either way, this just keeps blocks large.
func blockSizeFor(interval uint64) uint64 {
	if interval == 0 {
		return blockCap
	}
	if interval <= blockCap {
		return interval
	}
	for d := uint64(blockCap); d >= blockCap/8; d-- {
		if interval%d == 0 {
			return d
		}
	}
	return blockCap
}

// maxSamplePrealloc caps the per-counter sample capacity reserved up
// front, so a pathological interval cannot ask for gigabytes.
const maxSamplePrealloc = 1 << 20

// RunContext is Run with cooperative cancellation: the loop polls ctx at
// block boundaries (never more than ~cancelStride instructions apart) and
// returns ctx.Err() as soon as it fires. The partial measurement is
// discarded — counters from an interrupted execution would silently skew
// every downstream score.
//
// Instructions are pulled in fixed blocks through NextBlock. Sampling
// uses countdown arithmetic: a block never crosses a sample boundary, so
// the PMU snapshot happens at exactly the instruction numbers a
// per-instruction loop would sample at, and every emitted counter stays
// bit-identical to it. The run's emitted instructions by kind go to
// ctx's obs recorder once, at the end of the run, cancelled or not.
func (m *Machine) RunContext(ctx context.Context, prog Program, maxInstr uint64) (*perf.Measurement, error) {
	if maxInstr == 0 {
		return nil, fmt.Errorf("uarch: Run with maxInstr == 0")
	}
	meas := &perf.Measurement{Workload: prog.Name()}
	pmu := &meas.Totals
	ts := &meas.Series
	interval := m.cfg.SampleInterval
	ts.Interval = interval
	countersOnly := m.cfg.CountersOnly
	if interval > 0 && !countersOnly {
		expected := maxInstr / interval
		if expected > maxSamplePrealloc {
			expected = maxSamplePrealloc
		}
		for c := range ts.Samples {
			ts.Samples[c] = make([]float64, 0, expected)
		}
	}

	block := blockSizeFor(interval)
	blk := &m.blk
	var memRefs, branches, syscalls uint64 // the run's work counts
	defer func() {
		rec := obs.FromContext(ctx)
		rec.Count(obs.CounterSimInstrMem, int64(memRefs))
		rec.Count(obs.CounterSimInstrBranch, int64(branches))
		rec.Count(obs.CounterSimInstrSyscall, int64(syscalls))
	}()

	checkEvery := cancelStride / block // ≥ 1 because block ≤ cancelStride
	var sinceCheck uint64
	toSample := interval
	var prev perf.Values
	var executed uint64
	for executed < maxInstr {
		n := block
		if rem := maxInstr - executed; rem < n {
			n = rem
		}
		if interval > 0 && toSample < n {
			n = toSample
		}
		got := prog.NextBlock(blk, int(n))
		memRefs += uint64(len(blk.Mem))
		branches += uint64(len(blk.Branches))
		syscalls += uint64(len(blk.Syscalls))
		// CPUCycles accumulates locally and lands in one Add per block;
		// blocks never cross a sample boundary, so every sample still
		// snapshots identical cumulative counters.
		pmu.Add(perf.CPUCycles, m.stepBlock(blk, got, pmu))
		executed += uint64(got)
		if interval > 0 {
			toSample -= uint64(got) // got ≤ n ≤ toSample: no underflow
			if toSample == 0 {
				// The noise charge stays on the boundary even in
				// counters-only mode: its fractional accumulation is a
				// per-interval floating-point sequence, so only identical
				// boundaries reproduce the full run's totals bit-for-bit.
				m.chargeOSNoise(pmu)
				if !countersOnly {
					delta := pmu.Sub(prev)
					prev = *pmu
					for c := perf.Counter(0); c < perf.NumCounters; c++ {
						ts.Samples[c] = append(ts.Samples[c], float64(delta.Get(c)))
					}
				}
				toSample = interval
			}
		}
		if uint64(got) < n {
			break // program ended
		}
		if sinceCheck++; sinceCheck >= checkEvery {
			sinceCheck = 0
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
	}
	return meas, nil
}

// stepBlock executes a block of n instructions, charging PMU events, and
// returns the block's total cycle cost (the caller accounts CPUCycles).
// Each kind's list runs in its own loop (see Block for why that is
// exact): every instruction pays its issue cycle, and the loops add the
// memory stalls, mispredictions and syscall costs.
func (m *Machine) stepBlock(b *Block, n int, pmu *perf.Values) uint64 {
	return uint64(n) + m.stepMem(b.Mem, pmu) + m.stepBranches(b.Branches, pmu) + m.stepSyscalls(b.Syscalls, pmu)
}

// stepMem executes memory references in order and returns their stall
// cycles beyond issue. Every config latency is hoisted into a local, so
// the loop pays no call or config-field reload per reference. Event
// counts accumulate in locals and flush to the PMU once per call —
// RunContext never lets a block cross a sample boundary, so every sample
// reads the same values it would with per-instruction Adds.
func (m *Machine) stepMem(refs []MemRef, pmu *perf.Values) uint64 {
	var (
		tlb, l1, l2, l3 = m.tlb, m.l1, m.l2, m.l3
		l1Lat           = uint64(m.cfg.L1.LatencyC)
		l2Lat           = uint64(m.cfg.L2.LatencyC)
		l3Lat           = uint64(m.cfg.L3.LatencyC)
		dram            = uint64(m.cfg.DRAMCycles)
		walkC           = uint64(m.cfg.TLB.WalkCycles)
		tlbL2Hit        = uint64(m.cfg.TLB.L2HitCycles)
		minorFault      = uint64(m.cfg.MinorFaultCycles)
		prefetch        = m.cfg.NextLinePrefetch
		lineB           = uint64(m.cfg.L2.LineB)
		pageBits        = m.pageBits
	)
	var (
		cycles, stores, dtlbLoadMiss, dtlbStoreMiss    uint64
		walkPending, pageFaults                        uint64
		llcLoads, llcStores, llcLoadMiss, llcStoreMiss uint64
		stallsMem                                      uint64
	)
	for i := range refs {
		r := &refs[i]
		addr, isLoad := r.Addr, !r.Store
		if r.Store {
			stores++
		}
		// dTLB lookup. Translate and Access inline as their repeat
		// memos (same page / line as the previous lookup), so the
		// common local-access case resolves without a call; block-level
		// memo duplication on top of that measured as a pure loss.
		tr := tlb.Translate(addr)
		if tr.L1Miss {
			if isLoad {
				dtlbLoadMiss++
			} else {
				dtlbStoreMiss++
			}
			if tr.Walked {
				walkPending += walkC
				cycles += walkC
				// First touch of a page raises a minor fault.
				if !m.touched.testAndSet(addr >> pageBits) {
					pageFaults++
					cycles += minorFault
				}
			} else {
				cycles += tlbL2Hit
			}
		}

		// Cache hierarchy. L1 hits overlap with the pipeline.
		var memStall uint64
		switch {
		case l1.Access(addr):
			memStall = l1Lat
		case l2.Access(addr):
			memStall = l2Lat
		default:
			// Reached the LLC.
			if isLoad {
				llcLoads++
			} else {
				llcStores++
			}
			if l3.Access(addr) {
				memStall = l3Lat
			} else {
				if isLoad {
					llcLoadMiss++
				} else {
					llcStoreMiss++
				}
				memStall = dram
			}
			if prefetch {
				// Install the next line into L2/L3 silently (prefetches
				// are not demand events and overlap with the demand miss).
				next := addr + lineB
				l2.Access(next)
				l3.Access(next)
			}
		}
		// L1 hits overlap with the pipeline; anything slower stalls.
		if memStall > l1Lat {
			stall := memStall - l1Lat
			stallsMem += stall
			cycles += stall
		}
	}

	pmu.Add(perf.DTLBLoads, uint64(len(refs))-stores)
	pmu.Add(perf.DTLBStores, stores)
	pmu.Add(perf.DTLBLoadMisses, dtlbLoadMiss)
	pmu.Add(perf.DTLBStoreMisses, dtlbStoreMiss)
	pmu.Add(perf.DTLBWalkPending, walkPending)
	pmu.Add(perf.PageFaults, pageFaults)
	pmu.Add(perf.LLCLoads, llcLoads)
	pmu.Add(perf.LLCStores, llcStores)
	pmu.Add(perf.LLCLoadMisses, llcLoadMiss)
	pmu.Add(perf.LLCStoreMisses, llcStoreMiss)
	pmu.Add(perf.StallsMemAny, stallsMem)
	return cycles
}

// stepBranches predicts branches in order and returns their
// misprediction cycles.
func (m *Machine) stepBranches(refs []BranchRef, pmu *perf.Values) uint64 {
	bp, mispredict := m.bp, uint64(m.cfg.MispredictPenalty)
	var miss uint64
	for i := range refs {
		if !bp.Predict(refs[i].PC, refs[i].Taken) {
			miss++
		}
	}
	pmu.Add(perf.BranchInstructions, uint64(len(refs)))
	pmu.Add(perf.BranchMisses, miss)
	return miss * mispredict
}

// stepSyscalls charges syscalls and returns their cycles beyond issue.
func (m *Machine) stepSyscalls(refs []SyscallRef, pmu *perf.Values) uint64 {
	var faults uint64
	for i := range refs {
		if refs[i].Fault {
			faults++
		}
	}
	pmu.Add(perf.PageFaults, faults)
	return uint64(len(refs))*uint64(m.cfg.SyscallCycles) + faults*uint64(m.cfg.MinorFaultCycles)
}

// CacheStats exposes per-level accesses/misses for tests and diagnostics.
func (m *Machine) CacheStats() (l1a, l1m, l2a, l2m, l3a, l3m uint64) {
	l1a, l1m = m.l1.Stats()
	l2a, l2m = m.l2.Stats()
	l3a, l3m = m.l3.Stats()
	return
}

// TLBStats exposes TLB accesses, first-level misses and walks.
func (m *Machine) TLBStats() (accesses, l1Misses, walks uint64) {
	return m.tlb.Stats()
}

// BranchStats exposes branch predictions and mispredictions.
func (m *Machine) BranchStats() (predicts, mispredicts uint64) {
	return m.bp.Stats()
}
