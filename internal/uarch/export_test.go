package uarch

import "perspector/internal/perf"

// RunInstrsReference runs the machine the way it ran before blocks were
// split by kind: it pulls up to maxInstr instructions from next in
// []Instr blocks, with RunContext's block sizes and sample countdown,
// and steps each block in one loop with a per-instruction kind switch
// (stepInstrs). It is the differential reference for the kind-split
// step.
func (m *Machine) RunInstrsReference(name string, next func([]Instr) int, maxInstr uint64) *perf.Measurement {
	meas := &perf.Measurement{Workload: name}
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
	buf := make([]Instr, block)

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
		got := next(buf[:n])
		// CPUCycles accumulates locally and lands in one Add per block;
		// blocks never cross a sample boundary, so every sample still
		// snapshots identical cumulative counters.
		pmu.Add(perf.CPUCycles, m.stepInstrs(buf[:got], pmu))
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
	}
	return meas
}

// stepInstrs executes a block of instructions in program order with a
// kind switch per instruction, charging PMU events, and returns the
// block's total cycle cost: the step loop Machine ran before Block.
func (m *Machine) stepInstrs(buf []Instr, pmu *perf.Values) uint64 {
	var (
		tlb, l1, l2, l3 = m.tlb, m.l1, m.l2, m.l3
		l1Lat           = uint64(m.cfg.L1.LatencyC)
		l2Lat           = uint64(m.cfg.L2.LatencyC)
		l3Lat           = uint64(m.cfg.L3.LatencyC)
		dram            = uint64(m.cfg.DRAMCycles)
		walkC           = uint64(m.cfg.TLB.WalkCycles)
		tlbL2Hit        = uint64(m.cfg.TLB.L2HitCycles)
		minorFault      = uint64(m.cfg.MinorFaultCycles)
		mispredict      = uint64(m.cfg.MispredictPenalty)
		syscallC        = uint64(m.cfg.SyscallCycles)
		prefetch        = m.cfg.NextLinePrefetch
		lineB           = uint64(m.cfg.L2.LineB)
		pageBits        = m.pageBits
	)
	cycles := uint64(len(buf)) // base CPI of 1 for issue
	var (
		dtlbLoads, dtlbStores, dtlbLoadMiss, dtlbStoreMiss uint64
		walkPending, pageFaults                            uint64
		llcLoads, llcStores, llcLoadMiss, llcStoreMiss     uint64
		stallsMem, branches, branchMiss                    uint64
	)
	for i := range buf {
		in := &buf[i]
		switch in.Kind {
		case ALU:
			// Base cycle only.

		case Load, Store:
			isLoad := in.Kind == Load
			// dTLB lookup. Translate and Access inline as their repeat
			// memos (same page / line as the previous lookup), so the
			// common local-access case resolves without a call; block-level
			// memo duplication on top of that measured as a pure loss.
			if isLoad {
				dtlbLoads++
			} else {
				dtlbStores++
			}
			tr := tlb.Translate(in.Addr)
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
					if !m.touched.testAndSet(in.Addr >> pageBits) {
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
			case l1.Access(in.Addr):
				memStall = l1Lat
			case l2.Access(in.Addr):
				memStall = l2Lat
			default:
				// Reached the LLC.
				if isLoad {
					llcLoads++
				} else {
					llcStores++
				}
				if l3.Access(in.Addr) {
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
					next := in.Addr + lineB
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

		case Branch:
			branches++
			if !m.bp.Predict(in.PC, in.Taken) {
				branchMiss++
				cycles += mispredict
			}

		case Syscall:
			cycles += syscallC
			if in.Fault {
				pageFaults++
				cycles += minorFault
			}
		}
	}

	pmu.Add(perf.DTLBLoads, dtlbLoads)
	pmu.Add(perf.DTLBStores, dtlbStores)
	pmu.Add(perf.DTLBLoadMisses, dtlbLoadMiss)
	pmu.Add(perf.DTLBStoreMisses, dtlbStoreMiss)
	pmu.Add(perf.DTLBWalkPending, walkPending)
	pmu.Add(perf.PageFaults, pageFaults)
	pmu.Add(perf.LLCLoads, llcLoads)
	pmu.Add(perf.LLCStores, llcStores)
	pmu.Add(perf.LLCLoadMisses, llcLoadMiss)
	pmu.Add(perf.LLCStoreMisses, llcStoreMiss)
	pmu.Add(perf.StallsMemAny, stallsMem)
	pmu.Add(perf.BranchInstructions, branches)
	pmu.Add(perf.BranchMisses, branchMiss)
	return cycles
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

// Cores returns the number of cores.
func (mc *MultiCore) Cores() int { return len(mc.cores) }

// LineBytes returns the cache line size in bytes.
func (c *Cache) LineBytes() int { return 1 << c.lineBits }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return int(c.numSets) }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }
