package workload

import (
	"fmt"
	"math"
	"math/bits"

	"perspector/internal/rng"
	"perspector/internal/uarch"
)

// Phase describes one execution phase of a workload. Fractions are
// per-instruction probabilities; the remainder after loads, stores,
// branches and syscalls is ALU work.
type Phase struct {
	// Name labels the phase (diagnostics only).
	Name string
	// Weight is the phase's share of the workload's instructions;
	// weights are normalized across phases.
	Weight float64

	// LoadFrac, StoreFrac, BranchFrac, SyscallFrac give the instruction
	// mix. Their sum must not exceed 1.
	LoadFrac    float64
	StoreFrac   float64
	BranchFrac  float64
	SyscallFrac float64

	// LoadPattern and StorePattern drive address generation. StorePattern
	// defaults to LoadPattern when nil.
	LoadPattern  PatternSpec
	StorePattern PatternSpec

	// BranchRegularity is the probability a branch outcome follows its
	// site's deterministic loop pattern (predictable); otherwise the
	// outcome is a coin flip with BranchTakenProb.
	BranchRegularity float64
	// BranchTakenProb is the taken probability of irregular branches.
	BranchTakenProb float64
	// BranchSites is the number of static branch PCs; 0 defaults to 16.
	BranchSites int

	// SyscallFaultProb is the probability a syscall raises a page fault.
	SyscallFaultProb float64
}

func (p *Phase) validate(i int) error {
	sum := p.LoadFrac + p.StoreFrac + p.BranchFrac + p.SyscallFrac
	if p.LoadFrac < 0 || p.StoreFrac < 0 || p.BranchFrac < 0 || p.SyscallFrac < 0 || sum > 1+1e-9 {
		return fmt.Errorf("workload: phase %d mix invalid (sum %v)", i, sum)
	}
	if p.Weight <= 0 {
		return fmt.Errorf("workload: phase %d weight %v not positive", i, p.Weight)
	}
	if (p.LoadFrac > 0 || p.StoreFrac > 0) && p.LoadPattern == nil && p.StorePattern == nil {
		return fmt.Errorf("workload: phase %d has memory work but no pattern", i)
	}
	if p.BranchRegularity < 0 || p.BranchRegularity > 1 {
		return fmt.Errorf("workload: phase %d branch regularity %v out of [0,1]", i, p.BranchRegularity)
	}
	if p.BranchTakenProb < 0 || p.BranchTakenProb > 1 {
		return fmt.Errorf("workload: phase %d taken prob %v out of [0,1]", i, p.BranchTakenProb)
	}
	if p.SyscallFaultProb < 0 || p.SyscallFaultProb > 1 {
		return fmt.Errorf("workload: phase %d fault prob %v out of [0,1]", i, p.SyscallFaultProb)
	}
	return nil
}

// Spec is a complete workload description.
type Spec struct {
	// Name identifies the workload within its suite.
	Name string
	// Instructions is the dynamic instruction budget.
	Instructions uint64
	// Seed makes the workload deterministic.
	Seed uint64
	// BaseOffset shifts every memory region of the workload by a fixed
	// amount. Zero for ordinary runs; multicore rate-style execution gives
	// each process clone a distinct offset so their footprints are
	// private (separate address spaces).
	BaseOffset uint64
	// Phases run in order, splitting Instructions by Weight.
	Phases []Phase
}

// Validate checks the spec without compiling it.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("workload: spec has no name")
	}
	if s.Instructions == 0 {
		return fmt.Errorf("workload: spec %q has zero instructions", s.Name)
	}
	if len(s.Phases) == 0 {
		return fmt.Errorf("workload: spec %q has no phases", s.Name)
	}
	for i := range s.Phases {
		if err := s.Phases[i].validate(i); err != nil {
			return fmt.Errorf("%w (spec %q)", err, s.Name)
		}
	}
	return nil
}

// Program is a compiled Spec implementing uarch.Program.
type Program struct {
	spec   Spec
	phases []compiledPhase
	bounds []uint64 // cumulative instruction boundary per phase
	pos    uint64
	cur    int
}

type compiledPhase struct {
	p         *Phase
	loadGen   addrStream
	storeGen  addrStream
	src       *rng.Source
	branchPCs []uint64
	branchCnt []uint32
	branchPer []uint32
	// Cumulative kind thresholds (load, store, branch, syscall) and the
	// branch/syscall probabilities, pre-scaled to the integer domain of
	// Float64's 53 significant bits (see probThreshold). Comparing the raw
	// RNG draw against these is bit-for-bit equivalent to comparing
	// Float64() against the float probabilities, without the int→float
	// conversion on the per-instruction path.
	uLoad, uStore, uBranch, uSyscall uint64
	uRegular, uTaken, uFault         uint64
	// Lemire sampling constants for the branch-site draw: the site count
	// and 2^64 mod it, so emit draws a site without calling rng.Intn
	// (identical stream; see the note on rng.Intn).
	siteBound, siteThr uint64
}

// probThreshold converts a probability to the 53-bit integer domain:
// Float64() < p  ⟺  Uint64()>>11 < probThreshold(p). Exact, because
// Float64 is float64(u>>11)/2^53 where both the int→float conversion
// (≤53 bits) and the power-of-two division are lossless, so scaling the
// comparison by 2^53 changes nothing; the ceiling accounts for the draw
// being an integer (x < p·2^53 ⟺ x < ceil(p·2^53) for integer x, with
// equality impossible at non-integral p·2^53).
func probThreshold(p float64) uint64 {
	return uint64(math.Ceil(p * (1 << 53)))
}

// addrBatch is the refill size of an addrStream.
const addrBatch = 64

// addrStream buffers an AddrGen so the per-address interface dispatch is
// amortized over a block refill. Safe for lookahead: every generator owns
// a private RNG stream, so drawing addresses early produces exactly the
// values later draws would.
type addrStream struct {
	gen AddrGen
	buf [addrBatch]uint64
	i   int
}

func newAddrStream(gen AddrGen) addrStream {
	// Start with the buffer exhausted so the first next() refills.
	return addrStream{gen: gen, i: addrBatch}
}

func (s *addrStream) next() uint64 {
	if s.i == len(s.buf) {
		s.gen.NextBatch(s.buf[:])
		s.i = 0
	}
	a := s.buf[s.i]
	s.i++
	return a
}

// Compile validates a spec and builds its deterministic Program. Each
// phase gets an independent RNG stream and its own address-space region,
// so phase order changes never alias working sets.
func Compile(spec Spec) (*Program, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	prog := &Program{spec: spec}

	totalW := 0.0
	for i := range spec.Phases {
		totalW += spec.Phases[i].Weight
	}

	// Region layout: phases are placed end to end with a guard gap.
	const guard = 1 << 21 // 2 MiB between regions
	base := uint64(1)<<33 + spec.BaseOffset
	var cum uint64
	for i := range spec.Phases {
		ph := &spec.Phases[i]
		src := rng.New(rng.ChildSeed(spec.Seed, i))
		cp := compiledPhase{p: ph, src: src}

		if ph.LoadPattern != nil || ph.StorePattern != nil {
			loadSpec := ph.LoadPattern
			if loadSpec == nil {
				loadSpec = ph.StorePattern
			}
			storeSpec := ph.StorePattern
			if storeSpec == nil {
				storeSpec = ph.LoadPattern
			}
			loadGen, err := loadSpec.Instantiate(base, src.Split())
			if err != nil {
				return nil, fmt.Errorf("workload: spec %q phase %d load pattern: %w", spec.Name, i, err)
			}
			cp.loadGen = newAddrStream(loadGen)
			sharedRegion := loadSpec == storeSpec ||
				(ph.LoadPattern != nil && ph.StorePattern == nil) ||
				(ph.LoadPattern == nil && ph.StorePattern != nil)
			storeBase := base
			if !sharedRegion {
				storeBase = base + loadSpec.Footprint() + guard
			}
			// Split even when the store generator goes unbuilt: the
			// phase's own stream draws the instruction kinds next, and
			// must draw the same values either way.
			storeSrc := src.Split()
			var storeGen AddrGen = noStores{}
			if ph.StoreFrac != 0 || storeSpec != loadSpec {
				// A phase without stores never draws a store address, so
				// its store generator is built only to report a pattern
				// the load side has not already validated. Skipping it
				// saves a load-only chase phase a second full shuffle.
				storeGen, err = storeSpec.Instantiate(storeBase, storeSrc)
				if err != nil {
					return nil, fmt.Errorf("workload: spec %q phase %d store pattern: %w", spec.Name, i, err)
				}
			}
			cp.storeGen = newAddrStream(storeGen)
			base = storeBase + storeSpec.Footprint() + guard
		}

		sites := ph.BranchSites
		if sites <= 0 {
			sites = 16
		}
		cp.branchPCs = make([]uint64, sites)
		cp.branchCnt = make([]uint32, sites)
		cp.branchPer = make([]uint32, sites)
		for s := 0; s < sites; s++ {
			cp.branchPCs[s] = 0x400000 + uint64(i)<<16 + uint64(s)*4
			// Loop periods between 4 and 35, deterministic per site.
			cp.branchPer[s] = uint32(4 + (s*7)%32)
		}
		cp.siteBound = uint64(sites)
		cp.siteThr = -cp.siteBound % cp.siteBound

		tLoad := ph.LoadFrac
		tStore := tLoad + ph.StoreFrac
		tBranch := tStore + ph.BranchFrac
		tSyscall := tBranch + ph.SyscallFrac
		cp.uLoad = probThreshold(tLoad)
		cp.uStore = probThreshold(tStore)
		cp.uBranch = probThreshold(tBranch)
		cp.uSyscall = probThreshold(tSyscall)
		cp.uRegular = probThreshold(ph.BranchRegularity)
		cp.uTaken = probThreshold(ph.BranchTakenProb)
		cp.uFault = probThreshold(ph.SyscallFaultProb)

		prog.phases = append(prog.phases, cp)

		share := ph.Weight / totalW
		cum += uint64(share * float64(spec.Instructions))
		prog.bounds = append(prog.bounds, cum)
	}
	// Absorb rounding into the final phase.
	prog.bounds[len(prog.bounds)-1] = spec.Instructions
	return prog, nil
}

// noStores stands in for the store generator of a phase whose store
// fraction is 0: emit never draws from it, and a draw panics rather than
// return addresses no pattern produced.
type noStores struct{}

func (noStores) NextBatch([]uint64) {
	panic("workload: store address drawn in a phase without stores")
}

// Name implements uarch.Program.
func (pr *Program) Name() string { return pr.spec.Name }

// Release returns the program's pointer-chase tables to the shared free
// list, so the next Compile can reuse them instead of allocating.
// Call it once the program has run; drawing addresses from a released
// chase generator panics. Releasing twice is a no-op.
func (pr *Program) Release() {
	for i := range pr.phases {
		releaseGen(pr.phases[i].loadGen.gen)
		releaseGen(pr.phases[i].storeGen.gen)
	}
}

// emit produces one instruction of this phase, drawing from the phase's
// RNG streams in a fixed order.
func (cp *compiledPhase) emit(in *uarch.Instr) {
	// Each case overwrites every field in one composite store: callers
	// reuse the same Instr across calls. Kind selection and coin flips
	// draw Uint64()>>11 — the significand Float64 would build — and
	// compare in the integer domain (see probThreshold); each comparison
	// consumes exactly one RNG draw, like the Float64/Bool calls it
	// replaces, so the streams stay aligned.
	r := cp.src.Uint64() >> 11
	switch {
	case r < cp.uLoad:
		*in = uarch.Instr{Kind: uarch.Load, Addr: cp.loadGen.next()}
	case r < cp.uStore:
		*in = uarch.Instr{Kind: uarch.Store, Addr: cp.storeGen.next()}
	case r < cp.uBranch:
		site, lo := bits.Mul64(cp.src.Uint64(), cp.siteBound)
		for lo < cp.siteThr {
			site, lo = bits.Mul64(cp.src.Uint64(), cp.siteBound)
		}
		var taken bool
		if cp.src.Uint64()>>11 < cp.uRegular {
			// Loop-style pattern: taken except every period-th execution.
			cp.branchCnt[site]++
			taken = cp.branchCnt[site]%cp.branchPer[site] != 0
		} else {
			taken = cp.src.Uint64()>>11 < cp.uTaken
		}
		*in = uarch.Instr{Kind: uarch.Branch, PC: cp.branchPCs[site], Taken: taken}
	case r < cp.uSyscall:
		*in = uarch.Instr{Kind: uarch.Syscall, Fault: cp.src.Uint64()>>11 < cp.uFault}
	default:
		*in = uarch.Instr{Kind: uarch.ALU}
	}
}

// NextBatch implements uarch.Program: it emits up to len(dst)
// instructions, resolving the active phase once per run instead of once
// per instruction.
func (pr *Program) NextBatch(dst []uarch.Instr) int {
	n := 0
	for n < len(dst) && pr.pos < pr.spec.Instructions {
		for pr.pos >= pr.bounds[pr.cur] {
			pr.cur++
		}
		cp := &pr.phases[pr.cur]
		take := uint64(len(dst) - n)
		if rem := pr.bounds[pr.cur] - pr.pos; rem < take {
			take = rem
		}
		pr.pos += take
		for ; take > 0; take-- {
			cp.emit(&dst[n])
			n++
		}
	}
	return n
}
