package workload

import (
	"fmt"
	"math"
	"math/bits"
	"sync"

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
	loadGen   AddrGen
	storeGen  AddrGen
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
			cp.loadGen = loadGen
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
			cp.storeGen = storeGen
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
		releaseGen(pr.phases[i].loadGen)
		releaseGen(pr.phases[i].storeGen)
	}
}

// emit appends take instructions of this phase to b, the first at
// position pos. It draws the kinds and the branch and syscall outcomes
// from the phase's RNG stream in one pass, in the order an
// instruction-at-a-time loop would, then the run's load and store
// addresses in bulk from the two generators. Each generator owns a
// private RNG stream, so drawing its addresses after the kinds yields
// exactly the values interleaved draws would. b must have room for
// take more instructions (Block.Reset).
func (cp *compiledPhase) emit(b *uarch.Block, pos, take int) {
	// Kind selection and coin flips draw Uint64()>>11 — the significand
	// Float64 would build — and compare in the integer domain (see
	// probThreshold); each comparison consumes exactly one RNG draw, like
	// the Float64/Bool calls it replaces, so the streams stay aligned.
	var (
		src           = cp.src
		uLoad, uStore = cp.uLoad, cp.uStore
		uBranch, uSys = cp.uBranch, cp.uSyscall
		mem           = b.Mem[len(b.Mem):cap(b.Mem)]
		br            = b.Branches[len(b.Branches):cap(b.Branches)]
		sys           = b.Syscalls[len(b.Syscalls):cap(b.Syscalls)]
		off           = uint64(take)
		loads, stores uint64
		nb, ns        int
	)
	for p, end := uint32(pos), uint32(pos+take); p < end; p++ {
		r := src.Uint64() >> 11
		// Memory references are written without a branch: every
		// instruction writes the next slot, and only a load (r < uLoad)
		// or a store (uLoad ≤ r < uStore) keeps it. r and the thresholds
		// are below 2^54, so a difference's sign bit is the comparison.
		// Addr holds, for now, where fillAddrs finds the reference's
		// address: loads from 0 up, stores from off up.
		ld := (r - uLoad) >> 63
		st := (r-uStore)>>63 - ld
		mem[loads+stores] = uarch.MemRef{Addr: ld*loads + st*(off+stores), Pos: p, Store: st != 0}
		loads += ld
		stores += st
		// One unsigned compare, so the common kinds take one
		// well-predicted branch: r−uStore wraps above uSys−uStore
		// exactly when r < uStore.
		if r-uStore >= uSys-uStore {
			continue // memory or ALU
		}
		if r < uBranch {
			site, lo := bits.Mul64(src.Uint64(), cp.siteBound)
			for lo < cp.siteThr {
				site, lo = bits.Mul64(src.Uint64(), cp.siteBound)
			}
			var taken bool
			if src.Uint64()>>11 < cp.uRegular {
				// Loop-style pattern: taken except every period-th execution.
				cp.branchCnt[site]++
				taken = cp.branchCnt[site]%cp.branchPer[site] != 0
			} else {
				taken = src.Uint64()>>11 < cp.uTaken
			}
			br[nb] = uarch.BranchRef{PC: cp.branchPCs[site], Pos: p, Taken: taken}
			nb++
		} else {
			sys[ns] = uarch.SyscallRef{Pos: p, Fault: src.Uint64()>>11 < cp.uFault}
			ns++
		}
	}
	nm := int(loads + stores)
	if nm > 0 {
		cp.fillAddrs(mem[:nm], int(loads), int(stores), b.Scratch(take+int(stores)))
	}
	b.Mem = b.Mem[:len(b.Mem)+nm]
	b.Branches = b.Branches[:len(b.Branches)+nb]
	b.Syscalls = b.Syscalls[:len(b.Syscalls)+ns]
}

// fillAddrs sets the addresses of refs: it draws the loads' addresses
// into addrs from index 0 and the stores' from index len(addrs)-stores,
// one bulk call per generator, and replaces each reference's Addr, which
// emit set to an index into addrs, with the address found there.
func (cp *compiledPhase) fillAddrs(refs []uarch.MemRef, loads, stores int, addrs []uint64) {
	if loads > 0 {
		cp.loadGen.NextBatch(addrs[:loads])
	}
	if stores > 0 {
		cp.storeGen.NextBatch(addrs[len(addrs)-stores:])
	}
	for i := range refs {
		refs[i].Addr = addrs[refs[i].Addr]
	}
}

// NextBlock implements uarch.Program: it emits up to n instructions into
// b, resolving the active phase once per run instead of once per
// instruction.
func (pr *Program) NextBlock(b *uarch.Block, n int) int {
	b.Reset(n)
	got := 0
	for got < n && pr.pos < pr.spec.Instructions {
		for pr.pos >= pr.bounds[pr.cur] {
			pr.cur++
		}
		take := uint64(n - got)
		if rem := pr.bounds[pr.cur] - pr.pos; rem < take {
			take = rem
		}
		pr.pos += take
		pr.phases[pr.cur].emit(b, got, int(take))
		got += int(take)
	}
	return got
}

// adapterBlocks holds the blocks NextBatch converts through, so the
// adapter allocates nothing per call in steady state.
var adapterBlocks = sync.Pool{New: func() any { return new(uarch.Block) }}

// NextBatch emits up to len(dst) instructions in program order: the
// stream NextBlock produces, one Instr per instruction. It is for
// callers that want the instructions themselves, such as stream tests
// and timing the emitter alone.
func (pr *Program) NextBatch(dst []uarch.Instr) int {
	b := adapterBlocks.Get().(*uarch.Block)
	defer adapterBlocks.Put(b)
	n := 0
	for n < len(dst) {
		want := min(len(dst)-n, adapterChunk)
		got := pr.NextBlock(b, want)
		b.Instrs(dst[n : n+got])
		n += got
		if got < want {
			break // program ended
		}
	}
	return n
}

// adapterChunk bounds the block NextBatch converts through.
const adapterChunk = 4096
