package uarch

// MemRef is one load or store of a Block: its virtual address, whether it
// writes, and its position in the block.
type MemRef struct {
	Addr  uint64
	Pos   uint32
	Store bool
}

// BranchRef is one conditional branch of a Block: its PC, its outcome
// and its position in the block.
type BranchRef struct {
	PC    uint64
	Pos   uint32
	Taken bool
}

// SyscallRef is one syscall of a Block: whether it raises a page fault,
// and its position in the block.
type SyscallRef struct {
	Pos   uint32
	Fault bool
}

// Block is a run of a program's dynamic instructions split by kind: one
// list of memory references, one of branches and one of syscalls, each
// in program order and each entry carrying its position in the block. A
// position that no list names is an ALU instruction, which costs only
// its issue cycle and so needs no entry.
//
// The split is what lets Machine step a block without a per-instruction
// kind dispatch. The three kinds touch disjoint machine state — memory
// references the TLB, caches and touched-page set; branches the
// predictor; syscalls nothing but cycle and page-fault counts — and
// every counter is an integer sum flushed once per block. Stepping each
// list in its own loop therefore gives the totals an instruction-order
// loop gives. The positions let MultiCore and the Instr adapters restore
// program order where it matters.
type Block struct {
	Mem      []MemRef
	Branches []BranchRef
	Syscalls []SyscallRef

	scratch []uint64 // see Scratch
}

// Reset empties the block's lists and makes room for n instructions of
// any mix, so filling them never reallocates. Storage is kept across
// calls.
func (b *Block) Reset(n int) {
	b.Mem = resetList(b.Mem, n)
	b.Branches = resetList(b.Branches, n)
	b.Syscalls = resetList(b.Syscalls, n)
}

func resetList[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, 0, n)
	}
	return s[:0]
}

// Append adds in at position pos, which must exceed every position the
// block already holds.
func (b *Block) Append(pos int, in Instr) {
	p := uint32(pos)
	switch in.Kind {
	case Load, Store:
		b.Mem = append(b.Mem, MemRef{Addr: in.Addr, Pos: p, Store: in.Kind == Store})
	case Branch:
		b.Branches = append(b.Branches, BranchRef{PC: in.PC, Pos: p, Taken: in.Taken})
	case Syscall:
		b.Syscalls = append(b.Syscalls, SyscallRef{Pos: p, Fault: in.Fault})
	}
}

// Instrs writes the block's first len(dst) instructions to dst in
// program order; len(dst) must be the block's instruction count.
func (b *Block) Instrs(dst []Instr) {
	clear(dst) // the zero Instr is an ALU instruction
	for _, r := range b.Mem {
		k := Load
		if r.Store {
			k = Store
		}
		dst[r.Pos] = Instr{Kind: k, Addr: r.Addr}
	}
	for _, r := range b.Branches {
		dst[r.Pos] = Instr{Kind: Branch, PC: r.PC, Taken: r.Taken}
	}
	for _, r := range b.Syscalls {
		dst[r.Pos] = Instr{Kind: Syscall, Fault: r.Fault}
	}
}

// Scratch returns n words of storage owned by the block, for a program
// to use while it fills the block (say, to draw addresses in bulk). It
// is not part of the block's contents and is overwritten by the next
// call.
func (b *Block) Scratch(n int) []uint64 {
	if cap(b.scratch) < n {
		b.scratch = make([]uint64, n)
	}
	return b.scratch[:n]
}
