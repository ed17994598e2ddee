// Streaming instruction-log ingestion. A recorded instruction log — the
// at-scale input Perspector accepts from real collection pipelines — can
// run to many gigabytes, so it must never be materialized: ProgramReader
// parses the log chunk-at-a-time straight off any io.Reader and feeds
// the simulator through uarch.Program, holding memory proportional
// to one chunk (O(chunk), not O(file) — pinned by the bounded-memory
// test over a synthetic ~1 GiB log).
//
// # Log format
//
// Text lines, one dynamic instruction per line, first field the kind:
//
//	A                ALU (register-only) instruction
//	L,<addr>         load from decimal virtual address
//	S,<addr>         store to decimal virtual address
//	B,<pc>,<taken>   branch at decimal PC, taken 1 or 0
//	Y,<fault>        syscall, page-faulting 1 or 0
//
// Blank lines and lines starting with '#' are skipped, so logs can carry
// provenance headers. WriteInstrLog emits exactly this format.
package trace

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"

	"perspector/internal/uarch"
)

// streamChunk is the ProgramReader refill size: big enough to amortize
// Read syscalls over ~10k lines, small enough that per-reader memory
// stays trivial.
const streamChunk = 256 << 10

// maxLogLine bounds one log line; anything longer is corrupt input, not
// a legitimate record (the longest well-formed line is under 64 bytes).
const maxLogLine = 4096

// ProgramReader streams an instruction log as a uarch.Program. Parse
// failures end the stream early — the simulator sees a short batch and
// stops — and are reported by Err; callers must check it after the run.
type ProgramReader struct {
	name  string
	r     io.Reader
	buf   []byte
	start int // first unconsumed byte in buf
	end   int // one past the last valid byte in buf
	eof   bool
	err   error
	line  uint64 // 1-based line number of the next record, for errors
	count uint64 // instructions emitted
}

// NewProgramReader returns a streaming program named name over the log
// in r. The reader allocates its chunk buffer once, up front.
func NewProgramReader(r io.Reader, name string) *ProgramReader {
	return &ProgramReader{name: name, r: r, buf: make([]byte, streamChunk), line: 1}
}

// Name implements uarch.Program.
func (pr *ProgramReader) Name() string { return pr.name }

// Err returns the first error the stream hit: a malformed record or an
// underlying read failure. io.EOF is not an error. Callers must check Err
// after the simulator run, because the simulator cannot distinguish "log
// ended" from "log broke".
func (pr *ProgramReader) Err() error { return pr.err }

// Count returns the number of instructions emitted so far.
func (pr *ProgramReader) Count() uint64 { return pr.count }

// refill slides the unconsumed tail to the front of the buffer and reads
// more bytes behind it. Reports whether any new bytes arrived.
func (pr *ProgramReader) refill() bool {
	if pr.eof {
		return false
	}
	if pr.start > 0 {
		copy(pr.buf, pr.buf[pr.start:pr.end])
		pr.end -= pr.start
		pr.start = 0
	}
	if pr.end == len(pr.buf) {
		// A line longer than the whole chunk buffer: corrupt input.
		pr.err = fmt.Errorf("trace: %s line %d: record exceeds %d bytes", pr.name, pr.line, maxLogLine)
		return false
	}
	n, err := pr.r.Read(pr.buf[pr.end:])
	pr.end += n
	if err == io.EOF {
		pr.eof = true
	} else if err != nil {
		pr.err = fmt.Errorf("trace: %s line %d: %w", pr.name, pr.line, err)
		pr.eof = true
	}
	return n > 0
}

// NextBlock implements uarch.Program: it parses up to n records into b.
// A short count means the stream ended — cleanly at EOF, or on the first
// malformed record (check Err).
func (pr *ProgramReader) NextBlock(b *uarch.Block, n int) int {
	b.Reset(n)
	var chunk [256]uarch.Instr
	got := 0
	for got < n {
		want := min(n-got, len(chunk))
		k := pr.NextBatch(chunk[:want])
		for i := range chunk[:k] {
			b.Append(got+i, chunk[i])
		}
		got += k
		if k < want {
			break
		}
	}
	return got
}

// NextBatch parses up to len(dst) records into dst in log order. A
// short count means the stream ended — cleanly at EOF, or on the first
// malformed record (check Err).
func (pr *ProgramReader) NextBatch(dst []uarch.Instr) int {
	n := 0
	for n < len(dst) && pr.err == nil {
		// Find the end of the current line, refilling as needed.
		nl := bytes.IndexByte(pr.buf[pr.start:pr.end], '\n')
		for nl < 0 && !pr.eof {
			if pr.end-pr.start > maxLogLine {
				pr.err = fmt.Errorf("trace: %s line %d: record exceeds %d bytes", pr.name, pr.line, maxLogLine)
				return n
			}
			if !pr.refill() && pr.err != nil {
				return n
			}
			nl = bytes.IndexByte(pr.buf[pr.start:pr.end], '\n')
		}
		var rec []byte
		if nl >= 0 {
			rec = pr.buf[pr.start : pr.start+nl]
			pr.start += nl + 1
		} else {
			// EOF with an unterminated final line.
			if pr.start == pr.end {
				break
			}
			rec = pr.buf[pr.start:pr.end]
			pr.start = pr.end
		}
		// Trim a trailing \r so CRLF logs parse.
		if len(rec) > 0 && rec[len(rec)-1] == '\r' {
			rec = rec[:len(rec)-1]
		}
		if len(rec) == 0 || rec[0] == '#' {
			pr.line++
			continue
		}
		if !pr.parseRecord(rec, &dst[n]) {
			return n
		}
		pr.line++
		pr.count++
		n++
	}
	return n
}

// parseUint parses a decimal uint64 without allocation.
func parseUint(b []byte) (uint64, bool) {
	if len(b) == 0 || len(b) > 20 {
		return 0, false
	}
	var v uint64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		d := uint64(c - '0')
		if v > (^uint64(0)-d)/10 {
			return 0, false
		}
		v = v*10 + d
	}
	return v, true
}

func (pr *ProgramReader) fail(rec []byte) bool {
	pr.err = fmt.Errorf("trace: %s line %d: malformed record %q", pr.name, pr.line, rec)
	return false
}

// parseRecord decodes one log line into in.
func (pr *ProgramReader) parseRecord(rec []byte, in *uarch.Instr) bool {
	kind := rec[0]
	rest := rec[1:]
	if len(rest) > 0 {
		if rest[0] != ',' {
			return pr.fail(rec)
		}
		rest = rest[1:]
	}
	switch kind {
	case 'A':
		if len(rest) != 0 {
			return pr.fail(rec)
		}
		*in = uarch.Instr{Kind: uarch.ALU}
	case 'L', 'S':
		addr, ok := parseUint(rest)
		if !ok {
			return pr.fail(rec)
		}
		k := uarch.Load
		if kind == 'S' {
			k = uarch.Store
		}
		*in = uarch.Instr{Kind: k, Addr: addr}
	case 'B':
		comma := bytes.IndexByte(rest, ',')
		if comma < 0 {
			return pr.fail(rec)
		}
		pc, ok := parseUint(rest[:comma])
		if !ok {
			return pr.fail(rec)
		}
		taken, ok := parseBit(rest[comma+1:])
		if !ok {
			return pr.fail(rec)
		}
		*in = uarch.Instr{Kind: uarch.Branch, PC: pc, Taken: taken}
	case 'Y':
		fault, ok := parseBit(rest)
		if !ok {
			return pr.fail(rec)
		}
		*in = uarch.Instr{Kind: uarch.Syscall, Fault: fault}
	default:
		return pr.fail(rec)
	}
	return true
}

func parseBit(b []byte) (bool, bool) {
	if len(b) != 1 || (b[0] != '0' && b[0] != '1') {
		return false, false
	}
	return b[0] == '1', true
}

// WriteInstrLog records up to max instructions of prog (0 = until the
// program ends) as an instruction log on w — the inverse of
// ProgramReader, used to archive synthetic workloads as replayable logs.
func WriteInstrLog(w io.Writer, prog uarch.Program, max uint64) (uint64, error) {
	bw := bufio.NewWriterSize(w, 1<<20)
	var (
		blk     uarch.Block
		block   [1024]uarch.Instr
		scratch [32]byte
		n       uint64
	)
	for max == 0 || n < max {
		want := uint64(len(block))
		if max != 0 && max-n < want {
			want = max - n
		}
		got := prog.NextBlock(&blk, int(want))
		blk.Instrs(block[:got])
		for _, in := range block[:got] {
			var line []byte
			switch in.Kind {
			case uarch.ALU:
				line = append(scratch[:0], 'A', '\n')
			case uarch.Load, uarch.Store:
				c := byte('L')
				if in.Kind == uarch.Store {
					c = 'S'
				}
				line = append(scratch[:0], c, ',')
				line = strconv.AppendUint(line, in.Addr, 10)
				line = append(line, '\n')
			case uarch.Branch:
				line = append(scratch[:0], 'B', ',')
				line = strconv.AppendUint(line, in.PC, 10)
				line = append(line, ',', bit(in.Taken), '\n')
			case uarch.Syscall:
				line = append(scratch[:0], 'Y', ',', bit(in.Fault), '\n')
			}
			if _, err := bw.Write(line); err != nil {
				return n, err
			}
			n++
		}
		if uint64(got) < want {
			break // program ended
		}
	}
	return n, bw.Flush()
}

func bit(b bool) byte {
	if b {
		return '1'
	}
	return '0'
}
