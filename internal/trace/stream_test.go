package trace

import (
	"bytes"
	"io"
	"math"
	"runtime"
	"strings"
	"testing"

	"perspector/internal/uarch"
	"perspector/internal/workload"
)

// logSpec is a small phase-rich workload whose compiled program
// exercises every record kind (loads, stores, branches, syscalls, ALU).
func logSpec(instr uint64) workload.Spec {
	return workload.Spec{
		Name:         "stream.w",
		Instructions: instr,
		Seed:         42,
		Phases: []workload.Phase{
			{Name: "mix", Weight: 1,
				LoadFrac: 0.3, StoreFrac: 0.12, BranchFrac: 0.15, SyscallFrac: 0.01,
				LoadPattern:      workload.HotCold{HotSet: 64 << 10, ColdSet: 4 << 20, HotFrac: 0.7},
				BranchRegularity: 0.6, BranchTakenProb: 0.55, BranchSites: 12,
				SyscallFaultProb: 0.3},
		},
	}
}

// TestStreamRoundTripBitIdentical is the reader's golden: simulating a
// workload directly and simulating its recorded instruction log through
// ProgramReader must produce bit-identical measurements — totals and
// every series sample.
func TestStreamRoundTripBitIdentical(t *testing.T) {
	const instr = 50_000
	spec := logSpec(instr)
	mc := uarch.DefaultMachineConfig()
	mc.SampleInterval = instr / 50

	direct, err := workload.Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	m1, err := uarch.NewMachine(mc)
	if err != nil {
		t.Fatal(err)
	}
	want, err := m1.Run(direct, instr)
	if err != nil {
		t.Fatal(err)
	}

	rec, err := workload.Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	var log bytes.Buffer
	n, err := WriteInstrLog(&log, rec, instr)
	if err != nil {
		t.Fatal(err)
	}
	if n != instr {
		t.Fatalf("recorded %d instructions, want %d", n, instr)
	}

	pr := NewProgramReader(&log, spec.Name)
	m2, err := uarch.NewMachine(mc)
	if err != nil {
		t.Fatal(err)
	}
	got, err := m2.Run(pr, instr)
	if err != nil {
		t.Fatal(err)
	}
	if err := pr.Err(); err != nil {
		t.Fatal(err)
	}
	if pr.Count() != instr {
		t.Fatalf("reader emitted %d instructions, want %d", pr.Count(), instr)
	}
	for c := range want.Totals {
		if want.Totals[c] != got.Totals[c] {
			t.Errorf("counter %d: total %d != %d", c, want.Totals[c], got.Totals[c])
		}
		ws, gs := want.Series.Samples[c], got.Series.Samples[c]
		if len(ws) != len(gs) {
			t.Fatalf("counter %d: %d samples vs %d", c, len(ws), len(gs))
		}
		for j := range ws {
			if math.Float64bits(ws[j]) != math.Float64bits(gs[j]) {
				t.Errorf("counter %d sample %d: %x != %x", c, j, ws[j], gs[j])
			}
		}
	}
}

func TestStreamParsing(t *testing.T) {
	log := "# provenance header\n" +
		"A\n" +
		"L,1234\n" +
		"\n" +
		"S,5678\r\n" +
		"B,4194304,1\n" +
		"Y,0\n" +
		"B,4194308,0" // unterminated final line
	pr := NewProgramReader(strings.NewReader(log), "t")
	var got []uarch.Instr
	var in uarch.Instr
	for pr.Next(&in) {
		got = append(got, in)
	}
	if err := pr.Err(); err != nil {
		t.Fatal(err)
	}
	want := []uarch.Instr{
		{Kind: uarch.ALU},
		{Kind: uarch.Load, Addr: 1234},
		{Kind: uarch.Store, Addr: 5678},
		{Kind: uarch.Branch, PC: 4194304, Taken: true},
		{Kind: uarch.Syscall},
		{Kind: uarch.Branch, PC: 4194308},
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("record %d: %+v != %+v", i, got[i], want[i])
		}
	}
}

func TestStreamMalformedRecords(t *testing.T) {
	cases := []string{
		"X,12\n",
		"L\n",
		"L,\n",
		"L,12x\n",
		"L,99999999999999999999999\n", // uint64 overflow
		"B,123\n",
		"B,123,2\n",
		"Y,\n",
		"A,1\n",
		"A" + strings.Repeat("A", 8192) + "\n", // oversized record
	}
	for _, c := range cases {
		pr := NewProgramReader(strings.NewReader("A\n"+c), "t")
		var in uarch.Instr
		n := 0
		for pr.Next(&in) {
			n++
		}
		if n != 1 {
			t.Errorf("%q: parsed %d records before stopping, want 1", c[:min(len(c), 16)], n)
		}
		if pr.Err() == nil {
			t.Errorf("%q: no error reported", c[:min(len(c), 16)])
		}
	}
}

func TestStreamResetIsOneShot(t *testing.T) {
	pr := NewProgramReader(strings.NewReader("A\nA\n"), "t")
	pr.Reset() // before consumption: fine
	if pr.Err() != nil {
		t.Fatal(pr.Err())
	}
	var in uarch.Instr
	if !pr.Next(&in) {
		t.Fatal("empty read")
	}
	pr.Reset() // after consumption: poisons
	if pr.Err() == nil {
		t.Fatal("Reset after consumption not reported")
	}
	if pr.Next(&in) {
		t.Fatal("poisoned reader kept producing")
	}
}

// synthLog serves count repetitions of a prebuilt line block without
// ever materializing the whole log — the generator side of the
// bounded-memory contract.
type synthLog struct {
	block  []byte
	reps   int
	off    int
	served int
}

func (s *synthLog) Read(p []byte) (int, error) {
	if s.served >= s.reps {
		return 0, io.EOF
	}
	n := copy(p, s.block[s.off:])
	s.off += n
	if s.off == len(s.block) {
		s.off = 0
		s.served++
	}
	return n, nil
}

// synthBlock builds ~1 MiB of log lines cycling through every record
// kind, returning the block and its record count.
func synthBlock() ([]byte, uint64) {
	var b bytes.Buffer
	var records uint64
	addr := uint64(1) << 33
	for b.Len() < 1<<20 {
		b.WriteString("L,")
		b.WriteString(uitoa(addr))
		b.WriteString("\nS,")
		b.WriteString(uitoa(addr + 64))
		b.WriteString("\nA\nB,4194304,1\nY,0\n")
		addr += 4096
		records += 5
	}
	return b.Bytes(), records
}

func uitoa(v uint64) string {
	var buf [20]byte
	i := len(buf)
	for {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
		if v == 0 {
			break
		}
	}
	return string(buf[i:])
}

// TestStreamBoundedMemory is the at-scale acceptance gate: ingesting a
// synthetic ~1 GiB instruction log must allocate O(chunk) — a few MiB
// of fixed buffers — not O(file). A regression to line-slurping or
// per-record allocation blows the bound immediately (the log is ~40M
// records; even 32 bytes per record would allocate >1 GiB).
func TestStreamBoundedMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("1 GiB synthetic ingest; skipped under -short")
	}
	block, perBlock := synthBlock()
	reps := (1 << 30) / len(block)
	src := &synthLog{block: block, reps: reps}
	pr := NewProgramReader(src, "synth")

	batch := make([]uarch.Instr, 4096)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)

	var total uint64
	var checksum uint64
	for {
		n := pr.NextBatch(batch)
		if n == 0 {
			break
		}
		total += uint64(n)
		// Touch the records so the parse cannot be optimized away.
		for i := 0; i < n; i++ {
			checksum += batch[i].Addr
		}
	}
	runtime.ReadMemStats(&after)
	if err := pr.Err(); err != nil {
		t.Fatal(err)
	}
	want := perBlock * uint64(reps)
	if total != want {
		t.Fatalf("ingested %d records, want %d", total, want)
	}
	if checksum == 0 {
		t.Fatal("checksum zero: addresses not parsed")
	}
	allocated := after.TotalAlloc - before.TotalAlloc
	const bound = 8 << 20 // O(chunk): reader buffer + batch + noise, not O(1 GiB file)
	if allocated > bound {
		t.Fatalf("ingesting ~1 GiB allocated %d bytes, bound %d (allocations must be O(chunk), not O(file))", allocated, bound)
	}
	t.Logf("ingested %d records (~1 GiB) with %d bytes allocated", total, allocated)
}
