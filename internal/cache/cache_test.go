package cache

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"perspector/internal/perf"
	"perspector/internal/suites"
	"perspector/internal/trace"
	"perspector/internal/workload"
)

func smallConfig() suites.Config {
	cfg := suites.DefaultConfig()
	cfg.Instructions = 20_000
	cfg.Samples = 10
	return cfg
}

// suite builds a registered suite under cfg.
func suite(t testing.TB, name string, cfg suites.Config) suites.Suite {
	t.Helper()
	s, err := suites.ByName(name, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// onlyEntry returns the path of the single entry in a cache directory,
// so tests need not know how entries are named.
func onlyEntry(t *testing.T, dir string) string {
	t.Helper()
	entries, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil || len(entries) != 1 {
		t.Fatalf("cache dir holds %v (%v), want one entry", entries, err)
	}
	return entries[0]
}

func TestKeyIsStableAndSensitive(t *testing.T) {
	cfg := smallConfig()
	nbench := func(cfg suites.Config) string { return Key(suite(t, "nbench", cfg), cfg) }
	base := nbench(cfg)
	if base != nbench(cfg) {
		t.Fatal("key not deterministic for identical inputs")
	}

	seeded := cfg
	seeded.Seed++
	if nbench(seeded) == base {
		t.Fatal("seed change did not change the key")
	}
	sampled := cfg
	sampled.Samples++
	if nbench(sampled) == base {
		t.Fatal("sample-count change did not change the key")
	}
	machined := cfg
	machined.Machine.NextLinePrefetch = !machined.Machine.NextLinePrefetch
	if nbench(machined) == base {
		t.Fatal("machine-config change did not change the key")
	}
	if Key(suite(t, "lmbench", cfg), cfg) == base {
		t.Fatal("different suite did not change the key")
	}
	totals := cfg
	totals.TotalsOnly = true
	if nbench(totals) == base {
		t.Fatal("totals-only change did not change the key")
	}
}

// TestKeyDistinguishesPatternKinds pins the fix for the %+v rendering:
// two pattern kinds with identical field shapes (Random and
// PointerChase both carry only WorkingSet) must hash differently, and a
// user-built suite must hash identically to a spec-decoded one with the
// same content.
func TestKeyDistinguishesPatternKinds(t *testing.T) {
	cfg := smallConfig()
	mk := func(pat workload.PatternSpec) suites.Suite {
		return suites.Suite{Name: "probe", Specs: []workload.Spec{{
			Name: "probe.w", Instructions: cfg.Instructions, Seed: 1,
			Phases: []workload.Phase{{Weight: 1, LoadFrac: 0.3, LoadPattern: pat}},
		}}}
	}
	kRandom := Key(mk(workload.Random{WorkingSet: 1 << 20}), cfg)
	kChase := Key(mk(workload.PointerChase{WorkingSet: 1 << 20}), cfg)
	if kRandom == kChase {
		t.Fatal("Random and PointerChase patterns hash to the same key")
	}
	if kRandom != Key(mk(workload.Random{WorkingSet: 1 << 20}), cfg) {
		t.Fatal("identical content did not reproduce the key")
	}
}

func TestStoreRoundTrip(t *testing.T) {
	cfg := smallConfig()
	s := suite(t, "nbench", cfg)
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := Key(s, cfg)
	if _, ok := st.Get(key); ok {
		t.Fatal("empty store hit")
	}
	cold, err := suites.Run(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(key, cold); err != nil {
		t.Fatal(err)
	}
	if st.Hits() != 0 || st.Misses() != 1 {
		t.Fatalf("cold run: hits=%d misses=%d", st.Hits(), st.Misses())
	}
	warm, ok := st.Get(key)
	if !ok {
		t.Fatal("stored entry missed")
	}
	if st.Hits() != 1 {
		t.Fatalf("warm run did not hit: hits=%d misses=%d", st.Hits(), st.Misses())
	}
	if warm.Suite != cold.Suite || len(warm.Workloads) != len(cold.Workloads) {
		t.Fatal("warm measurement shape differs")
	}
	for i := range cold.Workloads {
		if len(cold.Workloads[i].Series.Samples[perf.CPUCycles]) == 0 {
			t.Fatalf("workload %d was simulated without series", i)
		}
	}
	sameBits(t, warm, cold)

	// Float classes a simulated series never holds but an entry must
	// carry bit for bit, beside a totals-only workload and a workload
	// with some counters unsampled.
	special := specialMeasurement()
	if err := st.Put("special", special); err != nil {
		t.Fatal(err)
	}
	got, ok := st.Get("special")
	if !ok {
		t.Fatal("special-value entry missed")
	}
	sameBits(t, got, special)
}

// specialMeasurement is a valid measurement holding −0, NaNs with
// distinct payloads, ±Inf, subnormals and extreme totals, a totals-only
// workload, and a workload whose sampled counters sit beside unsampled
// ones.
func specialMeasurement() *perf.SuiteMeasurement {
	vals := []float64{
		math.Copysign(0, -1), 0,
		math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0xfff0000000000bad),
		math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, -math.Float64frombits(0x000fffffffffffff),
		math.MaxFloat64, 1e-300,
	}
	sm := &perf.SuiteMeasurement{Suite: "special"}
	full := perf.Measurement{Workload: "special.full"}
	full.Series.Interval = math.MaxUint64
	for c := range full.Totals {
		full.Totals[c] = math.MaxUint64 - uint64(c)
		full.Series.Samples[c] = append([]float64(nil), vals...)
		full.Series.Samples[c][c%len(vals)] = float64(c)
	}
	totals := perf.Measurement{Workload: "special.totals-only"}
	totals.Totals[perf.CPUCycles] = 42
	partial := perf.Measurement{Workload: "special.partial"}
	partial.Series.Interval = 7
	for _, c := range []perf.Counter{perf.CPUCycles, perf.LLCLoads, perf.LLCStoreMisses} {
		partial.Series.Samples[c] = []float64{math.Float64frombits(1), -0.5, math.NaN()}
	}
	sm.Workloads = append(sm.Workloads, full, totals, partial)
	return sm
}

// sameBits fails unless got and want hold the same names, totals,
// intervals and series, comparing every sample by its bits and telling
// an unsampled counter (nil) from a sampled one.
func sameBits(t *testing.T, got, want *perf.SuiteMeasurement) {
	t.Helper()
	if got.Suite != want.Suite || len(got.Workloads) != len(want.Workloads) {
		t.Fatalf("suite %q with %d workloads, want %q with %d",
			got.Suite, len(got.Workloads), want.Suite, len(want.Workloads))
	}
	for i := range want.Workloads {
		g, w := &got.Workloads[i], &want.Workloads[i]
		if g.Workload != w.Workload || g.Totals != w.Totals || g.Series.Interval != w.Series.Interval {
			t.Fatalf("workload %d: name, totals or interval differ", i)
		}
		for c := range w.Series.Samples {
			gs, ws := g.Series.Samples[c], w.Series.Samples[c]
			if len(gs) != len(ws) || (gs == nil) != (ws == nil) {
				t.Fatalf("workload %d counter %d: %d samples, want %d", i, c, len(gs), len(ws))
			}
			for k := range ws {
				if math.Float64bits(gs[k]) != math.Float64bits(ws[k]) {
					t.Fatalf("workload %d counter %d sample %d: bits %#x, want %#x",
						i, c, k, math.Float64bits(gs[k]), math.Float64bits(ws[k]))
				}
			}
		}
	}
}

func TestCorruptEntryHealsAsMiss(t *testing.T) {
	cfg := smallConfig()
	s := suite(t, "nbench", cfg)
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := Key(s, cfg)
	if err := st.Put(key, tinyMeasurement()); err != nil {
		t.Fatal(err)
	}
	entry := onlyEntry(t, dir)
	valid, err := os.ReadFile(entry)
	if err != nil {
		t.Fatal(err)
	}
	flip := func(i int) []byte {
		b := bytes.Clone(valid)
		b[i] ^= 0x10
		return b
	}
	corrupt := map[string][]byte{
		"not an entry":      []byte("{not json"),
		"flipped magic bit": flip(0),
		"flipped name bit":  flip(len(entryMagic) + 4),
		"flipped float bit": flip(len(valid) - crcLen - 1),
		"flipped crc bit":   flip(len(valid) - 1),
		"trailing bytes":    append(bytes.Clone(valid), 0),
		"doubled entry":     append(bytes.Clone(valid), valid...),
	}
	// Every proper prefix: a torn write of any length.
	for n := 0; n < len(valid); n++ {
		corrupt[fmt.Sprintf("prefix %d", n)] = valid[:n]
	}
	for name, data := range corrupt {
		if err := os.WriteFile(entry, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := st.Get(key); ok {
			t.Fatalf("%s: corrupt entry served as hit", name)
		}
		if _, err := os.Stat(entry); !os.IsNotExist(err) {
			t.Fatalf("%s: corrupt entry not removed", name)
		}
	}
	// The slot heals: a fresh Put fills it and the next Get hits.
	m, err := suites.Run(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(key, m); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Get(key); !ok {
		t.Fatal("healed entry did not hit")
	}
}

// TestCorruptLayoutAllocatesNothing rewrites an entry's length fields
// to values far past its end, and separately pads its body, each with
// the checksum recomputed so only the layout walk can reject it: Get
// must miss without allocating what the lengths claim.
func TestCorruptLayoutAllocatesNothing(t *testing.T) {
	valid, err := encodeEntry(tinyMeasurement())
	if err != nil {
		t.Fatal(err)
	}
	end := len(valid) - crcLen
	resum := func(b []byte) []byte {
		n := len(b) - crcLen
		binary.LittleEndian.PutUint32(b[n:], crc32.Checksum(b[:n], castagnoli))
		return b
	}
	suiteLen := len(entryMagic)
	countAt := suiteLen + 4 + len("tiny")
	firstSeries := countAt + 4 + 4 + len("tiny.w0") + fixedLen
	corrupt := map[string][]byte{
		"padded body": resum(append(append(bytes.Clone(valid[:end]), 0, 0, 0, 0, 0, 0, 0, 0), valid[end:]...)),
	}
	for _, at := range []int{suiteLen, countAt, firstSeries} {
		b := bytes.Clone(valid)
		binary.LittleEndian.PutUint32(b[at:], math.MaxUint32)
		corrupt[fmt.Sprintf("length at byte %d", at)] = resum(b)
	}
	for name, b := range corrupt {
		var sm *perf.SuiteMeasurement
		allocs := testing.AllocsPerRun(10, func() { sm, err = decodeEntry(b) })
		if err == nil || sm != nil {
			t.Fatalf("%s: decoded a corrupt layout", name)
		}
		if allocs != 0 {
			t.Fatalf("%s: rejecting it allocated %v times", name, allocs)
		}
	}
}

// TestDecodedSeriesAreCapped appends to one decoded counter series:
// the decoder packs every series into one slab, so each must be capped
// at its own length or the append would overwrite its neighbour.
func TestDecodedSeriesAreCapped(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	want := tinyMeasurement()
	if err := st.Put("k", want); err != nil {
		t.Fatal(err)
	}
	got, ok := st.Get("k")
	if !ok {
		t.Fatal("entry missed")
	}
	for i := range got.Workloads {
		for c := range got.Workloads[i].Series.Samples {
			s := &got.Workloads[i].Series.Samples[c]
			*s = append(*s, math.Inf(-1), 12345)
			*s = (*s)[:len(*s)-2]
		}
	}
	sameBits(t, got, want)
}

// TestPutIsAtomicUnderConcurrentReaders pins down the temp-file +
// os.Rename contract of Put: while writers rewrite an entry, a reader
// must only ever observe a complete, valid entry — never a miss (the
// file always exists once written, and rename swaps inodes atomically)
// and never torn bytes (which Get would report by healing the entry
// away). Rename must also leave no temp files behind.
func TestPutIsAtomicUnderConcurrentReaders(t *testing.T) {
	cfg := smallConfig()
	s := suite(t, "nbench", cfg)
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	m, err := suites.Run(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	key := Key(s, cfg)
	if err := st.Put(key, m); err != nil {
		t.Fatal(err)
	}
	want, ok := st.Get(key)
	if !ok {
		t.Fatal("freshly written entry missed")
	}

	stop := make(chan struct{})
	errs := make(chan error, 8)
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				got, ok := st.Get(key)
				if !ok {
					// Would mean a reader caught the entry mid-write:
					// decoding failed and Get healed the file away.
					select {
					case errs <- fmt.Errorf("reader observed a torn or missing entry"):
					default:
					}
					return
				}
				if !reflect.DeepEqual(got, want) {
					select {
					case errs <- fmt.Errorf("reader observed a partial entry"):
					default:
					}
					return
				}
			}
		}()
	}
	var writers sync.WaitGroup
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := 0; i < 25; i++ {
				if err := st.Put(key, m); err != nil {
					select {
					case errs <- err:
					default:
					}
					return
				}
			}
		}()
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	tmps, err := filepath.Glob(filepath.Join(dir, "put-*.tmp"))
	if err != nil {
		t.Fatal(err)
	}
	if len(tmps) != 0 {
		t.Fatalf("Put left temp files behind: %v", tmps)
	}
}

func TestNilStorePassThrough(t *testing.T) {
	var st *Store
	if _, ok := st.Get("abc"); ok {
		t.Fatal("nil store hit")
	}
	if err := st.Put("abc", tinyMeasurement()); err != nil {
		t.Fatal(err)
	}
	if st.Stats() != "cache disabled" {
		t.Fatalf("nil stats = %q", st.Stats())
	}
}

func TestOpenRejectsEmptyDir(t *testing.T) {
	if _, err := Open(""); err == nil {
		t.Fatal("empty dir accepted")
	}
}

// tinyMeasurement is a small valid measurement with full series.
func tinyMeasurement() *perf.SuiteMeasurement {
	sm := &perf.SuiteMeasurement{Suite: "tiny"}
	for w := 0; w < 3; w++ {
		m := perf.Measurement{Workload: fmt.Sprintf("tiny.w%d", w)}
		m.Series.Interval = 1000
		for c := range m.Totals {
			m.Totals[c] = uint64(1000*w + c)
			m.Series.Samples[c] = []float64{float64(w), float64(c), 0.1 * float64(w+c), 1e300}
		}
		sm.Workloads = append(sm.Workloads, m)
	}
	return sm
}

// TestEntryReadersRejectTheSameShapes sends each structurally invalid
// measurement through both encodings a measurement is read back from: a
// trace JSON import and a cache entry. Neither may accept it, so the
// cache cannot hand the scorer a shape an imported trace could not.
func TestEntryReadersRejectTheSameShapes(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*perf.SuiteMeasurement)
		valid  bool
	}{
		{name: "valid", mutate: func(*perf.SuiteMeasurement) {}, valid: true},
		{name: "unsampled counter", valid: true, mutate: func(sm *perf.SuiteMeasurement) {
			sm.Workloads[1].Series.Samples[perf.LLCLoads] = nil
		}},
		{name: "no suite name", mutate: func(sm *perf.SuiteMeasurement) { sm.Suite = "" }},
		{name: "unnamed workload", mutate: func(sm *perf.SuiteMeasurement) { sm.Workloads[2].Workload = "" }},
		{name: "ragged series", mutate: func(sm *perf.SuiteMeasurement) {
			s := &sm.Workloads[0].Series.Samples[perf.BranchMisses]
			*s = (*s)[:len(*s)-1]
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sm := tinyMeasurement()
			tc.mutate(sm)
			if err := sm.Validate(); (err == nil) != tc.valid {
				t.Fatalf("Validate = %v, want valid=%v", err, tc.valid)
			}

			var buf bytes.Buffer
			if err := trace.WriteJSON(&buf, sm); err != nil {
				t.Fatal(err)
			}
			if _, err := trace.ReadJSON(&buf); (err == nil) != tc.valid {
				t.Errorf("trace.ReadJSON = %v, want valid=%v", err, tc.valid)
			}

			dir := t.TempDir()
			st, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if err := st.Put("k", sm); err != nil {
				t.Fatal(err)
			}
			got, ok := st.Get("k")
			if ok != tc.valid {
				t.Fatalf("Store.Get hit=%v, want %v", ok, tc.valid)
			}
			if ok && !reflect.DeepEqual(got, sm) {
				t.Error("cache entry did not round-trip")
			}
			if !ok {
				if entries, _ := filepath.Glob(filepath.Join(dir, "*")); len(entries) != 0 {
					t.Errorf("rejected entry not removed: %v", entries)
				}
			}
		})
	}
}

// entrySeeds are the inputs FuzzCacheGet starts from and
// TestGetSeedEntriesFromFile reads from disk: valid entries, their torn
// prefixes and bytes that are no entry at all.
func entrySeeds(tb testing.TB) [][]byte {
	var seeds [][]byte
	for _, sm := range []*perf.SuiteMeasurement{tinyMeasurement(), specialMeasurement()} {
		valid, err := encodeEntry(sm)
		if err != nil {
			tb.Fatal(err)
		}
		seeds = append(seeds, valid, valid[:len(valid)/2], valid[:len(valid)-crcLen])
	}
	return append(seeds, []byte{}, []byte(entryMagic), []byte("{not an entry"))
}

// FuzzCacheGet decodes arbitrary bytes as the contents of a cache entry
// file, with the decoder Store.Get runs on them. Decoding must never
// panic: it either rejects the bytes, or returns a measurement that
// passes Validate and survives an encode/decode round trip bit for bit.
// Each input is decoded in memory; TestGetSeedEntriesFromFile covers the
// file read, removal and Put around the decoder.
func FuzzCacheGet(f *testing.F) {
	for _, seed := range entrySeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := decodeEntry(data)
		if err != nil {
			return
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("decoded an invalid measurement: %v", err)
		}
		buf, err := encodeEntry(m)
		if err != nil {
			t.Fatal(err)
		}
		again, err := decodeEntry(buf)
		if err != nil {
			t.Fatalf("re-encoded entry rejected: %v", err)
		}
		sameBits(t, again, m)
	})
}

// TestGetSeedEntriesFromFile writes each of FuzzCacheGet's seeds as an
// entry file. Get either misses and removes the file, or returns a
// measurement that passes Validate and survives a Put/Get round trip bit
// for bit.
func TestGetSeedEntriesFromFile(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const key = "seed"
	hits := 0
	for i, data := range entrySeeds(t) {
		if err := os.WriteFile(st.path(key), data, 0o644); err != nil {
			t.Fatal(err)
		}
		m, ok := st.Get(key)
		if !ok {
			if _, err := os.Stat(st.path(key)); !os.IsNotExist(err) {
				t.Fatalf("seed %d: missed entry not removed: %v", i, err)
			}
			continue
		}
		hits++
		if err := m.Validate(); err != nil {
			t.Fatalf("seed %d: Get returned an invalid measurement: %v", i, err)
		}
		if err := st.Put(key, m); err != nil {
			t.Fatal(err)
		}
		again, ok := st.Get(key)
		if !ok {
			t.Fatalf("seed %d: re-put entry missed", i)
		}
		sameBits(t, again, m)
	}
	if hits != 2 {
		t.Fatalf("%d seeds hit, want the 2 valid entries", hits)
	}
}

// stockMeasurements simulates the six stock suites at the default
// config once per process: the entries a warm `perspector compare` reads.
var stockMeasurements = sync.OnceValues(func() ([]*perf.SuiteMeasurement, error) {
	return suites.RunAll(suites.DefaultConfig())
})

// BenchmarkStoreGet reads the six stock-suite entries back per op.
func BenchmarkStoreGet(b *testing.B) {
	sms, err := stockMeasurements()
	if err != nil {
		b.Fatal(err)
	}
	st, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	cfg := suites.DefaultConfig()
	var keys []string
	for i, s := range suites.All(cfg) {
		key := Key(s, cfg)
		if err := st.Put(key, sms[i]); err != nil {
			b.Fatal(err)
		}
		keys = append(keys, key)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, key := range keys {
			if _, ok := st.Get(key); !ok {
				b.Fatalf("miss on %s", key)
			}
		}
	}
}
