package source

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"perspector/internal/cache"
	"perspector/internal/perf"
	"perspector/internal/stage"
	"perspector/internal/suites"
	"perspector/internal/trace"
)

func testConfig() suites.Config {
	cfg := suites.DefaultConfig()
	cfg.Instructions = 5_000
	cfg.Samples = 5
	return cfg
}

func testSuite(t *testing.T, cfg suites.Config) suites.Suite {
	t.Helper()
	s, err := suites.ByName("nbench", cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Specs = s.Specs[:2]
	return s
}

func openStore(t *testing.T) *cache.Store {
	t.Helper()
	st, err := cache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestCachingHitMiss(t *testing.T) {
	cfg := testConfig()
	s := testSuite(t, cfg)
	st := openStore(t)
	src := Caching{Inner: Simulator{Cfg: cfg}, Store: st}

	cold, err := src.Measure(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if st.Hits() != 0 || st.Misses() != 1 {
		t.Fatalf("cold run: %d hits, %d misses", st.Hits(), st.Misses())
	}
	warm, err := src.Measure(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if st.Hits() != 1 || st.Misses() != 1 {
		t.Fatalf("warm run: %d hits, %d misses", st.Hits(), st.Misses())
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Fatal("warm measurement differs from cold")
	}
}

func TestCachingCorruptEntryHeals(t *testing.T) {
	cfg := testConfig()
	s := testSuite(t, cfg)
	dir := t.TempDir()
	st, err := cache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	src := Caching{Inner: Simulator{Cfg: cfg}, Store: st}

	cold, err := src.Measure(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the entry on disk: the next Measure must treat it as a miss,
	// re-simulate, and heal the slot. The entry is the only file in the
	// cache directory; its name is the cache package's business.
	entries, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil || len(entries) != 1 {
		t.Fatalf("cache dir holds %v (%v), want one entry", entries, err)
	}
	if err := os.WriteFile(entries[0], []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	healed, err := src.Measure(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold, healed) {
		t.Fatal("healed measurement differs from original")
	}
	if st.Misses() != 2 {
		t.Fatalf("corrupt entry not counted as miss: %d misses", st.Misses())
	}
	// Third read hits the healed entry.
	if _, err := src.Measure(context.Background(), s); err != nil {
		t.Fatal(err)
	}
	if st.Hits() != 1 {
		t.Fatalf("healed entry not hit: %d hits", st.Hits())
	}
}

func TestCachingNilStorePassThrough(t *testing.T) {
	cfg := testConfig()
	s := testSuite(t, cfg)
	src := Caching{Inner: Simulator{Cfg: cfg}, Store: nil}
	direct, err := Simulator{Cfg: cfg}.Measure(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	through, err := src.Measure(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(direct, through) {
		t.Fatal("nil-store Caching altered the measurement")
	}
}

func TestCachingKeylessSourceBypassesStore(t *testing.T) {
	cfg := testConfig()
	s := testSuite(t, cfg)
	m, err := Simulator{Cfg: cfg}.Measure(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteJSON(f, m); err != nil {
		t.Fatal(err)
	}
	f.Close()

	st := openStore(t)
	src := Caching{Inner: TraceFile{Path: path}, Store: st}
	got, err := src.Measure(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, got) {
		t.Fatal("trace round-trip altered the measurement")
	}
	if st.Hits() != 0 || st.Misses() != 0 {
		t.Fatalf("keyless source touched the store: %d hits, %d misses", st.Hits(), st.Misses())
	}
}

func TestTraceFileCSVTotalsOnly(t *testing.T) {
	cfg := testConfig()
	s := testSuite(t, cfg)
	m, err := Simulator{Cfg: cfg}.Measure(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "totals.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteCSV(f, m, perf.AllCounters()); err != nil {
		t.Fatal(err)
	}
	f.Close()

	got, err := TraceFile{Path: path, Format: "csv", SuiteName: "imported"}.
		Measure(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if got.Suite != "imported" {
		t.Fatalf("suite name = %q", got.Suite)
	}
	for i := range got.Workloads {
		if got.Workloads[i].Series.Len() != 0 {
			t.Fatalf("CSV import carries series for workload %d", i)
		}
	}
}

func TestTraceFileErrors(t *testing.T) {
	if _, err := (TraceFile{Path: "/nonexistent/trace.json"}).Measure(context.Background(), suites.Suite{}); err == nil {
		t.Fatal("missing file accepted")
	}
	if _, err := (TraceFile{Path: "x", Format: "xml"}).Measure(context.Background(), suites.Suite{}); err == nil {
		t.Fatal("unknown format accepted")
	}
}

func TestKeysDistinguishSources(t *testing.T) {
	cfg := testConfig()
	s := testSuite(t, cfg)
	if (Simulator{Cfg: cfg}).Key(s) == "" {
		t.Fatal("simulator claims no cache key")
	}
	if (TraceFile{Path: "x"}).Key(s) != "" {
		t.Fatal("trace file claims a cache key")
	}
}

func TestCancelledMeasureNotCached(t *testing.T) {
	cfg := testConfig()
	s := testSuite(t, cfg)
	st := openStore(t)
	src := Caching{Inner: Simulator{Cfg: cfg}, Store: st}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := src.Measure(ctx, s)
	if err == nil {
		t.Fatal("cancelled measurement succeeded")
	}
	if !stage.Canceled(err) {
		t.Fatalf("error not recognized as cancellation: %v", err)
	}
	if _, ok := st.Get(src.Key(s)); ok {
		t.Fatal("cancelled (partial) measurement was cached")
	}
}
