// Package cache is a content-addressed on-disk cache for suite
// measurements. Simulating a suite is the dominant cost of every CLI
// invocation (score, compare, subset, figures); because the simulator is
// fully deterministic, a measurement is a pure function of the suite
// definition and the simulation config — so it can be keyed by a hash of
// those inputs and reused across processes.
//
// # Key scheme
//
// Key hashes (SHA-256) the canonical rendering of everything the
// measurement depends on:
//
//   - a schema version (bump SchemaVersion whenever the simulator or the
//     workload models change what a measurement holds — that is the only
//     invalidation rule besides deleting the directory; a new entry
//     format takes a new file extension instead, see below),
//   - the suite name and every workload spec — rendered through the
//     workload codec's canonical JSON, which tags every access pattern
//     with its generator kind. (The former %+v rendering dropped Go type
//     names, so two pattern kinds with the same field shape — Random and
//     PointerChase — hashed identically; with user-loaded spec files that
//     collision became reachable.)
//   - the config: instruction budget, sample count, master seed, and the
//     totals-only switch (a totals-only measurement carries no series, so
//     it must never be served to a full-series run),
//   - the full machine configuration (cache geometry, TLB, predictor,
//     prefetcher, latencies — a microarchitectural change must miss).
//
// # Entry format
//
// Entries are stored as <dir>/<hex key>.meas, one flat little-endian
// record per suite measurement: a magic header, the length-prefixed
// suite and workload names, each workload's 14 counter totals and sample
// interval as u64, each counter's series as a count followed by the
// IEEE-754 bits of its samples, and a CRC-32C trailer over everything
// before it (entry.go has the byte layout). Float64s are stored as their
// bits, so series round-trip bit-exactly and scores computed from a warm
// cache are bit-identical to a cold run — enforced by
// TestScoreDeterminismColdVsWarmCache.
//
// The format is private to this package and made for a warm compare,
// which reads six entries per op: Put writes one exactly-sized buffer;
// Get reads the file with one read into a pooled buffer, checks the
// checksum and every length against the bytes left before allocating,
// and decodes the suite's series into one float slab, each counter's
// slice capped at its own length. Reading the six stock suites' entries
// (BenchmarkStoreGet, 2-vCPU Xeon VM) takes about 1 ms, 1.4 MB and 180
// allocations, against 3.3–3.6 ms, 2.4 MB and 6,852 with encoding/gob
// (DESIGN.md, "Measurement cache"). Trace JSON remains the user-facing
// interchange format (ExportJSON, ImportJSON, trace files).
//
// Entries written before the flat format (*.gob from schema version 3,
// *.json from earlier ones) are orphaned, not migrated: Get never opens
// them, and they are safe to delete. The format change did not bump
// SchemaVersion: the version is hashed into every key, and the job and
// stream content keys built on Key, so a bump would orphan stored job
// results and move fleet ring placements for a change that alters no
// measured bit.
//
// Get checks a decoded entry with SuiteMeasurement.Validate, the same
// structural checks trace.ReadJSON applies, so a corrupt file cannot
// hand the scorer a shape an imported trace could not. An entry that
// fails the checksum, the layout or Validate is a miss and is removed.
//
// A nil *Store is a valid pass-through: Get always misses and Put is a
// no-op, which lets callers thread one variable through -no-cache paths.
//
// # Measure
//
// Store.Measure is the one cached measurement path: the CLIs and
// perspectord's jobs measure through it. On a hit it returns the
// decoded entry; on a miss it runs suites.RunContext and stores the
// result. It records a "measure" span whose "cache" attribute is "hit"
// or "miss", and counts obs.CounterCacheHits or obs.CounterCacheMisses,
// in the recorder ctx carries. A failed or cancelled run is never
// stored, and a failed Put does not fail the measurement. On a nil
// Store, Measure simulates every time without computing the key:
// nothing could hit.
package cache

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"

	"perspector/internal/obs"
	"perspector/internal/perf"
	"perspector/internal/suites"
	"perspector/internal/workload"
)

// SchemaVersion invalidates every existing entry when bumped. It must
// change whenever the simulator or the workload models change the values
// a measurement holds — or, as with the move to canonical spec JSON in
// the key, when the key scheme itself changes. Version 3 moved entries
// from trace JSON to gob; the flat format that replaced gob kept it, and
// took a new file extension instead (see the package comment).
const SchemaVersion = 3

// Store is an on-disk measurement cache rooted at one directory.
type Store struct {
	dir          string
	hits, misses atomic.Int64
}

// Open returns a Store rooted at dir, creating the directory if needed.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("cache: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cache: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Key returns the content hash identifying the measurement of suite s
// under cfg. Everything that can change a single counter value is folded
// into the hash; see the package comment for the scheme.
func Key(s suites.Suite, cfg suites.Config) string {
	h := sha256.New()
	fmt.Fprintf(h, "schema=%d\nsuite=%s\ninstr=%d\nsamples=%d\nseed=%d\ntotals-only=%t\n",
		SchemaVersion, s.Name, cfg.Instructions, cfg.Samples, cfg.Seed, cfg.TotalsOnly)
	// %+v renders the machine config deterministically: plain fields, no
	// maps, pointers, or interfaces.
	fmt.Fprintf(h, "machine=%+v\n", cfg.Machine)
	for i := range s.Specs {
		// The canonical codec JSON tags every access pattern with its
		// generator kind, so patterns with identical field shapes cannot
		// collide, and user-loaded specs hash exactly like embedded ones.
		data, err := workload.MarshalSpec(s.Specs[i])
		if err != nil {
			// Unserializable pattern (a custom PatternSpec implementation
			// from the Go API): fall back to the typed reflective rendering
			// so the key still reacts to every field, including type names.
			fmt.Fprintf(h, "spec[%d]!%T=%#v\n", i, s.Specs[i], s.Specs[i])
			continue
		}
		fmt.Fprintf(h, "spec[%d]=%s\n", i, data)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// RingPoint maps a content key to its position on a consistent-hash
// ring — the fleet's key-ownership helper. The keys produced by Key
// (and by the request hashing built on it) are hex SHA-256, already
// uniformly distributed, so the first 64 bits are the point; any other
// key shape is re-hashed first. Ownership therefore follows the content
// address itself: the same measurement or job key lands on the same
// node from any process, which is what turns each node's measurement
// cache into a shard of one fleet-wide cache.
func RingPoint(key string) uint64 {
	if len(key) >= 16 {
		if raw, err := hex.DecodeString(key[:16]); err == nil {
			return binary.BigEndian.Uint64(raw)
		}
	}
	sum := sha256.Sum256([]byte(key))
	return binary.BigEndian.Uint64(sum[:8])
}

// path returns the entry file for a key.
func (st *Store) path(key string) string {
	return filepath.Join(st.dir, key+".meas")
}

// Get returns the cached measurement for key, or (nil, false) on a miss.
// Unreadable, undecodable or invalid entries count as misses and are
// removed.
func (st *Store) Get(key string) (*perf.SuiteMeasurement, bool) {
	if st == nil {
		return nil, false
	}
	path := st.path(key)
	m, err := readEntry(path)
	if err != nil {
		if err == errCorrupt {
			// A corrupt entry: drop it so the slot heals.
			os.Remove(path)
		}
		st.misses.Add(1)
		return nil, false
	}
	st.hits.Add(1)
	return m, true
}

// Put stores a measurement under key. The entry is written to a temp
// file and renamed, so concurrent readers never observe a torn entry.
func (st *Store) Put(key string, m *perf.SuiteMeasurement) error {
	if st == nil {
		return nil
	}
	buf, err := encodeEntry(m)
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(st.dir, "put-*.tmp")
	if err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		return fmt.Errorf("cache: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	if err := os.Rename(tmp.Name(), st.path(key)); err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	return nil
}

// Measure returns the measurement of s under cfg: the stored entry on a
// hit, else a fresh simulation, which it stores. hit reports which one
// ran. See the package comment for the contract.
func (st *Store) Measure(ctx context.Context, s suites.Suite, cfg suites.Config) (m *perf.SuiteMeasurement, hit bool, err error) {
	ctx, span := obs.Start(ctx, "measure", obs.String("suite", s.Name))
	defer span.End()
	var key string
	if st != nil {
		key = Key(s, cfg)
		if m, ok := st.Get(key); ok {
			span.SetAttr("cache", "hit")
			obs.FromContext(ctx).Count(obs.CounterCacheHits, 1)
			return m, true, nil
		}
	}
	span.SetAttr("cache", "miss")
	obs.FromContext(ctx).Count(obs.CounterCacheMisses, 1)
	if m, err = suites.RunContext(ctx, s, cfg); err != nil {
		return nil, false, err
	}
	st.Put(key, m) // a failed write (e.g. a full disk) only loses the entry
	return m, false, nil
}

// Hits returns the number of cache hits since Open.
func (st *Store) Hits() int64 {
	if st == nil {
		return 0
	}
	return st.hits.Load()
}

// Misses returns the number of cache misses since Open.
func (st *Store) Misses() int64 {
	if st == nil {
		return 0
	}
	return st.misses.Load()
}

// Stats formats the hit/miss counters for verbose CLI output.
func (st *Store) Stats() string {
	if st == nil {
		return "cache disabled"
	}
	return fmt.Sprintf("cache: %d hits, %d misses (%s)", st.Hits(), st.Misses(), st.dir)
}
