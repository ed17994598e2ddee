package store

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// logName is the append-only result log inside the store directory.
const logName = "results.jsonl"

// Record is one completed run in the store: the content address, the
// completion time, and the document itself.
type Record struct {
	// Key is the content address of the run that produced the set — the
	// same hash family as internal/cache, extended with the scoring
	// request (kind, group, suites). Identical requests share a key.
	Key string `json:"key"`
	// At is the completion time in RFC 3339 UTC.
	At  string   `json:"at"`
	Set ScoreSet `json:"set"`
}

// Summary is the listing row for one record: everything but the scores.
type Summary struct {
	Key    string   `json:"key"`
	At     string   `json:"at"`
	Kind   string   `json:"kind"`
	Group  string   `json:"group,omitempty"`
	Source string   `json:"source,omitempty"`
	Suites []string `json:"suites"`
}

// Store is an append-only on-disk store of completed ScoreSets. Every
// Put appends one JSON line to results.jsonl and never rewrites earlier
// bytes, so a crash can at worst truncate the final line — which Open
// detects and ignores, keeping every fully-written record. The newest
// record for a key wins on Get, so re-running a request after a schema
// bump simply shadows the old result.
//
// "Newest" is decided by the record's At timestamp, not by log
// position: with a deterministic tie-break for equal timestamps, the
// index is a pure function of the *set* of records replayed, so two
// nodes that apply each other's records in any interleaving — the fleet
// replication path (Apply) — converge to the same newest-per-key view.
//
// A nil *Store is a valid pass-through: Put is a no-op, Get always
// misses, List is empty — callers thread one variable through
// "no store configured" paths.
type Store struct {
	mu    sync.Mutex
	f     *os.File
	index map[string]ScoreSet
	at    map[string]string
	order []string // keys in first-seen order
}

// Open opens (creating if needed) the store rooted at dir and replays
// the log into the in-memory index. A torn final line — the only
// corruption an append-only log can suffer from a crash — is skipped.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	path := filepath.Join(dir, logName)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	st := &Store{f: f, index: make(map[string]ScoreSet), at: make(map[string]string)}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 64*1024*1024)
	for sc.Scan() {
		var rec Record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			// A torn line: either the tail of a crashed append, or a line
			// garbled before a previous Open sealed the file. Skip it —
			// every complete line around it is still valid JSON.
			continue
		}
		if rec.Key == "" || rec.At == "" || rec.Set.Validate() != nil {
			// Unknown schema, or a record Apply could not replicate: keep
			// the bytes, skip the record.
			continue
		}
		st.add(rec)
	}
	if err := sc.Err(); err != nil {
		f.Close()
		return nil, fmt.Errorf("store: replaying %s: %w", path, err)
	}
	// A crash mid-append leaves the file without a trailing '\n'. Seal it
	// now so the next append starts on a fresh line instead of merging
	// into the partial one (which would garble an otherwise-good record).
	if fi, err := f.Stat(); err == nil && fi.Size() > 0 {
		var last [1]byte
		if _, err := f.ReadAt(last[:], fi.Size()-1); err == nil && last[0] != '\n' {
			if _, err := f.Write([]byte("\n")); err != nil {
				f.Close()
				return nil, fmt.Errorf("store: sealing %s: %w", path, err)
			}
		}
	}
	return st, nil
}

// add indexes one replayed or freshly appended record, keeping the
// newest record per key. Caller holds mu (or is Open, before the store
// escapes).
func (st *Store) add(rec Record) {
	at, seen := st.at[rec.Key]
	if !seen {
		st.order = append(st.order, rec.Key)
	} else if !supersedes(rec, at, st.index[rec.Key]) {
		return
	}
	st.index[rec.Key] = rec.Set
	st.at[rec.Key] = rec.At
}

// supersedes reports whether rec should shadow the indexed (at, set)
// entry for its key. Later At wins; an equal At falls back to comparing
// the rendered documents, so the verdict depends only on the two records
// — never on which arrived first. Unparseable timestamps (hand-edited
// logs) compare as strings, which for RFC 3339 UTC is date order.
func supersedes(rec Record, at string, set ScoreSet) bool {
	ta, errA := time.Parse(time.RFC3339Nano, rec.At)
	tb, errB := time.Parse(time.RFC3339Nano, at)
	if errA == nil && errB == nil {
		if !ta.Equal(tb) {
			return ta.After(tb)
		}
	} else if rec.At != at {
		return rec.At > at
	}
	// Same instant: deterministic content tie-break. Identical documents
	// need no replacement either way.
	recJSON, _ := json.Marshal(rec.Set)
	oldJSON, _ := json.Marshal(set)
	return string(recJSON) > string(oldJSON)
}

// Put appends the document under its content address. The line is
// written with a single Write call on an O_APPEND descriptor, so
// concurrent Puts from this process never interleave bytes.
func (st *Store) Put(key string, set ScoreSet) error {
	if st == nil {
		return nil
	}
	rec := Record{Key: key, At: time.Now().UTC().Format(time.RFC3339Nano), Set: set}
	_, err := st.append(rec, false)
	return err
}

// Apply appends a record replicated from another node, preserving its
// original timestamp so every replica ranks it identically. It is
// idempotent: a record that would not supersede the indexed one for its
// key (it is older, or the identical document) is skipped without
// touching the log, so replaying a peer's full log over and over leaves
// both the index and the file unchanged. The bool reports whether the
// record was applied.
func (st *Store) Apply(rec Record) (bool, error) {
	if st == nil {
		return false, nil
	}
	if rec.At == "" {
		return false, fmt.Errorf("store: replicated record without a timestamp")
	}
	return st.append(rec, true)
}

// append writes one record to the log and index. When onlyNewer is set
// the write is skipped unless the record supersedes the current index
// entry for its key.
func (st *Store) append(rec Record, onlyNewer bool) (bool, error) {
	if rec.Key == "" {
		return false, fmt.Errorf("store: empty key")
	}
	if err := rec.Set.Validate(); err != nil {
		return false, err
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return false, fmt.Errorf("store: %w", err)
	}
	line = append(line, '\n')
	st.mu.Lock()
	defer st.mu.Unlock()
	if onlyNewer {
		if at, seen := st.at[rec.Key]; seen && !supersedes(rec, at, st.index[rec.Key]) {
			return false, nil
		}
	}
	if _, err := st.f.Write(line); err != nil {
		return false, fmt.Errorf("store: %w", err)
	}
	st.add(rec)
	return true, nil
}

// Records returns the newest record per key, in first-seen key order —
// the snapshot a coordinator streams to a joining worker as backfill.
// Applying the result to any store is a no-op for every record it
// already holds.
func (st *Store) Records() []Record {
	if st == nil {
		return nil
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]Record, 0, len(st.order))
	for _, key := range st.order {
		out = append(out, Record{Key: key, At: st.at[key], Set: st.index[key]})
	}
	return out
}

// Get returns the newest document stored under key.
func (st *Store) Get(key string) (ScoreSet, bool) {
	if st == nil {
		return ScoreSet{}, false
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	set, ok := st.index[key]
	return set, ok
}

// List returns one summary per distinct key, in first-seen order.
func (st *Store) List() []Summary {
	if st == nil {
		return nil
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]Summary, 0, len(st.order))
	for _, key := range st.order {
		set := st.index[key]
		names := make([]string, len(set.Suites))
		for i, s := range set.Suites {
			names[i] = s.Suite
		}
		out = append(out, Summary{
			Key: key, At: st.at[key],
			Kind: set.Kind, Group: set.Group, Source: set.Source,
			Suites: names,
		})
	}
	return out
}

// Len returns the number of distinct keys stored.
func (st *Store) Len() int {
	if st == nil {
		return 0
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.order)
}

// Close syncs and closes the log file.
func (st *Store) Close() error {
	if st == nil {
		return nil
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if err := st.f.Sync(); err != nil {
		st.f.Close()
		return fmt.Errorf("store: %w", err)
	}
	return st.f.Close()
}
