package store

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzStoreReplay treats the fuzzed bytes as a result log. Open must
// replay it without panicking, index only records that validate, and
// hand back through Records a snapshot that, applied to an empty store,
// reproduces its List — the backfill a joining fleet worker receives.
func FuzzStoreReplay(f *testing.F) {
	var log []byte
	for i, key := range []string{"k1", "k2", "k1", "k3", "k2"} {
		line, err := json.Marshal(stampedRecord(key, i%3))
		if err != nil {
			f.Fatal(err)
		}
		log = append(append(log, line...), '\n')
	}
	f.Add(log)
	f.Add(log[:len(log)-9]) // torn final line
	f.Add([]byte{})
	f.Add([]byte("\n\n{}\nnot json\n"))
	f.Add([]byte(`{"key":"k","at":"yesterday","set":{"schema":1,"kind":"score","suites":[{"suite":"s"}]}}` + "\n" +
		`{"key":"k","at":"","set":{"schema":1,"kind":"compare","suites":[{"suite":"t"}]}}` + "\n" +
		`{"key":"j","set":{"schema":1,"kind":"compare","suites":[{"suite":"t"}]}}` + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, logName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := Open(dir)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		defer st.Close()
		recs := st.Records()
		for _, rec := range recs {
			if rec.Key == "" || rec.At == "" {
				t.Fatalf("indexed record without key or timestamp: %+v", rec)
			}
			if err := rec.Set.Validate(); err != nil {
				t.Fatalf("indexed record %q does not validate: %v", rec.Key, err)
			}
		}
		fresh, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		defer fresh.Close()
		for _, rec := range recs {
			if _, err := fresh.Apply(rec); err != nil {
				t.Fatalf("Apply %q: %v", rec.Key, err)
			}
		}
		if got, want := fresh.List(), st.List(); !reflect.DeepEqual(got, want) {
			t.Fatalf("replayed List %+v, want %+v", got, want)
		}
	})
}
