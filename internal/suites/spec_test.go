package suites

import (
	"strings"
	"testing"
)

// TestRegistryOrderAndNames pins the listing contract: the stock six in
// paper order first, the spec-only families after, and the
// unknown-suite error derived from the same table.
func TestRegistryOrderAndNames(t *testing.T) {
	names := Names()
	wantPrefix := []string{"parsec", "spec17", "ligra", "lmbench", "nbench", "sgxgauge"}
	if len(names) < len(wantPrefix) {
		t.Fatalf("registry has %d suites, want at least %d", len(names), len(wantPrefix))
	}
	for i, w := range wantPrefix {
		if names[i] != w {
			t.Errorf("Names()[%d] = %q, want %q", i, names[i], w)
		}
	}
	for _, extra := range []string{"bigdatabench", "cpu2026"} {
		found := false
		for _, n := range names {
			if n == extra {
				found = true
			}
		}
		if !found {
			t.Errorf("registry missing spec-only suite %q", extra)
		}
	}
	cfg := DefaultConfig()
	if len(All(cfg)) != 6 {
		t.Errorf("All() returns %d suites, want the stock six", len(All(cfg)))
	}
	if got := len(Registered(cfg)); got != len(names) {
		t.Errorf("Registered() returns %d suites, Names() lists %d", got, len(names))
	}
	_, err := ByName("nosuch", cfg)
	if err == nil {
		t.Fatal("unknown suite accepted")
	}
	for _, n := range names {
		if !strings.Contains(err.Error(), n) {
			t.Errorf("unknown-suite error %q does not list %q", err, n)
		}
	}
}

// TestSpecOnlySuitesRun: the two PAPERS.md-derived families outside the
// stock six must validate, build, and simulate end to end.
func TestSpecOnlySuitesRun(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Instructions = 20_000
	cfg.Samples = 20
	for _, name := range []string{"bigdatabench", "cpu2026"} {
		s, err := ByName(name, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(s.Specs) < 8 {
			t.Errorf("%s: only %d workloads", name, len(s.Specs))
		}
		for i := range s.Specs {
			if err := s.Specs[i].Validate(); err != nil {
				t.Errorf("%s: %v", name, err)
			}
			if !strings.HasPrefix(s.Specs[i].Name, name+".") {
				t.Errorf("%s: workload %q not prefixed", name, s.Specs[i].Name)
			}
		}
		sm, err := Run(s, cfg)
		if err != nil {
			t.Fatalf("%s: run: %v", name, err)
		}
		for i := range sm.Workloads {
			if sm.Workloads[i].Totals.Get(0) == 0 {
				t.Errorf("%s: workload %s measured zero cycles", name, sm.Workloads[i].Workload)
			}
		}
	}
}

// TestDecodeSuiteSpecRejects covers the spec-level failure modes that
// sit above the workload codec: version, naming, duplicates, emptiness.
func TestDecodeSuiteSpecRejects(t *testing.T) {
	phases := `[{"weight":1,"load_frac":0.2,"load_pattern":{"kind":"random","working_set":65536}}]`
	cases := []struct {
		name string
		doc  string
		want string
	}{
		{"bad version", `{"version":9,"name":"x","workloads":[{"name":"x.a","phases":` + phases + `}]}`, "version"},
		{"no name", `{"version":1,"name":"","workloads":[{"name":"x.a","phases":` + phases + `}]}`, "no name"},
		{"no workloads", `{"version":1,"name":"x","workloads":[]}`, "no workloads"},
		{"unnamed workload", `{"version":1,"name":"x","workloads":[{"name":"","phases":` + phases + `}]}`, "no name"},
		{"duplicate workload", `{"version":1,"name":"x","workloads":[{"name":"x.a","phases":` + phases + `},{"name":"x.a","phases":` + phases + `}]}`, "duplicate"},
		{"no phases", `{"version":1,"name":"x","workloads":[{"name":"x.a","phases":[]}]}`, "phases"},
		{"unknown field", `{"version":1,"name":"x","suites":1,"workloads":[{"name":"x.a","phases":` + phases + `}]}`, "unknown field"},
		{"bad weight", `{"version":1,"name":"x","workloads":[{"name":"x.a","phases":[{"weight":-1,"load_frac":0.2,"load_pattern":{"kind":"random","working_set":65536}}]}]}`, "weight"},
		{"unknown kind", `{"version":1,"name":"x","workloads":[{"name":"x.a","phases":[{"weight":1,"load_frac":0.2,"load_pattern":{"kind":"gather","working_set":65536}}]}]}`, "unknown pattern kind"},
	}
	for _, tc := range cases {
		_, err := UnmarshalSuiteSpec([]byte(tc.doc))
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}
