package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"perspector"
	"perspector/internal/perf"
	"perspector/internal/stage"
	"perspector/internal/store"
	"perspector/internal/trace"
)

// capture swaps stdout for a buffer around fn.
func capture(t *testing.T, fn func() error) string {
	t.Helper()
	var buf bytes.Buffer
	old := stdout
	stdout = &buf
	defer func() { stdout = old }()
	if err := fn(); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// fast shrinks the simulation flags so CLI tests stay quick.
func fast(args ...string) []string {
	return append(args, "-instr", "20000", "-samples", "10")
}

func TestRunList(t *testing.T) {
	out := capture(t, func() error { return runList(nil) })
	for _, want := range []string{"parsec", "spec17", "ligra", "lmbench", "nbench", "sgxgauge",
		"cpu-cycles", "LLC-load-misses", "event groups"} {
		if !strings.Contains(out, want) {
			t.Errorf("list output missing %q", want)
		}
	}
	verbose := capture(t, func() error { return runList([]string{"-v"}) })
	if !strings.Contains(verbose, "spec17.505.mcf_r") {
		t.Error("verbose list missing workload names")
	}
}

func TestRunScore(t *testing.T) {
	out := capture(t, func() error { return runScore(fast("-suite", "nbench")) })
	if !strings.Contains(out, "nbench") || !strings.Contains(out, "cluster") {
		t.Errorf("score output:\n%s", out)
	}
}

// TestRunScoreJSONRoundTrip checks the -json satellite: the document is
// the service's ScoreSet schema and decodes back to the exact scores the
// engine computed for the same flags.
func TestRunScoreJSONRoundTrip(t *testing.T) {
	out := capture(t, func() error { return runScore(fast("-suite", "nbench", "-json")) })
	var set store.ScoreSet
	if err := json.Unmarshal([]byte(out), &set); err != nil {
		t.Fatalf("score -json is not valid JSON: %v\n%s", err, out)
	}
	if err := set.Validate(); err != nil {
		t.Fatal(err)
	}
	if set.Kind != store.KindScore || set.Source != "simulator" || set.Group != "all" {
		t.Fatalf("envelope: %+v", set)
	}
	if set.Config == nil || set.Config.Instructions != 20000 || set.Config.Samples != 10 || set.Config.Seed != 2023 {
		t.Fatalf("config: %+v", set.Config)
	}

	// Reference scores through the library with the same parameters.
	cfg := perspector.DefaultConfig()
	cfg.Instructions, cfg.Samples = 20000, 10
	s, err := perspector.SuiteByName("nbench", cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := perspector.Measure(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := perspector.Score(m, perspector.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if got := set.Scores(); len(got) != 1 || got[0] != want {
		t.Fatalf("decoded scores diverge from the engine:\n got %x\nwant %x", got, want)
	}
}

func TestRunCompareJSONRoundTrip(t *testing.T) {
	out := capture(t, func() error {
		return runCompare(fast("-suites", "nbench,sgxgauge", "-json"))
	})
	var set store.ScoreSet
	if err := json.Unmarshal([]byte(out), &set); err != nil {
		t.Fatalf("compare -json is not valid JSON: %v\n%s", err, out)
	}
	if set.Kind != store.KindCompare || len(set.Suites) != 2 {
		t.Fatalf("envelope: %+v", set)
	}
	if set.Suites[0].Suite != "nbench" || set.Suites[1].Suite != "sgxgauge" {
		t.Fatalf("suite order: %+v", set.Suites)
	}
}

func TestRunScoreErrors(t *testing.T) {
	if err := runScore(nil); err == nil {
		t.Error("missing -suite accepted")
	}
	if err := runScore(fast("-suite", "bogus")); err == nil {
		t.Error("bogus suite accepted")
	}
	if err := runScore(fast("-suite", "nbench", "-repeat", "0")); err == nil {
		t.Error("repeat 0 accepted")
	}
	if err := runScore(fast("-suite", "nbench", "-group", "bogus")); err == nil {
		t.Error("bogus group accepted")
	}
	if err := runScore(fast("-suite", "nbench", "-repeat", "2", "-json")); err == nil {
		t.Error("-json with -repeat accepted")
	}
}

func TestRunScoreRepeat(t *testing.T) {
	out := capture(t, func() error {
		return runScore(fast("-suite", "nbench", "-repeat", "2"))
	})
	if !strings.Contains(out, "±") || !strings.Contains(out, "2 seeds") {
		t.Errorf("repeat output:\n%s", out)
	}
}

func TestRunCompareWithRank(t *testing.T) {
	out := capture(t, func() error {
		return runCompare(fast("-suites", "nbench,sgxgauge", "-rank"))
	})
	for _, want := range []string{"nbench", "sgxgauge", "rankings", "overall"} {
		if !strings.Contains(out, want) {
			t.Errorf("compare output missing %q:\n%s", want, out)
		}
	}
}

func TestRunCompareErrors(t *testing.T) {
	if err := runCompare(fast("-suites", "")); err == nil {
		t.Error("empty suite list accepted")
	}
	if err := runCompare(fast("-suites", "bogus")); err == nil {
		t.Error("bogus suite accepted")
	}
	if err := runCompare(fast("-suites", "nbench", "-json", "-rank")); err == nil {
		t.Error("-json with -rank accepted")
	}
}

func TestRunDumpCSV(t *testing.T) {
	out := capture(t, func() error { return runDump(fast("-suite", "nbench")) })
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 11 { // header + 10 workloads
		t.Fatalf("dump lines = %d", len(lines))
	}
	if !strings.HasPrefix(lines[0], "workload,cpu-cycles") {
		t.Errorf("dump header = %q", lines[0])
	}
	if err := runDump(fast()); err == nil {
		t.Error("missing -suite accepted")
	}
}

func TestRunSubset(t *testing.T) {
	out := capture(t, func() error {
		return runSubset(fast("-suite", "spec17", "-size", "5"))
	})
	if !strings.Contains(out, "deviation") {
		t.Errorf("subset output:\n%s", out)
	}
	if strings.Count(out, "spec17.") != 5 {
		t.Errorf("subset did not list 5 workloads:\n%s", out)
	}
}

func TestRunPhases(t *testing.T) {
	out := capture(t, func() error {
		return runPhases(fast("-suite", "nbench", "-workload", "nbench.idea"))
	})
	if !strings.Contains(out, "phase boundaries") {
		t.Errorf("phases output:\n%s", out)
	}
	if err := runPhases(fast("-suite", "nbench", "-workload", "nope")); err == nil {
		t.Error("unknown workload accepted")
	}
	if err := runPhases(fast("-suite", "nbench", "-workload", "nbench.idea",
		"-counter", "bogus")); err == nil {
		t.Error("bogus counter accepted")
	}
}

func TestRunProfile(t *testing.T) {
	out := capture(t, func() error { return runProfile(fast("-suite", "nbench")) })
	if !strings.Contains(out, "boundaries/workload") {
		t.Errorf("profile output:\n%s", out)
	}
}

func TestRunBaseline(t *testing.T) {
	out := capture(t, func() error {
		return runBaseline(fast("-suite", "nbench", "-k", "3"))
	})
	if !strings.Contains(out, "silhouette") || strings.Count(out, "cluster ") < 3 {
		t.Errorf("baseline output:\n%s", out)
	}
	if err := runBaseline(fast("-suite", "nbench", "-linkage", "bogus")); err == nil {
		t.Error("bogus linkage accepted")
	}
}

func TestRunRedundancy(t *testing.T) {
	out := capture(t, func() error {
		return runRedundancy(fast("-suite", "spec17", "-threshold", "0.95"))
	})
	if !strings.Contains(out, "r =") && !strings.Contains(out, "no counter pairs") {
		t.Errorf("redundancy output:\n%s", out)
	}
}

// TestScoreFileGroupSeriesOnly scores a trace that samples only the LLC
// counters. Under -group llc it scores all four, with the trend; under
// every counter it reports the three totals-based scores and names the
// counters that lack series.
func TestScoreFileGroupSeriesOnly(t *testing.T) {
	dir := t.TempDir()
	fullPath := filepath.Join(dir, "full.json")
	capture(t, func() error {
		return runExport(fast("-suite", "nbench", "-o", fullPath))
	})
	f, err := os.Open(fullPath)
	if err != nil {
		t.Fatal(err)
	}
	m, err := trace.ReadJSON(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	llc := perf.GroupLLC().Counters
	for i := range m.Workloads {
		var keep perf.TimeSeries
		keep.Interval = m.Workloads[i].Series.Interval
		for _, c := range llc {
			keep.Samples[c] = m.Workloads[i].Series.Samples[c]
		}
		m.Workloads[i].Series = keep
	}
	llcPath := filepath.Join(dir, "llc.json")
	var buf bytes.Buffer
	if err := trace.WriteJSON(&buf, m); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(llcPath, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	want := capture(t, func() error {
		return runScoreFile([]string{"-f", fullPath, "-group", "llc"})
	})
	got := capture(t, func() error {
		return runScoreFile([]string{"-f", llcPath, "-group", "llc"})
	})
	if got != want || !strings.Contains(got, "nbench") || strings.Contains(got, "unavailable") {
		t.Fatalf("LLC-only trace under -group llc:\n%s\nwant the full trace's\n%s", got, want)
	}
	out := capture(t, func() error {
		return runScoreFile([]string{"-f", llcPath})
	})
	if !strings.Contains(out, "no time-series data for cpu-cycles, branch-instructions,") ||
		strings.Contains(out, "LLC-loads") || !strings.Contains(out, "TrendScore unavailable") {
		t.Fatalf("LLC-only trace under every counter:\n%s", out)
	}
}

func TestRunExportScoreFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.json")
	capture(t, func() error {
		return runExport(fast("-suite", "nbench", "-o", path))
	})
	if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
		t.Fatalf("export produced no file: %v", err)
	}
	out := capture(t, func() error {
		return runScoreFile([]string{"-f", path})
	})
	if !strings.Contains(out, "nbench") {
		t.Errorf("score-file output:\n%s", out)
	}

	// CSV path.
	csvPath := filepath.Join(dir, "trace.csv")
	capture(t, func() error {
		return runExport(fast("-suite", "nbench", "-o", csvPath, "-format", "csv"))
	})
	out = capture(t, func() error {
		return runScoreFile([]string{"-f", csvPath, "-format", "csv", "-name", "nbench"})
	})
	if !strings.Contains(out, "TrendScore unavailable") {
		t.Errorf("csv score-file output:\n%s", out)
	}

	// -follow over the static file: one incremental update, bit-identical
	// to the one-shot batch row above.
	batch := capture(t, func() error {
		return runScoreFile([]string{"-f", path})
	})
	followOut := capture(t, func() error {
		return runScoreFile([]string{"-f", path, "-follow", "-max-updates", "1", "-poll", "10ms"})
	})
	var batchRow string
	for _, line := range strings.Split(batch, "\n") {
		if strings.HasPrefix(line, "nbench") {
			batchRow = line
		}
	}
	if batchRow == "" || !strings.Contains(followOut, batchRow) {
		t.Errorf("-follow row diverges from batch:\nbatch:\n%s\nfollow:\n%s", batch, followOut)
	}
}

// TestRunScoreFileErrors checks that an unknown format is rejected and
// that an unreadable file fails with a measure-stage error.
func TestRunScoreFileErrors(t *testing.T) {
	if err := runScoreFile([]string{"-f", "x", "-format", "xml"}); err == nil {
		t.Error("unknown format accepted")
	}
	err := runScoreFile([]string{"-f", filepath.Join(t.TempDir(), "missing.json")})
	var se *stage.Error
	if !errors.As(err, &se) || se.Stage != stage.Measure {
		t.Fatalf("missing file: error %v carries no measure-stage tag", err)
	}
}

// TestRunScoreTimeout drives the -timeout satellite end to end in
// process: an instruction budget far beyond the deadline must come back
// as a stage-tagged cancellation error (which main turns into a
// non-zero exit), not a finished score table.
func TestRunScoreTimeout(t *testing.T) {
	err := runScore([]string{"-suite", "parsec", "-instr", "200000000", "-samples", "100",
		"-timeout", "30ms"})
	if err == nil {
		t.Fatal("timed-out score succeeded")
	}
	if !stage.Canceled(err) {
		t.Fatalf("error not recognized as cancellation: %v", err)
	}
	var se *stage.Error
	if !errors.As(err, &se) || se.Stage != stage.Measure {
		t.Fatalf("error carries no measure-stage tag: %v", err)
	}
}

func TestRunExportErrors(t *testing.T) {
	if err := runExport(fast()); err == nil {
		t.Error("missing -suite accepted")
	}
	if err := runExport(fast("-suite", "nbench", "-format", "bogus")); err == nil {
		t.Error("bogus format accepted")
	}
	if err := runScoreFile(nil); err == nil {
		t.Error("missing -f accepted")
	}
	if err := runScoreFile([]string{"-f", "/nonexistent", "-format", "json"}); err == nil {
		t.Error("missing file accepted")
	}
}

// customSpec writes a minimal user-authored suite spec to a temp file
// and returns its path — the -suite-file input of the tests below.
func customSpec(t *testing.T) string {
	t.Helper()
	doc := `{
  "version": 1,
  "name": "custom",
  "description": "user-authored test suite",
  "workloads": [
    {
      "name": "custom.scan",
      "phases": [
        {
          "name": "scan",
          "weight": 1,
          "load_frac": 0.4,
          "load_pattern": {"kind": "sequential", "working_set": 1048576, "stride": 64}
        }
      ]
    },
    {
      "name": "custom.chase",
      "phases": [
        {
          "name": "chase",
          "weight": 1,
          "load_frac": 0.5,
          "load_pattern": {"kind": "pointer_chase", "working_set": 262144}
        }
      ]
    }
  ]
}
`
	path := filepath.Join(t.TempDir(), "custom.json")
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRunScoreSuiteFile scores a user-authored spec file end-to-end:
// load, build under the flag config, simulate, score.
func TestRunScoreSuiteFile(t *testing.T) {
	path := customSpec(t)
	out := capture(t, func() error { return runScore(fast("-suite-file", path)) })
	if !strings.Contains(out, "custom") || !strings.Contains(out, "cluster") {
		t.Errorf("suite-file score output:\n%s", out)
	}
	// An explicit -suite alongside -suite-file is ambiguous and must fail.
	if err := runScore(fast("-suite", "nbench", "-suite-file", path)); err == nil {
		t.Error("score accepted both -suite and -suite-file")
	}
}

// TestRunCompareSuiteFiles scores a spec-file suite jointly with a
// registered one — the user-suite-vs-stock comparison of the README.
func TestRunCompareSuiteFiles(t *testing.T) {
	path := customSpec(t)
	out := capture(t, func() error {
		return runCompare(fast("-suites", "nbench", "-suite-files", path))
	})
	if !strings.Contains(out, "nbench") || !strings.Contains(out, "custom") {
		t.Errorf("compare output missing a suite:\n%s", out)
	}
}

func TestRunValidate(t *testing.T) {
	path := customSpec(t)
	out := capture(t, func() error { return runValidate([]string{path}) })
	if !strings.Contains(out, "ok") || !strings.Contains(out, "custom") {
		t.Errorf("validate output:\n%s", out)
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte(`{"version":1,"name":"x","workloads":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runValidate([]string{bad}); err == nil {
		t.Error("validate accepted an invalid spec")
	}
	if err := runValidate(nil); err == nil {
		t.Error("validate accepted an empty file list")
	}
}

// TestRunListIncludesSpecOnlySuites pins the registry-driven list: the
// spec-only suite families must appear alongside the stock six.
func TestRunListIncludesSpecOnlySuites(t *testing.T) {
	out := capture(t, func() error { return runList(nil) })
	for _, want := range []string{"bigdatabench", "cpu2026"} {
		if !strings.Contains(out, want) {
			t.Errorf("list output missing spec-only suite %q", want)
		}
	}
}

// TestRunScoreUnknownSuite pins the registry error: an unknown name must
// list every registered suite so the user can self-correct.
func TestRunScoreUnknownSuite(t *testing.T) {
	err := runScore(fast("-suite", "nonesuch"))
	if err == nil {
		t.Fatal("unknown suite accepted")
	}
	for _, want := range []string{"nonesuch", "parsec", "sgxgauge", "bigdatabench", "cpu2026"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("unknown-suite error missing %q: %v", want, err)
		}
	}
}
