package perfhist

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func mkRecord(sha string, at time.Time, benches map[string][2]float64) Record {
	r := Record{
		GeneratedAt: at,
		GitSHA:      sha,
		GoVersion:   "go1.24",
		GOOS:        "linux",
		GOARCH:      "amd64",
	}
	for name, v := range benches {
		b := Benchmark{Name: name, NsPerOp: v[0], Iterations: 10}
		if v[1] > 0 {
			b.SimulatedInstrPerSec = v[1]
		}
		r.Benchmarks = append(r.Benchmarks, b)
	}
	return r
}

func writeHistory(t *testing.T, recs ...Record) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "hist.jsonl")
	var sb strings.Builder
	for _, r := range recs {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		sb.Write(b)
		sb.WriteByte('\n')
	}
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestDecodeTornTail(t *testing.T) {
	base := time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC)
	r1 := mkRecord("aaa", base, map[string][2]float64{"SimulateSuite": {100, 1e6}})
	r2 := mkRecord("bbb", base.Add(time.Hour), map[string][2]float64{"SimulateSuite": {110, 0.9e6}})
	b1, _ := json.Marshal(r1)
	b2, _ := json.Marshal(r2)
	// A torn tail: the last line is a truncated JSON object with no
	// newline — exactly what a crash mid-append leaves behind.
	raw := string(b1) + "\n" + string(b2) + "\n" + string(b2[:len(b2)/2])
	h, err := Decode(strings.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Records) != 2 {
		t.Fatalf("got %d records, want 2", len(h.Records))
	}
	if h.Skipped != 1 {
		t.Fatalf("got %d skipped, want 1", h.Skipped)
	}
	if h.Records[0].GitSHA != "aaa" || h.Records[1].GitSHA != "bbb" {
		t.Fatalf("records out of order: %+v", h.Records)
	}
}

func TestAppendSealsTornTail(t *testing.T) {
	base := time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC)
	r1 := mkRecord("aaa", base, map[string][2]float64{"SimulateSuite": {100, 1e6}})
	r2 := mkRecord("bbb", base.Add(time.Hour), map[string][2]float64{"SimulateSuite": {110, 0.9e6}})
	b1, _ := json.Marshal(r1)
	b2, _ := json.Marshal(r2)
	path := filepath.Join(t.TempDir(), "hist.jsonl")
	// One good record, then the torn tail of a crashed append.
	if err := os.WriteFile(path, []byte(string(b1)+"\n"+string(b2[:len(b2)/2])), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := Append(path, r2); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	h, err := Decode(strings.NewReader(string(raw)))
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Records) != 2 || h.Skipped != 1 {
		t.Fatalf("decoded %d records (%d skipped), want 2 (1 skipped): the append merged into the torn line",
			len(h.Records), h.Skipped)
	}
	if h.Records[1].GitSHA != "bbb" {
		t.Fatalf("appended record is %q, want bbb", h.Records[1].GitSHA)
	}
	// Only the torn line itself is a violation; the appended line is clean.
	if errs := CheckLog(strings.NewReader(string(raw))); len(errs) != 1 || !strings.HasPrefix(errs[0], "line 2:") {
		t.Fatalf("CheckLog = %v, want only the torn line 2 flagged", errs)
	}
}

func TestDecodeMixedSchema(t *testing.T) {
	// An old PR-6 row: no rounds, no note, no instr_per_sec — fields
	// added since must decode as zero values, and the row must still
	// participate in queries.
	old := `{"generated_at":"2026-07-01T10:00:00Z","git_sha":"oldsha","go_version":"go1.24","goos":"linux","goarch":"amd64","benchmarks":[{"name":"SimulateSuite","ns_per_op":151000000,"iterations":7}]}`
	nw := mkRecord("newsha", time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC),
		map[string][2]float64{"SimulateSuite": {149e6, 27e6}})
	nw.Rounds = 5
	nw.Note = "ci"
	b, _ := json.Marshal(nw)
	h, err := Decode(strings.NewReader(old + "\n" + string(b) + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	if h.Skipped != 0 || len(h.Records) != 2 {
		t.Fatalf("skipped=%d records=%d, want 0/2", h.Skipped, len(h.Records))
	}
	if h.Records[0].Rounds != 0 || h.Records[0].Note != "" {
		t.Fatalf("old row grew fields: %+v", h.Records[0])
	}
	runs := h.Runs("SimulateSuite", Class{GOOS: "linux", GOARCH: "amd64"})
	if len(runs) != 2 {
		t.Fatalf("got %d runs, want 2 (old row must participate)", len(runs))
	}
}

func TestDecodeSkipsInvalidRecords(t *testing.T) {
	lines := []string{
		`not json at all`,
		`{"generated_at":"2026-08-01T00:00:00Z","goos":"linux","goarch":"amd64","go_version":"go1.24","benchmarks":[]}`,                                           // no benchmarks
		`{"generated_at":"2026-08-01T00:00:00Z","goos":"linux","goarch":"amd64","go_version":"go1.24","benchmarks":[{"name":"X","ns_per_op":-5}]}`,                // bad ns
		`{"goos":"linux","goarch":"amd64","go_version":"go1.24","benchmarks":[{"name":"X","ns_per_op":5}]}`,                                                       // no timestamp
		`{"generated_at":"2026-08-01T00:00:00Z","go_version":"go1.24","benchmarks":[{"name":"X","ns_per_op":5}]}`,                                                 // no platform
		`{"generated_at":"2026-08-01T00:00:00Z","goos":"linux","goarch":"amd64","go_version":"go1.24","benchmarks":[{"name":"OK","ns_per_op":5,"iterations":1}]}`, // valid
	}
	h, err := Decode(strings.NewReader(strings.Join(lines, "\n") + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Records) != 1 || h.Skipped != 5 {
		t.Fatalf("records=%d skipped=%d, want 1/5", len(h.Records), h.Skipped)
	}
}

func TestLoadMissingFileIsEmpty(t *testing.T) {
	h, err := Load(context.Background(), filepath.Join(t.TempDir(), "nope.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Records) != 0 || h.Skipped != 0 {
		t.Fatalf("missing file not empty: %+v", h)
	}
}

func TestTrendsAggregatesAndDelta(t *testing.T) {
	base := time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC)
	// Three runs of SHA a (noisy: 100, 104, 120), then three of SHA b
	// that are clearly slower (150, 151, 155) — far outside the band.
	var recs []Record
	for i, ns := range []float64{100, 104, 120} {
		recs = append(recs, mkRecord("aaaaaaaaaaaaaaaa", base.Add(time.Duration(i)*time.Minute),
			map[string][2]float64{"Bench": {ns, 1e9 / ns}}))
	}
	for i, ns := range []float64{150, 151, 155} {
		recs = append(recs, mkRecord("bbbbbbbbbbbbbbbb", base.Add(time.Hour+time.Duration(i)*time.Minute),
			map[string][2]float64{"Bench": {ns, 1e9 / ns}}))
	}
	path := writeHistory(t, recs...)
	h, err := Load(context.Background(), path)
	if err != nil {
		t.Fatal(err)
	}
	trends := h.Trends(context.Background(), Class{GOOS: "linux", GOARCH: "amd64"})
	if len(trends) != 1 {
		t.Fatalf("got %d trends, want 1", len(trends))
	}
	tr := trends[0]
	if tr.Name != "Bench" || len(tr.Points) != 2 {
		t.Fatalf("trend shape wrong: %+v", tr)
	}
	p0 := tr.Points[0]
	if p0.MinNsPerOp != 100 || p0.MedianNsPerOp != 104 || p0.Runs != 3 {
		t.Fatalf("point 0 aggregates wrong: %+v", p0)
	}
	if p0.ShortSHA != "aaaaaaaaaaaa" {
		t.Fatalf("short sha wrong: %q", p0.ShortSHA)
	}
	if p0.Noise <= 0.039 || p0.Noise >= 0.041 { // (104-100)/100
		t.Fatalf("noise wrong: %v", p0.Noise)
	}
	if tr.Delta == nil {
		t.Fatal("no delta with two points")
	}
	if !tr.Delta.Significant || !tr.Delta.Regressed {
		t.Fatalf("50%% slowdown not flagged: %+v", tr.Delta)
	}
	if tr.Delta.RelNsPerOp < 0.49 || tr.Delta.RelNsPerOp > 0.51 {
		t.Fatalf("delta wrong: %+v", tr.Delta)
	}
	if tr.Delta.RelInstrPerSec >= 0 {
		t.Fatalf("throughput delta should be negative: %+v", tr.Delta)
	}
}

func TestTrendsClassFilter(t *testing.T) {
	base := time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC)
	lin := mkRecord("aaa", base, map[string][2]float64{"B": {100, 0}})
	arm := mkRecord("aaa", base.Add(time.Minute), map[string][2]float64{"B": {500, 0}})
	arm.GOARCH = "arm64"
	path := writeHistory(t, lin, arm)
	h, err := Load(context.Background(), path)
	if err != nil {
		t.Fatal(err)
	}
	trends := h.Trends(context.Background(), Class{GOOS: "linux", GOARCH: "amd64"})
	if len(trends) != 1 || trends[0].Points[0].Runs != 1 || trends[0].Points[0].MinNsPerOp != 100 {
		t.Fatalf("class filter leaked foreign runs: %+v", trends)
	}
	all := h.Trends(context.Background(), Class{})
	if all[0].Points[0].Runs != 2 {
		t.Fatalf("zero class should fold all: %+v", all)
	}
}

func TestCompareNoChangePasses(t *testing.T) {
	// Same code both sides, honest jitter: must NOT be significant.
	a := []float64{100, 101, 103, 100.5, 102}
	b := []float64{100.8, 100.2, 102.5, 101, 100.9}
	v, err := Compare(context.Background(), "Bench", a, b, CompareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if v.Significant || v.Regressed {
		t.Fatalf("no-change A/B flagged significant: %+v", v)
	}
	if v.Rounds != 5 || v.ABestNs != 100 || v.BBestNs != 100.2 {
		t.Fatalf("verdict fields wrong: %+v", v)
	}
}

func TestCompareSyntheticSlowdownRegresses(t *testing.T) {
	// B is A scaled by 1.4 — a 40% synthetic slowdown with the same
	// relative jitter. Must be significant and in the regressed
	// direction.
	a := []float64{100, 101, 103, 100.5, 102}
	b := make([]float64, len(a))
	for i, x := range a {
		b[i] = x * 1.4
	}
	v, err := Compare(context.Background(), "Bench", a, b, CompareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !v.Significant || !v.Regressed {
		t.Fatalf("40%% slowdown not flagged: %+v", v)
	}
	if v.RelDelta < 0.39 || v.RelDelta > 0.41 {
		t.Fatalf("delta wrong: %+v", v)
	}
	if !strings.Contains(v.Summary, "REGRESSED") {
		t.Fatalf("summary missing REGRESSED: %q", v.Summary)
	}
}

func TestCompareSpeedupIsSignificantNotRegressed(t *testing.T) {
	a := []float64{140, 141, 143}
	b := []float64{100, 101, 102}
	v, err := Compare(context.Background(), "Bench", a, b, CompareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !v.Significant || v.Regressed {
		t.Fatalf("speedup misclassified: %+v", v)
	}
}

func TestCompareNoisyMachineWidensBand(t *testing.T) {
	// A 5% delta that would fire on a quiet machine must be absorbed
	// when the rounds themselves show 10% spread.
	a := []float64{100, 110, 112}
	b := []float64{105, 116, 117}
	v, err := Compare(context.Background(), "Bench", a, b, CompareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if v.Significant {
		t.Fatalf("noisy 5%% delta should be inconclusive: %+v", v)
	}
	if v.Noise < 0.09 {
		t.Fatalf("noise estimate too small: %+v", v)
	}
}

func TestCompareErrors(t *testing.T) {
	ctx := context.Background()
	if _, err := Compare(ctx, "B", nil, nil, CompareOptions{}); err == nil {
		t.Fatal("empty rounds accepted")
	}
	if _, err := Compare(ctx, "B", []float64{1, 2}, []float64{1}, CompareOptions{}); err == nil {
		t.Fatal("unpaired rounds accepted")
	}
	if _, err := Compare(ctx, "B", []float64{1, -2}, []float64{1, 2}, CompareOptions{}); err == nil {
		t.Fatal("negative ns accepted")
	}
}

func TestGateFailsBelowFloor(t *testing.T) {
	base := time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC)
	var recs []Record
	// Ten same-class runs around 27M instr/sec.
	for i := 0; i < 10; i++ {
		ips := 27e6 + float64(i)*0.1e6
		recs = append(recs, mkRecord(fmt.Sprintf("sha%d", i), base.Add(time.Duration(i)*time.Hour),
			map[string][2]float64{"SimulateSuite": {150e6, ips}}))
	}
	path := writeHistory(t, recs...)
	h, err := Load(context.Background(), path)
	if err != nil {
		t.Fatal(err)
	}
	class := Class{GOOS: "linux", GOARCH: "amd64"}
	ctx := context.Background()
	// A run at half the historical floor must fail.
	res := h.Gate(ctx, "SimulateSuite", class, 13e6, GateOptions{})
	if res.Pass || res.Inconclusive {
		t.Fatalf("halved throughput passed the gate: %+v", res)
	}
	if res.ReferenceRuns != 10 || res.Floor <= 0 {
		t.Fatalf("gate reference wrong: %+v", res)
	}
	// A run at the historical level must pass.
	res = h.Gate(ctx, "SimulateSuite", class, 27.2e6, GateOptions{})
	if !res.Pass {
		t.Fatalf("in-distribution run failed the gate: %+v", res)
	}
	// A run slightly below p10 but inside the slack must pass too.
	res = h.Gate(ctx, "SimulateSuite", class, 26.5e6, GateOptions{})
	if !res.Pass {
		t.Fatalf("slack not applied: %+v", res)
	}
}

func TestGateInconclusiveCases(t *testing.T) {
	base := time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC)
	// Only two same-class runs: below MinRuns, must pass inconclusive.
	path := writeHistory(t,
		mkRecord("a", base, map[string][2]float64{"B": {100, 1e6}}),
		mkRecord("b", base.Add(time.Hour), map[string][2]float64{"B": {100, 1e6}}),
	)
	h, err := Load(context.Background(), path)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	class := Class{GOOS: "linux", GOARCH: "amd64"}
	res := h.Gate(ctx, "B", class, 1, GateOptions{})
	if !res.Pass || !res.Inconclusive {
		t.Fatalf("thin history should pass inconclusive: %+v", res)
	}
	// A foreign machine class sees no reference runs at all.
	res = h.Gate(ctx, "B", Class{GOOS: "darwin", GOARCH: "arm64"}, 1, GateOptions{})
	if !res.Pass || !res.Inconclusive || res.ReferenceRuns != 0 {
		t.Fatalf("foreign class should be inconclusive: %+v", res)
	}
	// A run without the instr/sec figure cannot be judged.
	res = h.Gate(ctx, "B", class, 0, GateOptions{})
	if !res.Pass || !res.Inconclusive {
		t.Fatalf("missing figure should pass inconclusive: %+v", res)
	}
}

func TestGateLastKWindow(t *testing.T) {
	base := time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC)
	var recs []Record
	// Five ancient slow runs followed by five recent fast runs. A
	// current run back at the ancient level is a regression against
	// the recent regime — LastK=5 confines the reference to the fast
	// runs and catches it, while the full window lets the old slow
	// runs drag p10 down and mask it.
	for i := 0; i < 5; i++ {
		recs = append(recs, mkRecord("old", base.Add(time.Duration(i)*time.Hour),
			map[string][2]float64{"B": {200, 25e6}}))
	}
	for i := 0; i < 5; i++ {
		recs = append(recs, mkRecord("new", base.Add(time.Duration(5+i)*time.Hour),
			map[string][2]float64{"B": {100, 50e6}}))
	}
	path := writeHistory(t, recs...)
	h, err := Load(context.Background(), path)
	if err != nil {
		t.Fatal(err)
	}
	class := Class{GOOS: "linux", GOARCH: "amd64"}
	res := h.Gate(context.Background(), "B", class, 26e6, GateOptions{LastK: 5})
	if res.Pass {
		t.Fatalf("LastK window not applied (regression vs recent regime missed): %+v", res)
	}
	res = h.Gate(context.Background(), "B", class, 26e6, GateOptions{LastK: 10})
	if !res.Pass {
		t.Fatalf("old slow runs should mask the regression in the full window: %+v", res)
	}
}

func TestCheckLog(t *testing.T) {
	base := time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC)
	good := func() string {
		r1, _ := json.Marshal(mkRecord("aaa", base, map[string][2]float64{"B": {100, 0}}))
		r2, _ := json.Marshal(mkRecord("aaa", base.Add(time.Hour), map[string][2]float64{"B": {100, 0}}))
		return string(r1) + "\n" + string(r2) + "\n"
	}()
	if errs := CheckLog(strings.NewReader(good)); len(errs) != 0 {
		t.Fatalf("clean log flagged: %v", errs)
	}
	// Timestamps going backwards within a SHA must be flagged.
	bad := func() string {
		r1, _ := json.Marshal(mkRecord("aaa", base.Add(time.Hour), map[string][2]float64{"B": {100, 0}}))
		r2, _ := json.Marshal(mkRecord("aaa", base, map[string][2]float64{"B": {100, 0}}))
		return string(r1) + "\n" + string(r2) + "\n"
	}()
	errs := CheckLog(strings.NewReader(bad))
	if len(errs) != 1 || !strings.Contains(errs[0], "precedes") {
		t.Fatalf("backwards timestamps not flagged: %v", errs)
	}
	// Different SHAs may interleave in time freely (merges re-run old
	// commits).
	interleaved := func() string {
		r1, _ := json.Marshal(mkRecord("bbb", base.Add(time.Hour), map[string][2]float64{"B": {100, 0}}))
		r2, _ := json.Marshal(mkRecord("ccc", base, map[string][2]float64{"B": {100, 0}}))
		return string(r1) + "\n" + string(r2) + "\n"
	}()
	if errs := CheckLog(strings.NewReader(interleaved)); len(errs) != 0 {
		t.Fatalf("cross-SHA interleaving flagged: %v", errs)
	}
	// Undecodable lines and empty logs are violations for the checker
	// (unlike Decode, which tolerates them).
	if errs := CheckLog(strings.NewReader("junk\n")); len(errs) != 1 {
		t.Fatalf("junk line not flagged: %v", errs)
	}
	if errs := CheckLog(strings.NewReader("")); len(errs) != 1 {
		t.Fatalf("empty log not flagged: %v", errs)
	}
}

func TestCommittedHistoryIsClean(t *testing.T) {
	// The repo's own BENCH_history.jsonl must satisfy the checker —
	// this is the same validation obscheck -bench-history runs in CI.
	f, err := os.Open("../../BENCH_history.jsonl")
	if os.IsNotExist(err) {
		t.Skip("no committed history")
	}
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if errs := CheckLog(f); len(errs) != 0 {
		t.Fatalf("committed history invalid: %v", errs)
	}
}

func TestServiceLiveReload(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "hist.jsonl")
	svc := NewService(path)
	ctx := context.Background()

	// Missing file serves empty.
	h, err := svc.History(ctx)
	if err != nil || len(h.Records) != 0 {
		t.Fatalf("missing file: %v %+v", err, h)
	}

	base := time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC)
	r1, _ := json.Marshal(mkRecord("aaa", base, map[string][2]float64{"B": {100, 0}}))
	if err := os.WriteFile(path, append(r1, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	h, err = svc.History(ctx)
	if err != nil || len(h.Records) != 1 {
		t.Fatalf("first load: %v %+v", err, h)
	}

	// Append a second record; the service must pick it up (size
	// changed, even if mtime granularity is coarse).
	r2, _ := json.Marshal(mkRecord("bbb", base.Add(time.Hour), map[string][2]float64{"B": {110, 0}}))
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(append(r2, '\n')); err != nil {
		t.Fatal(err)
	}
	f.Close()
	h, err = svc.History(ctx)
	if err != nil || len(h.Records) != 2 {
		t.Fatalf("reload after append: %v, %d records", err, len(h.Records))
	}

	// Unchanged file returns the same *History (no reload).
	h2, err := svc.History(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h2 != h {
		t.Fatal("unchanged file was reloaded")
	}

	// Deleting the file drops back to empty rather than erroring.
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	h, err = svc.History(ctx)
	if err != nil || len(h.Records) != 0 {
		t.Fatalf("after delete: %v %+v", err, h)
	}
}

func TestBenchNamesFirstSeenOrder(t *testing.T) {
	base := time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC)
	r1 := Record{GeneratedAt: base, GOOS: "linux", GOARCH: "amd64", GoVersion: "go1.24",
		Benchmarks: []Benchmark{{Name: "Z", NsPerOp: 1}, {Name: "A", NsPerOp: 1}}}
	r2 := Record{GeneratedAt: base.Add(time.Minute), GOOS: "linux", GOARCH: "amd64", GoVersion: "go1.24",
		Benchmarks: []Benchmark{{Name: "A", NsPerOp: 1}, {Name: "M", NsPerOp: 1}}}
	h := &History{Records: []Record{r1, r2}}
	got := h.BenchNames()
	want := []string{"Z", "A", "M"}
	if len(got) != len(want) {
		t.Fatalf("got %v want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v", got, want)
		}
	}
}
