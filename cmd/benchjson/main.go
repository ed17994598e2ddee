// Command benchjson runs the simulator benchmark set under the testing
// package's benchmark driver and appends the results, with the git
// commit, platform and timestamp, as one JSON line to
// BENCH_history.jsonl (change the path with -history, disable with
// -history ""). That log is the repository's only committed benchmark
// record: compare simulated_instr_per_sec across commits of the same
// machine class. Record a run with
//
//	go run ./cmd/benchjson -note "my change"
//
// The benchmark bodies live in internal/benchset, which the `go test
// -bench` wrappers of the same names call too. They span the suite and
// per-workload level (SimulateSuite, SimulateWorkload) and the component
// level (MachineStep, CacheAccess, TLBTranslate), so a regression can be
// localized to the layer that caused it; SimulateSuiteTotalsOnly
// measures the counters-only fast path against the full sampled run.
// FullRescore and IncrRescore are the incremental-scoring A/B pair: the
// cost of batch-scoring a 64-workload measurement from scratch versus
// appending one sample chunk to it and rescoring through the incremental
// engine (the perspectord streaming-score hot path).
//
// With -check-history <jsonl>, the run is gated against the accumulated
// history distribution: each instr/sec-bearing benchmark must not fall
// below the p10 floor (with 5% slack) of the last 10 runs recorded on
// the same machine class (goos/goarch) — perfhist.DefaultGateOptions.
// The gate refuses to judge (inconclusive pass) when the history holds
// fewer than 3 same-class runs. Under the gate the suite benchmark keeps
// the best of gateRounds runs: scheduling noise on shared runners only
// ever slows a run down, so the fastest observation is the least
// contaminated one.
//
// The compare subcommand is the paired same-moment A/B primitive the CI
// regression gate runs:
//
//	go run ./cmd/benchjson compare -a SimulateSuite -rounds 5 -out verdict.json
//
// It measures A and B back-to-back in each round (interleaved, so slow
// machine moments hit both sides of a pair), judges the best-of-N ns/op
// delta against a noise band estimated from the rounds themselves
// (internal/perfhist.Compare with its default options), writes a
// machine-readable Verdict, and exits non-zero on a statistically
// significant regression. With -b omitted, B is the same benchmark as A
// — a no-change self-comparison that must pass, which CI runs to
// validate the comparator itself. The -inject-slowdown knob multiplies
// B's observed ns/op to prove the gate fires on a real slowdown (the
// synthetic-regression self-test journaled in EXPERIMENTS.md).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"testing"
	"time"

	"perspector/internal/benchset"
	"perspector/internal/buildinfo"
	"perspector/internal/perfhist"
)

// The report schema is owned by internal/perfhist — Record is one run,
// Benchmark one measurement — so this producer, the perspectord history
// service, and the obscheck validator share a single codec.
type result = perfhist.Benchmark

type report = perfhist.Record

// gitSHA resolves the current commit: the VCS stamp when the build
// recorded one (go build), falling back to asking git (go run strips the
// stamp). A repository-less run just yields "".
func gitSHA() string {
	if rev := buildinfo.Read().Revision; rev != "" {
		return rev
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}

// gateRounds is how many times the suite benchmark runs when
// -check-history judges the record; the best round is kept.
const gateRounds = 3

func lookupBench(name string) (benchset.Bench, bool) {
	for _, b := range benchset.All {
		if b.Name == name {
			return b, true
		}
	}
	return benchset.Bench{}, false
}

func benchNames() string {
	names := make([]string, len(benchset.All))
	for i, b := range benchset.All {
		names[i] = b.Name
	}
	return strings.Join(names, ", ")
}

func main() {
	testing.Init() // register test.* flags so benchtime can be set below
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		runCompare(os.Args[2:])
		return
	}
	runRecord(os.Args[1:])
}

// runRecord is the default mode: run every registered benchmark, gate
// the run against the history if asked, and append it to the history.
func runRecord(args []string) {
	fs := flag.NewFlagSet("benchjson", flag.ExitOnError)
	history := fs.String("history", "BENCH_history.jsonl", "append the run to this JSONL history (empty disables)")
	benchtime := fs.Duration("benchtime", time.Second, "minimum run time per benchmark")
	note := fs.String("note", "", "free-form origin tag recorded with the run (e.g. ci)")
	checkHistory := fs.String("check-history", "", "gate instr/sec-bearing benchmarks against this history's distribution")
	fs.Parse(args)
	// The driver reads the package-level benchtime; there is no public
	// per-run knob, so set it the way `go test -benchtime` would.
	if err := flag.Set("test.benchtime", benchtime.String()); err != nil {
		fatal(err)
	}
	rounds := 1
	if *checkHistory != "" {
		rounds = gateRounds
	}

	rep := report{
		GeneratedAt: time.Now().UTC().Truncate(time.Second),
		GitSHA:      gitSHA(),
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		Rounds:      rounds,
		Note:        *note,
	}
	for _, bench := range benchset.All {
		benchRounds := 1
		if bench.Name == "SimulateSuite" {
			benchRounds = rounds
		}
		var r testing.BenchmarkResult
		for round := 0; round < benchRounds; round++ {
			got := testing.Benchmark(bench.Run)
			if got.N == 0 {
				fmt.Fprintf(os.Stderr, "benchjson: %s did not run (benchmark failed?)\n", bench.Name)
				os.Exit(1)
			}
			if round == 0 || nsPerOp(got) < nsPerOp(r) {
				r = got
			}
		}
		res := result{
			Name:       bench.Name,
			NsPerOp:    nsPerOp(r),
			Iterations: r.N,
		}
		if instr := r.Extra[benchset.InstrMetric]; instr > 0 {
			res.SimulatedInstrPerOp = uint64(instr)
			res.SimulatedInstrPerSec = float64(res.SimulatedInstrPerOp) / (res.NsPerOp / 1e9)
		}
		rep.Benchmarks = append(rep.Benchmarks, res)
		fmt.Printf("%-24s %12.1f ns/op", res.Name, res.NsPerOp)
		if res.SimulatedInstrPerSec > 0 {
			fmt.Printf("  %.3g simulated instr/sec", res.SimulatedInstrPerSec)
		}
		fmt.Println()
	}

	// Gate against the history distribution as it stood BEFORE this run
	// is appended, so a run is never its own reference.
	var gateErr error
	if *checkHistory != "" {
		gateErr = checkAgainstHistory(*checkHistory, rep)
	}
	if *history != "" {
		if err := perfhist.Append(*history, rep); err != nil {
			fatal(err)
		}
	}
	if gateErr != nil {
		fatal(gateErr)
	}
}

// runCompare is the paired same-moment A/B gate: measure A and B
// interleaved for -rounds rounds, judge through perfhist.Compare, and
// exit non-zero on a significant regression.
func runCompare(args []string) {
	fs := flag.NewFlagSet("benchjson compare", flag.ExitOnError)
	aName := fs.String("a", "SimulateSuite", "baseline benchmark ("+benchNames()+")")
	bName := fs.String("b", "", "candidate benchmark (default: same as -a, a no-change self-comparison)")
	rounds := fs.Int("rounds", 5, "interleaved (A,B) round pairs")
	benchtime := fs.Duration("benchtime", time.Second, "minimum run time per benchmark round")
	out := fs.String("out", "", "write the machine-readable verdict JSON here (the CI job artifact)")
	inject := fs.Float64("inject-slowdown", 1, "multiply B's observed ns/op — synthetic-regression self-test knob")
	fs.Parse(args)
	if err := flag.Set("test.benchtime", benchtime.String()); err != nil {
		fatal(err)
	}
	if *bName == "" {
		*bName = *aName
	}
	a, ok := lookupBench(*aName)
	if !ok {
		fatal(fmt.Errorf("unknown benchmark %q (have %s)", *aName, benchNames()))
	}
	bb, ok := lookupBench(*bName)
	if !ok {
		fatal(fmt.Errorf("unknown benchmark %q (have %s)", *bName, benchNames()))
	}
	if *rounds < 1 {
		fatal(fmt.Errorf("compare needs at least one round"))
	}
	label := a.Name
	if bb.Name != a.Name {
		label = a.Name + " vs " + bb.Name
	}
	var aNs, bNs []float64
	for round := 0; round < *rounds; round++ {
		ra := testing.Benchmark(a.Run)
		rb := testing.Benchmark(bb.Run)
		if ra.N == 0 || rb.N == 0 {
			fatal(fmt.Errorf("round %d did not run (benchmark failed?)", round))
		}
		aNs = append(aNs, nsPerOp(ra))
		bNs = append(bNs, nsPerOp(rb)**inject)
		fmt.Printf("round %d/%d: A %.3g ns/op, B %.3g ns/op\n",
			round+1, *rounds, aNs[round], bNs[round])
	}
	v, err := perfhist.Compare(context.Background(), label, aNs, bNs, perfhist.DefaultCompareOptions())
	if err != nil {
		fatal(err)
	}
	fmt.Println(v.Summary)
	if *out != "" {
		buf, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*out, append(buf, '\n'), 0o644); err != nil {
			fatal(err)
		}
	}
	if v.Regressed {
		os.Exit(1)
	}
}

// checkAgainstHistory gates every instr/sec-bearing benchmark of the
// run against the history distribution: fail when one lands below the
// perfhist.DefaultGateOptions floor of the last same-machine-class runs.
func checkAgainstHistory(path string, rep report) error {
	ctx := context.Background()
	h, err := perfhist.Load(ctx, path)
	if err != nil {
		return err
	}
	class := rep.Class()
	var failed []string
	for _, b := range rep.Benchmarks {
		if b.SimulatedInstrPerSec <= 0 {
			continue
		}
		res := h.Gate(ctx, b.Name, class, b.SimulatedInstrPerSec, perfhist.DefaultGateOptions())
		switch {
		case res.Inconclusive:
			fmt.Printf("check-history: %-24s inconclusive: %s\n", b.Name, res.Reason)
		case res.Pass:
			fmt.Printf("check-history: %-24s %.3g instr/sec ≥ p%g floor %.3g (%d %s/%s runs)\n",
				b.Name, res.Current, res.Percentile, res.Floor, res.ReferenceRuns, class.GOOS, class.GOARCH)
		default:
			failed = append(failed, res.Reason)
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("history gate: %s", strings.Join(failed, "; "))
	}
	return nil
}

func nsPerOp(r testing.BenchmarkResult) float64 {
	return float64(r.T.Nanoseconds()) / float64(r.N)
}
