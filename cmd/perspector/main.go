// Command perspector scores benchmark suites on the built-in
// microarchitecture simulator, reproducing the tool of "Perspector:
// Benchmarking Benchmark Suites" (DATE 2023).
//
// Subcommands:
//
//	perspector list
//	    List the registered suites, their workloads, and the PMU counters.
//
//	perspector score -suite parsec [-group all|llc|tlb] [-instr N] [-samples N] [-seed N] [-json]
//	    Measure one suite and print its four Perspector scores. -json
//	    emits the same ScoreSet document the perspectord service serves.
//
//	perspector compare [-suites parsec,spec17,...] [-suite-files a.json,b.json] [-group ...] [-json]
//	    Measure several suites and score them under joint normalization
//	    (the paper's Fig. 3 methodology). Default: all six stock suites.
//
//	perspector validate spec.json [more.json ...]
//	    Check declarative suite-spec files: decode, build, and compile
//	    every workload without simulating.
//
//	perspector subset -suite spec17 -size 8 [-subsetseed N]
//	    Generate a representative subset via Latin Hypercube Sampling
//	    (§IV-C) and report the score deviation.
//
//	perspector dump -suite nbench
//	    Print the workload × counter matrix as CSV.
//
//	perspector phases -suite parsec -workload parsec.x264 -counter LLC-load-misses
//	    Detect phase boundaries in one workload's counter series.
//
//	perspector profile -suite parsec
//	    Per-workload phase-boundary counts across the event group.
//
//	perspector baseline -suite spec17 -k 6 [-linkage average]
//	    Run the prior-work pipeline (PCA + hierarchical clustering) the
//	    paper's §II critiques, with the silhouette Perspector adds.
//
//	perspector redundancy -suite spec17 [-threshold 0.9]
//	    Report strongly correlated (droppable) PMU counter pairs.
//
//	perspector export -suite nbench -o trace.json [-format json|csv]
//	perspector score-file -f trace.json [-format json|csv] [-name imported]
//	    Archive measurements and score external (e.g. perf-derived) data.
//	    With -follow the file is tailed: every appended workload or sample
//	    chunk is rescored incrementally and printed as it lands.
//
// Every command that takes -suite also accepts -suite-file <spec.json>
// to operate on a user-authored declarative suite instead of a
// registered one; see the "Custom suites" section of the README.
//
// Every measuring subcommand takes -timeout (context deadline) and obeys
// Ctrl-C: the run context is cancelled, the simulator loops stop within
// one sample batch, and the command exits non-zero with an error naming
// the stage and suite that was interrupted.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"perspector"
	"perspector/internal/buildinfo"
	"perspector/internal/cli"
	"perspector/internal/metric"
	"perspector/internal/perf"
	"perspector/internal/stage"
	"perspector/internal/store"
	"perspector/internal/trace"
	"perspector/internal/workload"
)

// stdout is the destination for command output; tests swap it for a
// buffer.
var stdout io.Writer = os.Stdout

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "list":
		err = runList(args)
	case "score":
		err = runScore(args)
	case "compare":
		err = runCompare(args)
	case "subset":
		err = runSubset(args)
	case "dump":
		err = runDump(args)
	case "phases":
		err = runPhases(args)
	case "profile":
		err = runProfile(args)
	case "baseline":
		err = runBaseline(args)
	case "export":
		err = runExport(args)
	case "score-file":
		err = runScoreFile(args)
	case "redundancy":
		err = runRedundancy(args)
	case "validate":
		err = runValidate(args)
	case "version", "-version", "--version":
		buildinfo.Print(stdout, "perspector")
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "perspector: unknown command %q\n\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perspector:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage: perspector <command> [flags]

commands:
  list      list registered suites, workloads and PMU counters
  score     score one suite
  compare   score several suites under joint normalization
  subset    generate a representative workload subset (LHS)
  dump      print the workload x counter matrix
  phases    detect phase changes in a counter time series
  profile   per-workload phase-boundary counts for a suite
  baseline  run the prior-work pipeline (PCA + hierarchical clustering)
  export    measure a suite and write a portable JSON trace
  score-file score measurements from a JSON trace or totals CSV
            (-follow tails the file and rescores incrementally)
  redundancy report strongly correlated (droppable) PMU counters
  validate  check declarative suite-spec files without simulating
  version   print the build version and Go runtime

registered suites: %s
commands taking -suite also accept -suite-file <spec.json>

run "perspector <command> -h" for command flags
`, strings.Join(perspector.SuiteNames(), ", "))
}

// commonFlags is the shared driver flag block plus the counter group,
// which only this command exposes.
type commonFlags struct {
	*cli.Flags
	group string
}

func addCommon(fs *flag.FlagSet) *commonFlags {
	c := &commonFlags{Flags: cli.AddFlags(fs)}
	fs.StringVar(&c.group, "group", "all", "event group: all, llc, tlb")
	return c
}

// suiteSel is the shared suite selector: -suite resolves a name against
// the registry, -suite-file loads a declarative spec JSON file. Exactly
// one must be given (unless the command has a default suite).
type suiteSel struct {
	name string
	file string
	def  string
}

func addSuiteSel(fs *flag.FlagSet, def string) *suiteSel {
	s := &suiteSel{def: def}
	fs.StringVar(&s.name, "suite", def, "registered suite: "+strings.Join(perspector.SuiteNames(), ", "))
	fs.StringVar(&s.file, "suite-file", "", "declarative suite-spec JSON file (instead of -suite)")
	return s
}

// given reports whether either selector flag was set.
func (s *suiteSel) given() bool { return s.name != "" || s.file != "" }

// label names the selection for output: the suite name, or the file path
// for spec files.
func (s *suiteSel) label() string {
	if s.file != "" {
		return s.file
	}
	return s.name
}

// resolve builds the selected suite under cfg. A -suite-file overrides
// the command's default suite name but conflicts with an explicit
// -suite.
func (s *suiteSel) resolve(cfg perspector.Config) (perspector.Suite, error) {
	name := s.name
	if s.file != "" && name == s.def {
		name = ""
	}
	return cli.ResolveSuite(name, s.file, cfg)
}

// measureSel resolves the selected suite and runs it through a fresh
// driver (worker bound, cache, -timeout/SIGINT context) — for the
// subcommands that measure once and then post-process without further
// simulation.
func (c *commonFlags) measureSel(sel *suiteSel) (*perspector.Measurement, error) {
	s, err := sel.resolve(c.Config())
	if err != nil {
		return nil, err
	}
	d, err := c.NewDriver()
	if err != nil {
		return nil, err
	}
	defer d.Close()
	return d.Measure(s)
}

// scoreSet builds the machine-readable ScoreSet document — the same
// schema perspectord serves over HTTP.
func (c *commonFlags) scoreSet(kind string, scores []perspector.Scores) store.ScoreSet {
	return store.New(kind, c.group, "simulator", &store.RunConfig{
		Instructions: c.Instr,
		Samples:      c.Samples,
		Seed:         c.Seed,
	}, scores)
}

// writeScoreSet emits the ScoreSet document, so CLI output pipes into
// anything that consumes the service's results. The document's content
// key also lands in the -manifest result_key via the driver.
func (c *commonFlags) writeScoreSet(d *cli.Driver, kind string, scores []perspector.Scores) error {
	set := c.scoreSet(kind, scores)
	d.SetResult(set)
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(set)
}

func (c *commonFlags) options() (perspector.Options, error) {
	opts := perspector.DefaultOptions()
	counters, err := perspector.EventGroup(c.group)
	if err != nil {
		return opts, err
	}
	opts.Counters = counters
	return opts, nil
}

func runList(args []string) error {
	fs := flag.NewFlagSet("list", flag.ExitOnError)
	common := addCommon(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := common.Config()
	fmt.Fprintln(stdout, "suites:")
	for _, s := range perspector.RegisteredSuites(cfg) {
		fmt.Fprintf(stdout, "  %-10s %2d workloads  %s\n", s.Name, len(s.Specs), s.Description)
		if common.Verbose {
			for _, w := range s.Specs {
				fmt.Fprintf(stdout, "      %s\n", w.Name)
			}
		}
	}
	fmt.Fprintln(stdout, "\nPMU counters (Table IV):")
	for _, c := range perf.AllCounters() {
		fmt.Fprintf(stdout, "  %s\n", c)
	}
	fmt.Fprintln(stdout, "\nevent groups: all, llc, tlb")
	return nil
}

func runScore(args []string) error {
	fs := flag.NewFlagSet("score", flag.ExitOnError)
	common := addCommon(fs)
	sel := addSuiteSel(fs, "")
	repeat := fs.Int("repeat", 1, "measure with N different seeds and report mean ± sd")
	jsonOut := fs.Bool("json", false, "emit the ScoreSet JSON document perspectord serves instead of the table")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if !sel.given() {
		return fmt.Errorf("score: -suite or -suite-file is required")
	}
	if *repeat < 1 {
		return fmt.Errorf("score: -repeat must be >= 1")
	}
	if *jsonOut && *repeat > 1 {
		return fmt.Errorf("score: -json reports single runs; it does not support -repeat")
	}
	opts, err := common.options()
	if err != nil {
		return err
	}
	d, err := common.NewDriver()
	if err != nil {
		return err
	}
	defer d.Close()
	if *repeat == 1 {
		s, err := sel.resolve(common.Config())
		if err != nil {
			return err
		}
		m, err := d.Measure(s)
		if err != nil {
			return err
		}
		scores, err := perspector.ScoreContext(d.Context(), m, opts)
		if err != nil {
			return err
		}
		if *jsonOut {
			return common.writeScoreSet(d, store.KindScore, []perspector.Scores{scores})
		}
		d.SetResult(common.scoreSet(store.KindScore, []perspector.Scores{scores}))
		cli.ScoreHeader(stdout)
		cli.ScoreRow(stdout, scores)
		return nil
	}
	// The repeats are independent simulations under different seeds,
	// fanned out with seed order kept in the results. The suite is rebuilt
	// per seed — construction depends on cfg.Seed — which a spec file
	// supports exactly like a registered name.
	runs, err := d.MeasureSeedsFrom(sel.resolve, *repeat)
	if err != nil {
		return err
	}
	st, err := perspector.ScoreStability(runs, opts)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s over %d seeds (mean ± sd):\n", st.Suite, st.Runs)
	fmt.Fprintf(stdout, "  cluster  %8.4f ± %.4f\n", st.Mean.Cluster, st.StdDev.Cluster)
	fmt.Fprintf(stdout, "  trend    %8.2f ± %.2f\n", st.Mean.Trend, st.StdDev.Trend)
	fmt.Fprintf(stdout, "  coverage %8.5f ± %.5f\n", st.Mean.Coverage, st.StdDev.Coverage)
	fmt.Fprintf(stdout, "  spread   %8.4f ± %.4f\n", st.Mean.Spread, st.StdDev.Spread)
	return nil
}

func runCompare(args []string) error {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	common := addCommon(fs)
	list := fs.String("suites", "parsec,spec17,ligra,lmbench,nbench,sgxgauge",
		"comma-separated registered suites to compare")
	files := fs.String("suite-files", "", "comma-separated suite-spec JSON files to add to the comparison")
	rank := fs.Bool("rank", false, "print per-metric and overall rankings")
	jsonOut := fs.Bool("json", false, "emit the ScoreSet JSON document perspectord serves instead of the table")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *jsonOut && *rank {
		return fmt.Errorf("compare: -json and -rank are mutually exclusive")
	}
	cfg := common.Config()
	var ss []perspector.Suite
	for _, name := range strings.Split(*list, ",") {
		if name = strings.TrimSpace(name); name != "" {
			s, err := perspector.SuiteByName(name, cfg)
			if err != nil {
				return err
			}
			ss = append(ss, s)
		}
	}
	// Spec-file suites join the comparison after the registered ones and
	// score under the same joint normalization.
	for _, path := range strings.Split(*files, ",") {
		if path = strings.TrimSpace(path); path != "" {
			s, err := perspector.LoadSuiteFile(path, cfg)
			if err != nil {
				return err
			}
			ss = append(ss, s)
		}
	}
	if len(ss) == 0 {
		return fmt.Errorf("compare: no suites given")
	}
	opts, err := common.options()
	if err != nil {
		return err
	}
	d, err := common.NewDriver()
	if err != nil {
		return err
	}
	defer d.Close()
	ms, err := d.MeasureSuites(ss)
	if err != nil {
		return err
	}
	scores, err := perspector.CompareContext(d.Context(), ms, opts)
	if err != nil {
		return err
	}
	if *jsonOut {
		return common.writeScoreSet(d, store.KindCompare, scores)
	}
	d.SetResult(common.scoreSet(store.KindCompare, scores))
	cli.ScoreHeader(stdout)
	for _, s := range scores {
		cli.ScoreRow(stdout, s)
	}
	if *rank {
		r, err := perspector.Rank(scores)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, "\nrankings (best first):")
		fmt.Fprintf(stdout, "  %-12s %s\n", "cluster:", strings.Join(r.ByCluster, " > "))
		fmt.Fprintf(stdout, "  %-12s %s\n", "trend:", strings.Join(r.ByTrend, " > "))
		fmt.Fprintf(stdout, "  %-12s %s\n", "coverage:", strings.Join(r.ByCoverage, " > "))
		fmt.Fprintf(stdout, "  %-12s %s\n", "spread:", strings.Join(r.BySpread, " > "))
		fmt.Fprintln(stdout, "\noverall (mean rank):")
		for _, name := range r.Overall {
			fmt.Fprintf(stdout, "  %-12s %.2f\n", name, r.MeanRank[name])
		}
	}
	return nil
}

func runSubset(args []string) error {
	fs := flag.NewFlagSet("subset", flag.ExitOnError)
	common := addCommon(fs)
	sel := addSuiteSel(fs, "spec17")
	size := fs.Int("size", 8, "subset size")
	subsetSeed := fs.Uint64("subsetseed", 0, "LHS seed (0 = default)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := common.Config()
	s, err := sel.resolve(cfg)
	if err != nil {
		return err
	}
	m, err := common.measureSel(sel)
	if err != nil {
		return err
	}
	opts, err := common.options()
	if err != nil {
		return err
	}
	so := perspector.DefaultSubsetOptions(*size)
	if *subsetSeed != 0 {
		so.Seed = *subsetSeed
	}
	res, err := perspector.GenerateSubset(m, opts, so)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "subset of %s (%d of %d workloads):\n", sel.label(), *size, len(s.Specs))
	for _, n := range res.Names {
		fmt.Fprintln(stdout, "  ", n)
	}
	fmt.Fprintln(stdout)
	cli.ScoreHeader(stdout)
	full := res.Full
	full.Suite = "full"
	sub := res.Subset
	sub.Suite = "subset"
	cli.ScoreRow(stdout, full)
	cli.ScoreRow(stdout, sub)
	fmt.Fprintf(stdout, "mean relative deviation: %.2f%%\n", 100*res.Deviation)
	return nil
}

func runDump(args []string) error {
	fs := flag.NewFlagSet("dump", flag.ExitOnError)
	common := addCommon(fs)
	sel := addSuiteSel(fs, "")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if !sel.given() {
		return fmt.Errorf("dump: -suite or -suite-file is required")
	}
	m, err := common.measureSel(sel)
	if err != nil {
		return err
	}
	counters, err := perspector.EventGroup(common.group)
	if err != nil {
		return err
	}
	// CSV header.
	fmt.Fprint(stdout, "workload")
	for _, c := range counters {
		fmt.Fprintf(stdout, ",%s", c)
	}
	fmt.Fprintln(stdout)
	for _, w := range m.Workloads {
		fmt.Fprint(stdout, w.Workload)
		for _, c := range counters {
			fmt.Fprintf(stdout, ",%d", w.Totals.Get(c))
		}
		fmt.Fprintln(stdout)
	}
	return nil
}

func runPhases(args []string) error {
	fs := flag.NewFlagSet("phases", flag.ExitOnError)
	common := addCommon(fs)
	sel := addSuiteSel(fs, "")
	workloadName := fs.String("workload", "", "workload name (required)")
	counterName := fs.String("counter", "LLC-load-misses", "PMU counter")
	window := fs.Int("window", 5, "detector half-window in samples")
	threshold := fs.Float64("threshold", 2, "detector threshold in local-noise units")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if !sel.given() || *workloadName == "" {
		return fmt.Errorf("phases: -suite (or -suite-file) and -workload are required")
	}
	m, err := common.measureSel(sel)
	if err != nil {
		return err
	}
	counter, err := perf.ParseCounter(*counterName)
	if err != nil {
		return err
	}
	for _, w := range m.Workloads {
		if w.Workload != *workloadName {
			continue
		}
		series := w.Series.Series(counter)
		changes, err := perspector.DetectPhases(series, *window, *threshold)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%s / %s: %d samples, %d phase boundaries\n",
			*workloadName, counter, len(series), len(changes))
		for _, c := range changes {
			pct := 100 * float64(c.Index) / float64(len(series))
			fmt.Fprintf(stdout, "  sample %4d (%5.1f%% of execution)  shift %.1f\n",
				c.Index, pct, c.Shift)
		}
		return nil
	}
	return fmt.Errorf("phases: workload %q not found in %s (try 'perspector list -v')",
		*workloadName, sel.label())
}

func runExport(args []string) error {
	fs := flag.NewFlagSet("export", flag.ExitOnError)
	common := addCommon(fs)
	sel := addSuiteSel(fs, "")
	out := fs.String("o", "", "output file (default stdout)")
	format := fs.String("format", "json", "output format: json (full) or csv (totals)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if !sel.given() {
		return fmt.Errorf("export: -suite or -suite-file is required")
	}
	if *format == "csv" {
		// The CSV format carries totals only, so the measurement can take
		// the counters-only fast path; totals are bit-identical either way.
		common.TotalsOnly = true
	}
	m, err := common.measureSel(sel)
	if err != nil {
		return err
	}
	var w io.Writer = stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	switch *format {
	case "json":
		return perspector.ExportJSON(w, m)
	case "csv":
		counters, err := perspector.EventGroup(common.group)
		if err != nil {
			return err
		}
		return perspector.ExportCSV(w, m, counters)
	default:
		return fmt.Errorf("export: unknown format %q", *format)
	}
}

func runScoreFile(args []string) error {
	fs := flag.NewFlagSet("score-file", flag.ExitOnError)
	common := addCommon(fs)
	path := fs.String("f", "", "trace file (required)")
	format := fs.String("format", "json", "input format: json or csv")
	suiteName := fs.String("name", "imported", "suite name for csv input")
	follow := fs.Bool("follow", false, "tail the file: rescore incrementally as it grows, one table row per change (stop with Ctrl-C or -timeout)")
	poll := fs.Duration("poll", time.Second, "file poll interval under -follow")
	maxUpdates := fs.Int("max-updates", 0, "stop -follow after this many score updates (0 = until interrupted)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *path == "" {
		return fmt.Errorf("score-file: -f is required")
	}
	if *format != "json" && *format != "csv" {
		return fmt.Errorf("score-file: unknown format %q", *format)
	}
	opts, err := common.options()
	if err != nil {
		return err
	}
	d, err := common.NewDriver()
	if err != nil {
		return err
	}
	defer d.Close()
	// readTrace decodes the file as it stands; its errors are tagged with
	// the measure stage, like a simulated suite's.
	readTrace := func() (m *perf.SuiteMeasurement, err error) {
		f, err := os.Open(*path)
		if err == nil {
			m, err = trace.Read(f, *format, *suiteName)
			f.Close()
		}
		if err != nil {
			return nil, stage.Wrap(stage.Measure, *suiteName, "", err)
		}
		return m, nil
	}
	if *follow {
		// Each observed change feeds the incremental engine as an append
		// (new workloads, grown totals, longer series) and is rescored at
		// delta cost — bit-identical to batch-scoring the file as it
		// stands; rewrites of history fall back to an exact rebuild.
		return cli.FollowScores(d.Context(), cli.FollowOptions{
			Parse: readTrace,
			Stat: func() (string, error) {
				fi, err := os.Stat(*path)
				if err != nil {
					return "", err
				}
				return fmt.Sprintf("%d-%d", fi.Size(), fi.ModTime().UnixNano()), nil
			},
			Opts:       opts,
			Poll:       *poll,
			Out:        stdout,
			MaxUpdates: *maxUpdates,
		})
	}
	m, err := readTrace()
	if err != nil {
		return err
	}
	// CSV input has no time series, and a tool may sample only some
	// counters: when a counter of the scored group has no series, the
	// engine's capability check skips the TrendScore rather than fail;
	// report the three that ran and the counters that lack series.
	if missing := metric.MissingSeries(m, opts.Counters); len(missing) > 0 {
		x, err := perspector.ScoreTotalsOnly(m, opts)
		if err != nil {
			return err
		}
		names := make([]string, len(missing))
		for i, c := range missing {
			names[i] = c.String()
		}
		fmt.Fprintf(stdout, "%-10s %12s %12s %12s\n", "suite", "cluster(-)", "coverage(+)", "spread(-)")
		fmt.Fprintf(stdout, "%-10s %12.4f %12.5f %12.4f\n", x.Suite, x.Cluster, x.Coverage, x.Spread)
		fmt.Fprintf(stdout, "(no time-series data for %s: TrendScore unavailable)\n", strings.Join(names, ", "))
		return nil
	}
	scores, err := perspector.ScoreContext(d.Context(), m, opts)
	if err != nil {
		return err
	}
	cli.ScoreHeader(stdout)
	cli.ScoreRow(stdout, scores)
	return nil
}

func runRedundancy(args []string) error {
	fs := flag.NewFlagSet("redundancy", flag.ExitOnError)
	common := addCommon(fs)
	sel := addSuiteSel(fs, "")
	threshold := fs.Float64("threshold", 0.9, "minimum |Pearson r| to report")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if !sel.given() {
		return fmt.Errorf("redundancy: -suite or -suite-file is required")
	}
	m, err := common.measureSel(sel)
	if err != nil {
		return err
	}
	opts, err := common.options()
	if err != nil {
		return err
	}
	pairs, err := perspector.CounterRedundancy(m, opts, *threshold)
	if err != nil {
		return err
	}
	if len(pairs) == 0 {
		fmt.Fprintf(stdout, "no counter pairs with |r| >= %.2f in %s\n", *threshold, sel.label())
		return nil
	}
	fmt.Fprintf(stdout, "redundant counter pairs in %s (|r| >= %.2f):\n", sel.label(), *threshold)
	for _, p := range pairs {
		fmt.Fprintf(stdout, "  %-32s ~ %-32s r = %+.3f\n", p.A, p.B, p.R)
	}
	fmt.Fprintln(stdout, "\ndropping one of each pair frees a hardware counter without losing signal")
	return nil
}

func runProfile(args []string) error {
	fs := flag.NewFlagSet("profile", flag.ExitOnError)
	common := addCommon(fs)
	sel := addSuiteSel(fs, "")
	window := fs.Int("window", 5, "detector half-window in samples")
	threshold := fs.Float64("threshold", 2.5, "detector threshold in local-noise units")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if !sel.given() {
		return fmt.Errorf("profile: -suite or -suite-file is required")
	}
	m, err := common.measureSel(sel)
	if err != nil {
		return err
	}
	opts, err := common.options()
	if err != nil {
		return err
	}
	prof, err := perspector.ProfilePhases(m, opts, *window, *threshold)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "phase profile of %s (%s events, window %d, threshold %.1f):\n",
		sel.label(), common.group, *window, *threshold)
	for i, w := range m.Workloads {
		fmt.Fprintf(stdout, "  %-30s %3d boundaries\n", w.Workload, prof.Boundaries[i])
	}
	fmt.Fprintf(stdout, "suite mean: %.1f boundaries/workload\n", prof.MeanBoundaries)
	return nil
}

func runBaseline(args []string) error {
	fs := flag.NewFlagSet("baseline", flag.ExitOnError)
	common := addCommon(fs)
	sel := addSuiteSel(fs, "")
	k := fs.Int("k", 6, "number of flat clusters to cut")
	linkageName := fs.String("linkage", "average", "linkage: single, complete, average")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if !sel.given() {
		return fmt.Errorf("baseline: -suite or -suite-file is required")
	}
	var linkage perspector.Linkage
	switch *linkageName {
	case "single":
		linkage = perspector.SingleLinkage
	case "complete":
		linkage = perspector.CompleteLinkage
	case "average":
		linkage = perspector.AverageLinkage
	default:
		return fmt.Errorf("baseline: unknown linkage %q", *linkageName)
	}
	m, err := common.measureSel(sel)
	if err != nil {
		return err
	}
	opts, err := common.options()
	if err != nil {
		return err
	}
	res, err := perspector.HierarchicalBaseline(m, opts, linkage, *k)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "prior-work pipeline on %s (%s linkage, k=%d, %d PCA components):\n",
		sel.label(), linkage, res.K, res.RetainedComponents)
	fmt.Fprintf(stdout, "silhouette of the cut: %.4f\n\n", res.Silhouette)
	for c := 0; c < res.K; c++ {
		fmt.Fprintf(stdout, "cluster %d (representative: %s):\n", c, m.Workloads[res.Representatives[c]].Workload)
		for i, l := range res.Labels {
			if l == c {
				fmt.Fprintf(stdout, "  %s\n", m.Workloads[i].Workload)
			}
		}
	}
	return nil
}

// runValidate checks declarative suite-spec files without simulating:
// each file must decode under the strict codec, build into a suite under
// the flag config, and have every workload compile into a generator
// program. This is the CI gate for the files under examples/suites.
func runValidate(args []string) error {
	fs := flag.NewFlagSet("validate", flag.ExitOnError)
	common := addCommon(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	files := fs.Args()
	if len(files) == 0 {
		return fmt.Errorf("validate: no spec files given (usage: perspector validate spec.json ...)")
	}
	cfg := common.Config()
	var failed bool
	for _, path := range files {
		s, err := perspector.LoadSuiteFile(path, cfg)
		if err == nil {
			for i := range s.Specs {
				prog, cerr := workload.Compile(s.Specs[i])
				if cerr != nil {
					err = fmt.Errorf("workload %s: %w", s.Specs[i].Name, cerr)
					break
				}
				prog.Release()
			}
		}
		if err != nil {
			failed = true
			fmt.Fprintf(stdout, "%s: INVALID: %v\n", path, err)
			continue
		}
		var instr uint64
		for i := range s.Specs {
			instr += s.Specs[i].Instructions
		}
		fmt.Fprintf(stdout, "%s: ok — suite %q, %d workloads, %d instructions\n",
			path, s.Name, len(s.Specs), instr)
	}
	if failed {
		return fmt.Errorf("validate: invalid spec files")
	}
	return nil
}
