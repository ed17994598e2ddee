// Package cli is the shared driver behind cmd/perspector and
// cmd/figures. Both binaries used to wire the same stack by hand —
// simulation flags, worker bound, on-disk measurement cache, per-suite
// fan-out, verbose statistics — and the duplication had already started
// to drift. The driver owns that stack once:
//
//	flags → Config → par.DoErrCtx fan-out → cache.Store.Measure
//
// plus the run context: -timeout becomes a context deadline and SIGINT a
// graceful cancellation, both flowing through every measurement and
// scoring call, so an interrupted run stops within one sample batch and
// exits with a stage-tagged error instead of a half-written table.
package cli

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"time"

	"perspector/internal/cache"
	"perspector/internal/metric"
	"perspector/internal/obs"
	"perspector/internal/par"
	"perspector/internal/perf"
	"perspector/internal/suites"
)

// Flags holds the simulation and execution flags shared by both CLIs.
type Flags struct {
	Instr       uint64
	Samples     int
	Seed        uint64
	Workers     int
	CacheDir    string
	NoCache     bool
	TotalsOnly  bool
	Timeout     time.Duration
	Verbose     bool
	TraceOut    string
	ManifestOut string
}

// AddFlags registers the shared flags on fs and returns the destination
// struct. Command-specific flags (e.g. -group, -fig) stay with their
// commands.
func AddFlags(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.Uint64Var(&f.Instr, "instr", 400_000, "instructions per workload")
	fs.IntVar(&f.Samples, "samples", 100, "PMU samples per workload")
	fs.Uint64Var(&f.Seed, "seed", 2023, "master seed")
	fs.IntVar(&f.Workers, "workers", 0, "parallel workers (0 = all CPUs); results are identical at any count")
	fs.StringVar(&f.CacheDir, "cache-dir", "", "measurement cache directory (empty = no cache)")
	fs.BoolVar(&f.NoCache, "no-cache", false, "disable the measurement cache even if -cache-dir is set")
	fs.BoolVar(&f.TotalsOnly, "totals-only", false, "measure counter totals only, skipping the sampled series (faster; series-based scores like trend are then unavailable)")
	fs.DurationVar(&f.Timeout, "timeout", 0, "abort the run after this duration, e.g. 30s (0 = no limit)")
	fs.BoolVar(&f.Verbose, "v", false, "verbose: worker count and cache statistics on stderr")
	fs.StringVar(&f.TraceOut, "trace-out", "", "write a Chrome trace-event JSON of the run (view at ui.perfetto.dev)")
	fs.StringVar(&f.ManifestOut, "manifest", "", "write a JSON run manifest (per-stage durations, cache hits, worker busy fractions)")
	return f
}

// Config builds the simulation config from the flags.
func (f *Flags) Config() suites.Config {
	cfg := suites.DefaultConfig()
	cfg.Instructions = f.Instr
	cfg.Samples = f.Samples
	cfg.Seed = f.Seed
	cfg.TotalsOnly = f.TotalsOnly
	return cfg
}

// Driver is one command invocation's execution environment: the applied
// worker bound, the opened cache store, and the run context carrying the
// -timeout deadline and SIGINT cancellation.
type Driver struct {
	Flags *Flags
	// Store is the measurement cache; nil when disabled (pass-through).
	Store *cache.Store
	// Recorder collects the run's telemetry spans; nil unless -trace-out
	// or -manifest asked for it, so un-instrumented runs pay exactly the
	// nil-recorder pointer check.
	Recorder *obs.Recorder

	ctx       context.Context
	cancel    context.CancelFunc
	stop      context.CancelFunc
	runSpan   obs.Span
	resultKey string
}

// NewDriver applies the worker bound, opens the cache (unless disabled),
// and builds the run context. Callers must defer Close.
func (f *Flags) NewDriver() (*Driver, error) {
	if f.Workers != 0 {
		par.SetWorkers(f.Workers)
	}
	var store *cache.Store
	if f.CacheDir != "" && !f.NoCache {
		var err error
		if store, err = cache.Open(f.CacheDir); err != nil {
			return nil, err
		}
	}
	ctx := context.Background()
	cancel := context.CancelFunc(func() {})
	if f.Timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, f.Timeout)
	}
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt)
	d := &Driver{Flags: f, Store: store, cancel: cancel, stop: stop}
	if f.TraceOut != "" || f.ManifestOut != "" {
		d.Recorder = obs.NewRecorder()
		ctx = obs.WithRecorder(ctx, d.Recorder)
		ctx, d.runSpan = obs.Start(ctx, "run")
	}
	d.ctx = ctx
	return d, nil
}

// Context returns the run context. Pass it to every measurement and
// scoring call so -timeout and Ctrl-C reach the simulator loops.
func (d *Driver) Context() context.Context { return d.ctx }

// SetResult records the run's result document for the manifest: its
// content key is the SHA-256 of the serialized JSON, the same address a
// client would compute over the emitted ScoreSet. No-op without -manifest.
func (d *Driver) SetResult(v any) {
	if d.Recorder == nil {
		return
	}
	data, err := json.Marshal(v)
	if err != nil {
		return
	}
	sum := sha256.Sum256(data)
	d.resultKey = hex.EncodeToString(sum[:])
}

// Close releases the signal registration and the timeout timer, writes
// the telemetry artifacts (-trace-out, -manifest) and, under -v, prints
// worker/cache statistics to stderr.
func (d *Driver) Close() {
	d.stop()
	d.cancel()
	d.runSpan.End()
	if err := d.writeTelemetry(); err != nil {
		fmt.Fprintln(os.Stderr, "telemetry:", err)
	}
	if d.Flags.Verbose {
		fmt.Fprintf(os.Stderr, "workers: %d\n", par.Workers())
		fmt.Fprintln(os.Stderr, d.Store.Stats())
	}
}

// writeTelemetry renders the recorder into the requested artifact files.
func (d *Driver) writeTelemetry() error {
	if d.Recorder == nil {
		return nil
	}
	if path := d.Flags.TraceOut; path != "" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		werr := d.Recorder.WriteTrace(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return werr
		}
	}
	if path := d.Flags.ManifestOut; path != "" {
		m := d.Recorder.Manifest()
		m.Generator = filepath.Base(os.Args[0])
		m.ResultKey = d.resultKey
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		werr := obs.WriteManifest(f, m)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return werr
		}
	}
	return nil
}

// Measure measures one suite under the flag config, through the cache
// (a nil store simulates every time).
func (d *Driver) Measure(s suites.Suite) (*perf.SuiteMeasurement, error) {
	m, _, err := d.Store.Measure(d.ctx, s, d.Flags.Config())
	return m, err
}

// ResolveSuite returns the suite a command should operate on: when file
// is non-empty the suite is loaded from a declarative spec JSON file
// (-suite-file), otherwise name resolves against the registry (-suite).
// Spec-file suites build under cfg exactly like registered ones — seeds
// derive from cfg.Seed and unpinned workloads take cfg.Instructions — so
// a user-authored file scores on equal footing with the stock suites.
func ResolveSuite(name, file string, cfg suites.Config) (suites.Suite, error) {
	if file != "" {
		if name != "" {
			return suites.Suite{}, fmt.Errorf("pass -suite or -suite-file, not both")
		}
		sp, err := suites.LoadSpecFile(file)
		if err != nil {
			return suites.Suite{}, err
		}
		return sp.Build(cfg)
	}
	if name == "" {
		return suites.Suite{}, fmt.Errorf("no suite given: pass -suite <name> (registered: %s) or -suite-file <spec.json>", suites.NameList())
	}
	return suites.ByName(name, cfg)
}

// MeasureSuites measures several suites in parallel through the cache,
// keeping input order. The first error in suite order wins, as in a
// serial loop.
func (d *Driver) MeasureSuites(ss []suites.Suite) ([]*perf.SuiteMeasurement, error) {
	cfg := d.Flags.Config()
	ms := make([]*perf.SuiteMeasurement, len(ss))
	err := par.DoErrCtx(d.ctx, len(ss), func(ctx context.Context, _, i int) (err error) {
		ms[i], _, err = d.Store.Measure(ctx, ss[i], cfg)
		return err
	})
	if err != nil {
		return nil, err
	}
	return ms, nil
}

// MeasureSeeds measures one named suite under n consecutive seeds
// (Seed, Seed+1, …) — the input of a score-stability analysis. Each seed
// is an independent simulation with its own cache entry.
func (d *Driver) MeasureSeeds(name string, n int) ([]*perf.SuiteMeasurement, error) {
	return d.MeasureSeedsFrom(func(cfg suites.Config) (suites.Suite, error) {
		return suites.ByName(name, cfg)
	}, n)
}

// MeasureSeedsFrom is MeasureSeeds for any suite source: build is called
// once per seed because suite construction itself depends on cfg.Seed
// (workload seeds derive from it), so the suite must be rebuilt, not
// reused, across the sweep. This is how -suite-file suites run a
// stability analysis.
func (d *Driver) MeasureSeedsFrom(build func(suites.Config) (suites.Suite, error), n int) ([]*perf.SuiteMeasurement, error) {
	runs := make([]*perf.SuiteMeasurement, n)
	err := par.DoErrCtx(d.ctx, n, func(ctx context.Context, _, r int) error {
		cfg := d.Flags.Config()
		cfg.Seed += uint64(r)
		s, err := build(cfg)
		if err != nil {
			return err
		}
		runs[r], _, err = d.Store.Measure(ctx, s, cfg)
		return err
	})
	if err != nil {
		return nil, err
	}
	return runs, nil
}

// ScoreHeader writes the shared four-score table header. The +/- marks
// the good direction: lower cluster/spread, higher trend/coverage.
func ScoreHeader(w io.Writer) {
	fmt.Fprintf(w, "%-10s %12s %12s %12s %12s\n", "suite",
		"cluster(-)", "trend(+)", "coverage(+)", "spread(-)")
}

// ScoreRow writes one suite's scores under ScoreHeader's columns.
func ScoreRow(w io.Writer, s metric.Scores) {
	fmt.Fprintf(w, "%-10s %12.4f %12.2f %12.5f %12.4f\n",
		s.Suite, s.Cluster, s.Trend, s.Coverage, s.Spread)
}
