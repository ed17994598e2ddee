// Package source abstracts where suite measurements come from. The
// scoring engine (internal/metric) only needs a *perf.SuiteMeasurement;
// whether it was simulated or read back from an archived trace file is
// a Source implementation detail. The Caching decorator adds the
// content-addressed on-disk cache around any measuring source — wiring
// that both CLIs previously duplicated by hand.
//
// Every Measure takes a context: cancellation flows through the suite
// fan-out into the simulator loops, and failures surface as *stage.Error
// values tagged with stage.Measure and the suite/workload involved.
package source

import (
	"bufio"
	"context"
	"fmt"
	"os"

	"perspector/internal/cache"
	"perspector/internal/obs"
	"perspector/internal/perf"
	"perspector/internal/stage"
	"perspector/internal/suites"
	"perspector/internal/trace"
	"perspector/internal/uarch"
)

// Source produces the measurement of a suite.
type Source interface {
	// Measure executes (or loads) the measurement of s. Implementations
	// honour ctx cancellation and tag errors with stage.Measure.
	Measure(ctx context.Context, s suites.Suite) (*perf.SuiteMeasurement, error)
	// Key returns the content-address of the measurement Measure would
	// produce for s — everything that can change a counter value folds
	// into it. An empty key means "not cacheable" (e.g. a trace file,
	// which is already on disk); Caching passes such sources through.
	Key(s suites.Suite) string
}

// Simulator measures suites on the single-core microarchitecture
// simulator — the paper's methodology.
type Simulator struct {
	Cfg suites.Config
}

// Measure runs every workload of s on the simulator. Machines are drawn
// from uarch.DefaultMachinePool (a reused machine is Reset on checkout, so
// results are identical to fresh allocation): long-running consumers such
// as perspectord jobs stop paying a multi-MB L3 tag allocation per
// workload per request.
func (src Simulator) Measure(ctx context.Context, s suites.Suite) (*perf.SuiteMeasurement, error) {
	return suites.RunContext(ctx, s, src.Cfg)
}

// Key is the cache content-address: schema version, suite specs, config
// and machine configuration.
func (src Simulator) Key(s suites.Suite) string {
	return cache.Key(s, src.Cfg)
}

// TraceFile loads a previously exported measurement from disk instead of
// simulating: JSON traces carry totals and time series; CSV carries
// totals only (the engine's capability check then skips the trend
// metric). The suite argument to Measure is ignored — the file contents
// determine the measurement.
type TraceFile struct {
	Path string
	// Format is "json" (default when empty) or "csv".
	Format string
	// SuiteName names the imported suite for CSV input, which carries no
	// name of its own.
	SuiteName string
}

// Measure reads and decodes the trace file.
func (src TraceFile) Measure(ctx context.Context, _ suites.Suite) (*perf.SuiteMeasurement, error) {
	if err := ctx.Err(); err != nil {
		return nil, stage.Wrap(stage.Measure, src.SuiteName, "", err)
	}
	f, err := os.Open(src.Path)
	if err != nil {
		return nil, stage.Wrap(stage.Measure, src.SuiteName, "", err)
	}
	defer f.Close()
	var m *perf.SuiteMeasurement
	switch src.Format {
	case "", "json":
		m, err = trace.ReadJSON(f)
	case "csv":
		m, err = trace.ReadCSV(f, src.SuiteName)
	default:
		return nil, fmt.Errorf("source: unknown trace format %q", src.Format)
	}
	if err != nil {
		return nil, stage.Wrap(stage.Measure, src.SuiteName, "", err)
	}
	return m, nil
}

// Key returns "" — a trace file is already a materialized measurement,
// so caching it again would only duplicate bytes on disk.
func (src TraceFile) Key(_ suites.Suite) string { return "" }

// InstrLog replays a recorded instruction log (the trace package's
// streaming line format) through the simulator. The log streams off disk
// in bounded memory via trace.ProgramReader, so multi-GB collection
// dumps replay without ever being materialized. The suite argument to
// Measure is ignored — the log is the workload.
type InstrLog struct {
	Path string
	// SuiteName labels the resulting single-workload measurement.
	SuiteName string
	// Cfg supplies the machine configuration, sample count, and
	// totals-only switch. Cfg.Instructions is the replay budget unless
	// MaxInstr overrides it; replay stops early if the log ends first.
	Cfg suites.Config
	// MaxInstr optionally overrides Cfg.Instructions as the budget.
	MaxInstr uint64
}

// Measure streams the log through a pooled machine and returns a
// single-workload suite measurement. A malformed record fails the
// measurement (the simulator alone cannot distinguish "log ended" from
// "log broke", so the reader's error is checked after the run).
func (src InstrLog) Measure(ctx context.Context, _ suites.Suite) (*perf.SuiteMeasurement, error) {
	fail := func(err error) (*perf.SuiteMeasurement, error) {
		return nil, stage.Wrap(stage.Measure, src.SuiteName, src.SuiteName, err)
	}
	budget := src.MaxInstr
	if budget == 0 {
		budget = src.Cfg.Instructions
	}
	if err := src.Cfg.Validate(); err != nil {
		return nil, err
	}
	f, err := os.Open(src.Path)
	if err != nil {
		return fail(err)
	}
	defer f.Close()
	pr := trace.NewProgramReader(bufio.NewReaderSize(f, 1<<20), src.SuiteName)
	mc := src.Cfg.Machine
	mc.SampleInterval = budget / uint64(src.Cfg.Samples)
	if mc.SampleInterval == 0 {
		mc.SampleInterval = 1
	}
	mc.CountersOnly = src.Cfg.TotalsOnly
	m, err := uarch.DefaultMachinePool.Get(mc)
	if err != nil {
		return fail(err)
	}
	defer uarch.DefaultMachinePool.Put(m)
	meas, err := m.RunContext(ctx, pr, budget)
	if err != nil {
		return fail(err)
	}
	if err := pr.Err(); err != nil {
		return fail(err)
	}
	return &perf.SuiteMeasurement{
		Suite:     src.SuiteName,
		Workloads: []perf.Measurement{*meas},
	}, nil
}

// Key returns "" — a replayed log is raw input, not a reproducible
// function of a suite definition, so it bypasses the cache.
func (src InstrLog) Key(_ suites.Suite) string { return "" }

// Caching decorates a Source with the content-addressed on-disk cache:
// hit → decode the stored trace (bit-exact, see cache package doc);
// miss → measure through the inner source and fill the entry. A nil
// Store and a keyless inner source both degenerate to pass-through.
type Caching struct {
	Inner Source
	Store *cache.Store
}

// Measure returns the cached measurement when warm, else measures via
// the inner source and stores the result. A failed store write (e.g.
// full disk) never fails the measurement itself.
func (src Caching) Measure(ctx context.Context, s suites.Suite) (*perf.SuiteMeasurement, error) {
	ctx, span := obs.Start(ctx, "measure", obs.String("suite", s.Name))
	defer span.End()
	key := src.Inner.Key(s)
	if key == "" {
		span.SetAttr("cache", "bypass")
		return src.Inner.Measure(ctx, s)
	}
	if m, ok := src.Store.Get(key); ok {
		span.SetAttr("cache", "hit")
		obs.FromContext(ctx).Count(obs.CounterCacheHits, 1)
		return m, nil
	}
	span.SetAttr("cache", "miss")
	obs.FromContext(ctx).Count(obs.CounterCacheMisses, 1)
	m, err := src.Inner.Measure(ctx, s)
	if err != nil {
		return nil, err
	}
	if err := src.Store.Put(key, m); err != nil {
		return m, nil
	}
	return m, nil
}

// Key forwards the inner source's content-address, so Caching decorators
// compose transparently.
func (src Caching) Key(s suites.Suite) string { return src.Inner.Key(s) }
