package jobs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"perspector/internal/perf"
	"perspector/internal/store"
	"perspector/internal/suites"
	"perspector/internal/trace"
)

// MaxTraceBytes bounds one uploaded trace. The six stock suites at the
// default config serialize to single-digit megabytes; 64 MiB leaves
// room for much longer real-hardware traces while keeping one request
// from exhausting the process.
const MaxTraceBytes = 64 << 20

// TraceUpload is an inline measurement upload: the bytes of a trace
// file in the internal/trace JSON or CSV schema.
type TraceUpload struct {
	// Format is "json" (totals + series) or "csv" (totals only; the
	// engine's capability check then skips the TrendScore).
	Format string `json:"format"`
	// Name names the uploaded suite (CSV carries no name of its own).
	Name string `json:"name,omitempty"`
	// Data is the raw file content.
	Data []byte `json:"data"`
}

// Request describes one scoring job. The zero values of Group and
// Config normalize to the paper defaults.
type Request struct {
	// Kind is store.KindScore (one suite, own normalization) or
	// store.KindCompare (several suites, joint normalization).
	Kind string `json:"kind"`
	// Suites names registered suites to simulate; empty for trace
	// uploads and spec-only score requests.
	Suites []string `json:"suites,omitempty"`
	// Group selects the focused event group: "all", "llc", "tlb".
	Group string `json:"group,omitempty"`
	// Config is the simulation configuration; zero fields take the
	// defaults (400k instructions, 100 samples, seed 2023).
	Config store.RunConfig `json:"config"`
	// Trace, when set, scores uploaded measurements instead of
	// simulating. Mutually exclusive with Suites and SuiteSpec.
	Trace *TraceUpload `json:"trace,omitempty"`
	// RequestID is the trace ID of the HTTP request that submitted the
	// job (the server's X-Request-ID). It rides the fleet wire inside
	// Dispatch, so one ID stitches a job's lifecycle across coordinator
	// and worker logs. It is deliberately EXCLUDED from the content key
	// (hashRequest): two submissions differing only in trace ID are the
	// same job and must still deduplicate — a dedup fold keeps the
	// first job's ID.
	RequestID string `json:"request_id,omitempty"`
	// SuiteSpec, when set, is an inline declarative suite-spec document
	// (the -suite-file format). The suite builds and scores exactly like
	// a registered one — for kind "score" on its own, for kind "compare"
	// jointly after the named Suites — and its measurement content
	// address (which hashes the canonical spec JSON) folds into the
	// job/cache key, so two spec texts that build the same suite dedup
	// and two that differ anywhere do not. Mutually exclusive with Trace.
	SuiteSpec json.RawMessage `json:"suite_spec,omitempty"`

	// suiteSpec is the decoded SuiteSpec, set by Normalize.
	suiteSpec *suites.SuiteSpec
	// traceMeas is the parsed Trace upload, set by Normalize.
	traceMeas *perf.SuiteMeasurement
}

// DecodeStrict decodes one JSON value from r into v, rejecting unknown
// fields: the decoder for job requests, stream opens and chunks.
func DecodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// Normalize fills defaults and validates the request in place. It must
// succeed before Key, SimConfig or a Runner may be used.
func (r *Request) Normalize() error {
	switch r.Kind {
	case store.KindScore, store.KindCompare:
	case "":
		return fmt.Errorf("jobs: request needs a kind (%q or %q)", store.KindScore, store.KindCompare)
	default:
		return fmt.Errorf("jobs: unknown kind %q", r.Kind)
	}
	if r.Group == "" {
		r.Group = "all"
	}
	if _, err := perf.GroupByName(r.Group); err != nil {
		return fmt.Errorf("jobs: %w", err)
	}
	def := suites.DefaultConfig()
	if r.Config.Instructions == 0 {
		r.Config.Instructions = def.Instructions
	}
	if r.Config.Samples == 0 {
		r.Config.Samples = def.Samples
	}
	if r.Config.Seed == 0 {
		r.Config.Seed = def.Seed
	}
	if r.Config.Samples < 2 {
		return fmt.Errorf("jobs: samples %d < 2", r.Config.Samples)
	}
	if r.Trace != nil {
		if len(r.Suites) > 0 {
			return fmt.Errorf("jobs: request has both suites and a trace upload")
		}
		if len(r.SuiteSpec) > 0 {
			return fmt.Errorf("jobs: request has both a suite spec and a trace upload")
		}
		if r.Kind != store.KindScore {
			return fmt.Errorf("jobs: trace uploads are single-suite: kind must be %q", store.KindScore)
		}
		if r.Trace.Format == "" {
			r.Trace.Format = "json"
		}
		if r.Trace.Format != "json" && r.Trace.Format != "csv" {
			return fmt.Errorf("jobs: unknown trace format %q", r.Trace.Format)
		}
		if r.Trace.Name == "" {
			r.Trace.Name = "uploaded"
		}
		if len(r.Trace.Data) == 0 {
			return fmt.Errorf("jobs: trace upload is empty")
		}
		if len(r.Trace.Data) > MaxTraceBytes {
			return fmt.Errorf("jobs: trace upload exceeds %d bytes", MaxTraceBytes)
		}
		// Parse once here and keep the result for the runner: an upload
		// that does not parse is refused at submission, and admit
		// implies run.
		m, err := trace.Read(bytes.NewReader(r.Trace.Data), r.Trace.Format, r.Trace.Name)
		if err != nil {
			return fmt.Errorf("jobs: trace upload does not parse: %w", err)
		}
		r.traceMeas = m
		return nil
	}
	cfg := r.SimConfig()
	r.suiteSpec = nil
	if len(r.SuiteSpec) > 0 {
		if len(r.SuiteSpec) > suites.MaxSuiteSpecBytes {
			return fmt.Errorf("jobs: suite spec exceeds %d bytes", suites.MaxSuiteSpecBytes)
		}
		sp, err := suites.UnmarshalSuiteSpec(r.SuiteSpec)
		if err != nil {
			return fmt.Errorf("jobs: %w", err)
		}
		// The spec must build under this request's config: Build is what
		// the runner will call, so admit implies run.
		if _, err := sp.Build(cfg); err != nil {
			return fmt.Errorf("jobs: %w", err)
		}
		r.suiteSpec = sp
	}
	nSuites := len(r.Suites)
	if r.suiteSpec != nil {
		nSuites++
	}
	if nSuites == 0 {
		return fmt.Errorf("jobs: request needs suites, a suite spec, or a trace upload")
	}
	if r.Kind == store.KindScore && nSuites != 1 {
		return fmt.Errorf("jobs: kind %q scores exactly one suite, got %d", store.KindScore, nSuites)
	}
	seen := make(map[string]bool, nSuites)
	for _, name := range r.Suites {
		if seen[name] {
			return fmt.Errorf("jobs: suite %q listed twice", name)
		}
		seen[name] = true
		if _, err := suites.ByName(name, cfg); err != nil {
			return fmt.Errorf("jobs: %w", err)
		}
	}
	if r.suiteSpec != nil && seen[r.suiteSpec.Name] {
		return fmt.Errorf("jobs: inline suite %q also listed in suites", r.suiteSpec.Name)
	}
	return nil
}

// ResolvedSuites returns every suite the request scores under cfg:
// registered names in request order, then the inline spec suite. It is
// only valid after Normalize.
func (r *Request) ResolvedSuites(cfg suites.Config) ([]suites.Suite, error) {
	out := make([]suites.Suite, 0, len(r.Suites)+1)
	for _, name := range r.Suites {
		s, err := suites.ByName(name, cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	if r.suiteSpec != nil {
		s, err := r.suiteSpec.Build(cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// SimConfig renders the request's simulation config: the paper's
// Table-II machine under the requested budget/samples/seed.
func (r *Request) SimConfig() suites.Config {
	cfg := suites.DefaultConfig()
	cfg.Instructions = r.Config.Instructions
	cfg.Samples = r.Config.Samples
	cfg.Seed = r.Config.Seed
	return cfg
}

// Key returns the request's content address (see hashRequest).
func (r *Request) Key() string { return hashRequest(r) }
