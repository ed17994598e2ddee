// Declarative suite specs: the serialized form of a Suite, and the only
// definition of every registered suite. A spec file names the suite and
// lists its workloads; each workload is a phase list in the
// internal/workload codec format. Instruction budgets and per-workload
// seeds are *derived*, not stored — Build assigns cfg.Instructions
// (unless a workload pins its own budget) and seedFor(cfg, suite, i) —
// so one spec file measures identically at any -instr/-samples/-seed.
package suites

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"perspector/internal/workload"
)

// SpecVersion is the suite-spec document version. Decoders accept
// exactly this version.
const SpecVersion = 1

// MaxSuiteSpecBytes bounds one suite-spec document. It covers the
// largest stock suite (spec17, 43 workloads, 45 KB) about ninety times over
// while keeping hostile perspectord uploads from ballooning memory
// before validation rejects them.
const MaxSuiteSpecBytes = 4 << 20

// SuiteSpec is a decoded suite-spec document: a declarative Suite whose
// workload seeds and default instruction budgets bind at Build time.
type SuiteSpec struct {
	Name        string
	Description string
	Workloads   []WorkloadSpec
}

// WorkloadSpec is one workload entry of a SuiteSpec.
type WorkloadSpec struct {
	// Name is the full workload name (e.g. "parsec.blackscholes").
	Name string
	// Instructions, when non-zero, pins this workload's dynamic
	// instruction budget; zero means "use cfg.Instructions".
	Instructions uint64
	// Phases is the workload's phase list.
	Phases []workload.Phase
}

// Serialized forms.
type suiteSpecJSON struct {
	Version     int                `json:"version"`
	Name        string             `json:"name"`
	Description string             `json:"description,omitempty"`
	Workloads   []workloadSpecJSON `json:"workloads"`
}

type workloadSpecJSON struct {
	Name         string          `json:"name"`
	Instructions uint64          `json:"instructions,omitempty"`
	Phases       json.RawMessage `json:"phases"`
}

// DecodeSuiteSpec reads and validates one suite-spec document. Decoding
// is strict — unknown fields, unknown generator kinds, out-of-bound
// pattern parameters, duplicate or empty workload names, and trailing
// input are errors, never panics (the fuzz target FuzzDecodeSuiteSpec
// holds the never-panic line). The returned spec builds cleanly under
// any valid Config.
func DecodeSuiteSpec(r io.Reader) (*SuiteSpec, error) {
	data, err := io.ReadAll(io.LimitReader(r, MaxSuiteSpecBytes+1))
	if err != nil {
		return nil, fmt.Errorf("suites: spec: %w", err)
	}
	if len(data) > MaxSuiteSpecBytes {
		return nil, fmt.Errorf("suites: spec document exceeds %d bytes", MaxSuiteSpecBytes)
	}
	return UnmarshalSuiteSpec(data)
}

// UnmarshalSuiteSpec is DecodeSuiteSpec over an in-memory document.
func UnmarshalSuiteSpec(data []byte) (*SuiteSpec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var env suiteSpecJSON
	if err := dec.Decode(&env); err != nil {
		return nil, fmt.Errorf("suites: spec: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("suites: spec: trailing data after document")
	}
	if env.Version != SpecVersion {
		return nil, fmt.Errorf("suites: spec version %d not supported (want %d)", env.Version, SpecVersion)
	}
	if env.Name == "" {
		return nil, fmt.Errorf("suites: spec has no name")
	}
	if len(env.Workloads) == 0 {
		return nil, fmt.Errorf("suites: spec %q has no workloads", env.Name)
	}
	sp := &SuiteSpec{
		Name:        env.Name,
		Description: env.Description,
		Workloads:   make([]WorkloadSpec, len(env.Workloads)),
	}
	seen := make(map[string]bool, len(env.Workloads))
	for i, w := range env.Workloads {
		if w.Name == "" {
			return nil, fmt.Errorf("suites: spec %q: workload %d has no name", env.Name, i)
		}
		if seen[w.Name] {
			return nil, fmt.Errorf("suites: spec %q: duplicate workload %q", env.Name, w.Name)
		}
		seen[w.Name] = true
		if len(w.Phases) == 0 {
			return nil, fmt.Errorf("suites: spec %q: workload %q has no phases", env.Name, w.Name)
		}
		phases, err := workload.UnmarshalPhases(w.Phases)
		if err != nil {
			return nil, fmt.Errorf("suites: spec %q: workload %q: %w", env.Name, w.Name, err)
		}
		sp.Workloads[i] = WorkloadSpec{Name: w.Name, Instructions: w.Instructions, Phases: phases}
		// Semantic phase validation through the workload layer, with a
		// placeholder budget so a derived-budget workload still validates.
		probe := workload.Spec{Name: w.Name, Instructions: 1, Phases: phases}
		if w.Instructions != 0 {
			probe.Instructions = w.Instructions
		}
		if err := probe.Validate(); err != nil {
			return nil, fmt.Errorf("suites: spec %q: %w", env.Name, err)
		}
	}
	return sp, nil
}

// LoadSpecFile reads a suite-spec document from path.
func LoadSpecFile(path string) (*SuiteSpec, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("suites: %w", err)
	}
	defer f.Close()
	sp, err := DecodeSuiteSpec(f)
	if err != nil {
		return nil, fmt.Errorf("suites: %s: %w", path, err)
	}
	return sp, nil
}

// Build materializes the suite under cfg: every workload gets
// cfg.Instructions (unless it pins its own budget) and the derived seed
// seedFor(cfg, suite name, index).
func (sp *SuiteSpec) Build(cfg Config) (Suite, error) {
	s := Suite{Name: sp.Name, Description: sp.Description}
	for i, w := range sp.Workloads {
		instr := w.Instructions
		if instr == 0 {
			instr = cfg.Instructions
		}
		spec := workload.Spec{
			Name:         w.Name,
			Instructions: instr,
			Seed:         seedFor(cfg, sp.Name, i),
			Phases:       w.Phases,
		}
		if err := spec.Validate(); err != nil {
			return Suite{}, fmt.Errorf("suites: spec %q: %w", sp.Name, err)
		}
		s.Specs = append(s.Specs, spec)
	}
	return s, nil
}
