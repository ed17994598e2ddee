// Spec/Phase JSON codec: the serialized form behind declarative suite
// specs (internal/suites/specs), -suite-file, and perspectord inline
// suite submissions.
//
// # Format
//
// A serialized Spec is a versioned envelope:
//
//	{"version": 1, "name": "w", "instructions": 400000, "phases": [...]}
//
// Each phase carries the instruction mix, branch model, and up to two
// access patterns. Patterns are tagged unions — a named generator kind
// plus its typed parameter block:
//
//	{"kind": "sequential", "working_set": 8388608, "stride": 64}
//	{"kind": "streams", "working_set": 4194304, "count": 4}
//	{"kind": "random", "working_set": 1048576}
//	{"kind": "zipf", "working_set": 536870912, "alpha": 0.9}
//	{"kind": "pointer_chase", "working_set": 33554432}
//	{"kind": "hot_cold", "hot_set": 65536, "cold_set": 134217728, "hot_frac": 0.85}
//	{"kind": "alternating", "a": {...}, "b": {...}, "period": 256}
//
// # Guarantees
//
// Decoding is strict: unknown fields, unknown kinds, trailing input, and
// parameters outside structural bounds (working sets over 1 TiB, nested
// alternating patterns beyond depth 8, …) are errors, never panics —
// these documents cross a network boundary in perspectord. Encoding and
// decoding round-trip every value bit-exactly: encoding/json emits the
// shortest float64 representation that parses back to the same bits, and
// integers are decoded from their exact literals, so a decoded spec is
// reflect.DeepEqual to its source and simulates to bit-identical
// measurements (pinned by the suite golden tests).

package workload

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

// CodecVersion is the serialized Spec format version. Decoders accept
// exactly this version; bump it whenever the schema changes shape.
const CodecVersion = 1

// Structural bounds on decoded pattern parameters. They are deliberately
// far above anything the stock suites use: their job is to stop a hostile
// or corrupt document from requesting absurd allocations at Compile time
// (a PointerChase table, a Streams base array), not to second-guess the
// modeller. Semantic validation stays with Validate/Instantiate.
const (
	maxPatternBytes = uint64(1) << 40 // 1 TiB working set
	maxStreamCount  = 1 << 16
	maxZipfAlpha    = 64.0
	maxAltPeriod    = 1 << 30
	maxAltDepth     = 8
)

// Pattern kind tags.
const (
	kindSequential   = "sequential"
	kindStreams      = "streams"
	kindRandom       = "random"
	kindZipf         = "zipf"
	kindPointerChase = "pointer_chase"
	kindHotCold      = "hot_cold"
	kindAlternating  = "alternating"
)

// Per-kind parameter blocks. Each embeds its kind tag so one strict
// decode of the full struct both dispatches and rejects unknown fields.
type sequentialJSON struct {
	Kind       string `json:"kind"`
	WorkingSet uint64 `json:"working_set"`
	Stride     uint64 `json:"stride,omitempty"`
}

type streamsJSON struct {
	Kind       string `json:"kind"`
	WorkingSet uint64 `json:"working_set"`
	Count      int    `json:"count"`
	Stride     uint64 `json:"stride,omitempty"`
}

type randomJSON struct {
	Kind       string `json:"kind"`
	WorkingSet uint64 `json:"working_set"`
}

type zipfJSON struct {
	Kind       string  `json:"kind"`
	WorkingSet uint64  `json:"working_set"`
	Alpha      float64 `json:"alpha,omitempty"`
}

type pointerChaseJSON struct {
	Kind       string `json:"kind"`
	WorkingSet uint64 `json:"working_set"`
}

type hotColdJSON struct {
	Kind    string  `json:"kind"`
	HotSet  uint64  `json:"hot_set"`
	ColdSet uint64  `json:"cold_set"`
	HotFrac float64 `json:"hot_frac"`
}

type alternatingJSON struct {
	Kind   string          `json:"kind"`
	A      json.RawMessage `json:"a"`
	B      json.RawMessage `json:"b"`
	Period int             `json:"period,omitempty"`
}

// MarshalPattern renders a pattern spec as its tagged parameter block.
func MarshalPattern(p PatternSpec) (json.RawMessage, error) {
	switch v := p.(type) {
	case Sequential:
		return json.Marshal(sequentialJSON{Kind: kindSequential, WorkingSet: v.WorkingSet, Stride: v.Stride})
	case Streams:
		return json.Marshal(streamsJSON{Kind: kindStreams, WorkingSet: v.WorkingSet, Count: v.Count, Stride: v.Stride})
	case Random:
		return json.Marshal(randomJSON{Kind: kindRandom, WorkingSet: v.WorkingSet})
	case Zipf:
		return json.Marshal(zipfJSON{Kind: kindZipf, WorkingSet: v.WorkingSet, Alpha: v.Alpha})
	case PointerChase:
		return json.Marshal(pointerChaseJSON{Kind: kindPointerChase, WorkingSet: v.WorkingSet})
	case HotCold:
		return json.Marshal(hotColdJSON{Kind: kindHotCold, HotSet: v.HotSet, ColdSet: v.ColdSet, HotFrac: v.HotFrac})
	case Alternating:
		a, err := MarshalPattern(v.A)
		if err != nil {
			return nil, fmt.Errorf("workload: alternating sub-pattern A: %w", err)
		}
		b, err := MarshalPattern(v.B)
		if err != nil {
			return nil, fmt.Errorf("workload: alternating sub-pattern B: %w", err)
		}
		return json.Marshal(alternatingJSON{Kind: kindAlternating, A: a, B: b, Period: v.Period})
	case nil:
		return nil, fmt.Errorf("workload: cannot marshal nil pattern")
	default:
		return nil, fmt.Errorf("workload: unregistered pattern type %T", p)
	}
}

// UnmarshalPattern decodes a tagged parameter block into its pattern
// spec. Unknown kinds, unknown fields, and parameters outside the
// structural bounds are errors.
func UnmarshalPattern(data json.RawMessage) (PatternSpec, error) {
	return unmarshalPattern(data, 0)
}

// decodeStrict decodes data into v rejecting unknown fields and any
// trailing non-whitespace input.
func decodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("trailing data after document")
	}
	return nil
}

func checkWorkingSet(kind string, ws uint64) error {
	if ws == 0 {
		return fmt.Errorf("workload: %s pattern with zero working set", kind)
	}
	if ws > maxPatternBytes {
		return fmt.Errorf("workload: %s working set %d exceeds %d-byte bound", kind, ws, maxPatternBytes)
	}
	return nil
}

func unmarshalPattern(data json.RawMessage, depth int) (PatternSpec, error) {
	if depth > maxAltDepth {
		return nil, fmt.Errorf("workload: pattern nesting exceeds depth %d", maxAltDepth)
	}
	var tag struct {
		Kind string `json:"kind"`
	}
	if err := json.Unmarshal(data, &tag); err != nil {
		return nil, fmt.Errorf("workload: pattern: %w", err)
	}
	switch tag.Kind {
	case kindSequential:
		var v sequentialJSON
		if err := decodeStrict(data, &v); err != nil {
			return nil, fmt.Errorf("workload: %s pattern: %w", tag.Kind, err)
		}
		if err := checkWorkingSet(tag.Kind, v.WorkingSet); err != nil {
			return nil, err
		}
		if v.Stride > maxPatternBytes {
			return nil, fmt.Errorf("workload: %s stride %d exceeds bound", tag.Kind, v.Stride)
		}
		return Sequential{WorkingSet: v.WorkingSet, Stride: v.Stride}, nil
	case kindStreams:
		var v streamsJSON
		if err := decodeStrict(data, &v); err != nil {
			return nil, fmt.Errorf("workload: %s pattern: %w", tag.Kind, err)
		}
		if err := checkWorkingSet(tag.Kind, v.WorkingSet); err != nil {
			return nil, err
		}
		if v.Count < 1 || v.Count > maxStreamCount {
			return nil, fmt.Errorf("workload: %s count %d out of [1,%d]", tag.Kind, v.Count, maxStreamCount)
		}
		if v.Stride > maxPatternBytes {
			return nil, fmt.Errorf("workload: %s stride %d exceeds bound", tag.Kind, v.Stride)
		}
		return Streams{WorkingSet: v.WorkingSet, Count: v.Count, Stride: v.Stride}, nil
	case kindRandom:
		var v randomJSON
		if err := decodeStrict(data, &v); err != nil {
			return nil, fmt.Errorf("workload: %s pattern: %w", tag.Kind, err)
		}
		if err := checkWorkingSet(tag.Kind, v.WorkingSet); err != nil {
			return nil, err
		}
		return Random{WorkingSet: v.WorkingSet}, nil
	case kindZipf:
		var v zipfJSON
		if err := decodeStrict(data, &v); err != nil {
			return nil, fmt.Errorf("workload: %s pattern: %w", tag.Kind, err)
		}
		if err := checkWorkingSet(tag.Kind, v.WorkingSet); err != nil {
			return nil, err
		}
		if v.Alpha < 0 || v.Alpha > maxZipfAlpha {
			return nil, fmt.Errorf("workload: %s alpha %v out of [0,%v]", tag.Kind, v.Alpha, maxZipfAlpha)
		}
		return Zipf{WorkingSet: v.WorkingSet, Alpha: v.Alpha}, nil
	case kindPointerChase:
		var v pointerChaseJSON
		if err := decodeStrict(data, &v); err != nil {
			return nil, fmt.Errorf("workload: %s pattern: %w", tag.Kind, err)
		}
		if err := checkWorkingSet(tag.Kind, v.WorkingSet); err != nil {
			return nil, err
		}
		return PointerChase{WorkingSet: v.WorkingSet}, nil
	case kindHotCold:
		var v hotColdJSON
		if err := decodeStrict(data, &v); err != nil {
			return nil, fmt.Errorf("workload: %s pattern: %w", tag.Kind, err)
		}
		if err := checkWorkingSet(tag.Kind, v.HotSet); err != nil {
			return nil, err
		}
		if err := checkWorkingSet(tag.Kind, v.ColdSet); err != nil {
			return nil, err
		}
		if v.HotFrac < 0 || v.HotFrac > 1 {
			return nil, fmt.Errorf("workload: %s hot_frac %v out of [0,1]", tag.Kind, v.HotFrac)
		}
		return HotCold{HotSet: v.HotSet, ColdSet: v.ColdSet, HotFrac: v.HotFrac}, nil
	case kindAlternating:
		var v alternatingJSON
		if err := decodeStrict(data, &v); err != nil {
			return nil, fmt.Errorf("workload: %s pattern: %w", tag.Kind, err)
		}
		if v.Period < 0 || v.Period > maxAltPeriod {
			return nil, fmt.Errorf("workload: %s period %d out of [0,%d]", tag.Kind, v.Period, maxAltPeriod)
		}
		if len(v.A) == 0 || len(v.B) == 0 {
			return nil, fmt.Errorf("workload: %s needs both sub-patterns", tag.Kind)
		}
		a, err := unmarshalPattern(v.A, depth+1)
		if err != nil {
			return nil, fmt.Errorf("workload: alternating sub-pattern A: %w", err)
		}
		b, err := unmarshalPattern(v.B, depth+1)
		if err != nil {
			return nil, fmt.Errorf("workload: alternating sub-pattern B: %w", err)
		}
		return Alternating{A: a, B: b, Period: v.Period}, nil
	case "":
		return nil, fmt.Errorf("workload: pattern missing kind tag")
	default:
		return nil, fmt.Errorf("workload: unknown pattern kind %q", tag.Kind)
	}
}

// phaseJSON is the serialized Phase.
type phaseJSON struct {
	Name             string          `json:"name,omitempty"`
	Weight           float64         `json:"weight"`
	LoadFrac         float64         `json:"load_frac,omitempty"`
	StoreFrac        float64         `json:"store_frac,omitempty"`
	BranchFrac       float64         `json:"branch_frac,omitempty"`
	SyscallFrac      float64         `json:"syscall_frac,omitempty"`
	LoadPattern      json.RawMessage `json:"load_pattern,omitempty"`
	StorePattern     json.RawMessage `json:"store_pattern,omitempty"`
	BranchRegularity float64         `json:"branch_regularity,omitempty"`
	BranchTakenProb  float64         `json:"branch_taken_prob,omitempty"`
	BranchSites      int             `json:"branch_sites,omitempty"`
	SyscallFaultProb float64         `json:"syscall_fault_prob,omitempty"`
}

func marshalPhase(p Phase) (phaseJSON, error) {
	out := phaseJSON{
		Name:             p.Name,
		Weight:           p.Weight,
		LoadFrac:         p.LoadFrac,
		StoreFrac:        p.StoreFrac,
		BranchFrac:       p.BranchFrac,
		SyscallFrac:      p.SyscallFrac,
		BranchRegularity: p.BranchRegularity,
		BranchTakenProb:  p.BranchTakenProb,
		BranchSites:      p.BranchSites,
		SyscallFaultProb: p.SyscallFaultProb,
	}
	if p.LoadPattern != nil {
		raw, err := MarshalPattern(p.LoadPattern)
		if err != nil {
			return phaseJSON{}, err
		}
		out.LoadPattern = raw
	}
	if p.StorePattern != nil {
		raw, err := MarshalPattern(p.StorePattern)
		if err != nil {
			return phaseJSON{}, err
		}
		out.StorePattern = raw
	}
	return out, nil
}

func unmarshalPhase(pj phaseJSON, i int) (Phase, error) {
	p := Phase{
		Name:             pj.Name,
		Weight:           pj.Weight,
		LoadFrac:         pj.LoadFrac,
		StoreFrac:        pj.StoreFrac,
		BranchFrac:       pj.BranchFrac,
		SyscallFrac:      pj.SyscallFrac,
		BranchRegularity: pj.BranchRegularity,
		BranchTakenProb:  pj.BranchTakenProb,
		BranchSites:      pj.BranchSites,
		SyscallFaultProb: pj.SyscallFaultProb,
	}
	if pj.BranchSites < 0 || pj.BranchSites > 1<<20 {
		return Phase{}, fmt.Errorf("workload: phase %d branch_sites %d out of range", i, pj.BranchSites)
	}
	if len(pj.LoadPattern) > 0 {
		pat, err := UnmarshalPattern(pj.LoadPattern)
		if err != nil {
			return Phase{}, fmt.Errorf("phase %d load pattern: %w", i, err)
		}
		p.LoadPattern = pat
	}
	if len(pj.StorePattern) > 0 {
		pat, err := UnmarshalPattern(pj.StorePattern)
		if err != nil {
			return Phase{}, fmt.Errorf("phase %d store pattern: %w", i, err)
		}
		p.StorePattern = pat
	}
	return p, nil
}

// MarshalPhases renders a phase list as a JSON array. The suites spec
// format embeds these arrays per workload.
func MarshalPhases(ps []Phase) (json.RawMessage, error) {
	out := make([]phaseJSON, len(ps))
	for i, p := range ps {
		pj, err := marshalPhase(p)
		if err != nil {
			return nil, fmt.Errorf("workload: phase %d: %w", i, err)
		}
		out[i] = pj
	}
	return json.Marshal(out)
}

// UnmarshalPhases decodes a JSON phase array (strict: unknown fields and
// out-of-bound pattern parameters are errors). The decoded phases are
// structurally checked but not semantically validated — callers assemble
// them into a Spec and call Validate.
func UnmarshalPhases(data json.RawMessage) ([]Phase, error) {
	var raw []phaseJSON
	if err := decodeStrict(data, &raw); err != nil {
		return nil, fmt.Errorf("workload: phases: %w", err)
	}
	out := make([]Phase, len(raw))
	for i, pj := range raw {
		p, err := unmarshalPhase(pj, i)
		if err != nil {
			return nil, fmt.Errorf("workload: %w", err)
		}
		out[i] = p
	}
	return out, nil
}

// specJSON is the versioned Spec envelope.
type specJSON struct {
	Version      int             `json:"version"`
	Name         string          `json:"name"`
	Instructions uint64          `json:"instructions,omitempty"`
	Seed         uint64          `json:"seed,omitempty"`
	BaseOffset   uint64          `json:"base_offset,omitempty"`
	Phases       json.RawMessage `json:"phases"`
}

// MarshalSpec renders a complete Spec as its versioned JSON document.
func MarshalSpec(s Spec) ([]byte, error) {
	phases, err := MarshalPhases(s.Phases)
	if err != nil {
		return nil, err
	}
	return json.Marshal(specJSON{
		Version:      CodecVersion,
		Name:         s.Name,
		Instructions: s.Instructions,
		Seed:         s.Seed,
		BaseOffset:   s.BaseOffset,
		Phases:       phases,
	})
}
