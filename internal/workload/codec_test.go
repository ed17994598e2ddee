package workload

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"perspector/internal/uarch"
)

// roundTripSpec is a spec exercising every pattern kind, nil store
// patterns, explicit store patterns, and non-trivial float parameters.
func roundTripSpec() Spec {
	return Spec{
		Name:         "codec.roundtrip",
		Instructions: 123_456,
		Seed:         0xdeadbeef,
		Phases: []Phase{
			{
				Name: "seq", Weight: 0.3, LoadFrac: 0.25, StoreFrac: 0.1,
				BranchFrac: 0.05, LoadPattern: Sequential{WorkingSet: 8 << 20, Stride: 64},
				BranchRegularity: 0.97, BranchTakenProb: 0.95, BranchSites: 12,
			},
			{
				Name: "streams", Weight: 1.7, LoadFrac: 0.4,
				LoadPattern:  Streams{WorkingSet: 4 << 20, Count: 4, Stride: 128},
				StorePattern: Random{WorkingSet: 1 << 20},
			},
			{
				Name: "graph", Weight: 0.61803398874989484, LoadFrac: 0.33,
				LoadPattern: Zipf{WorkingSet: 64 << 20, Alpha: 0.9},
				BranchFrac:  0.12, BranchRegularity: 0.55, BranchTakenProb: 0.5,
			},
			{
				Name: "chase", Weight: 1, LoadFrac: 0.5,
				LoadPattern: PointerChase{WorkingSet: 1 << 20},
				SyscallFrac: 0.002, SyscallFaultProb: 0.25,
			},
			{
				Name: "mixed", Weight: 0.004, LoadFrac: 0.2, StoreFrac: 0.2,
				LoadPattern: Alternating{
					A:      HotCold{HotSet: 64 << 10, ColdSet: 32 << 20, HotFrac: 0.85},
					B:      Sequential{WorkingSet: 256 << 10},
					Period: 96,
				},
			},
		},
	}
}

func TestSpecRoundTrip(t *testing.T) {
	orig := roundTripSpec()
	data, err := MarshalSpec(orig)
	if err != nil {
		t.Fatalf("MarshalSpec: %v", err)
	}
	got, err := UnmarshalSpec(data)
	if err != nil {
		t.Fatalf("UnmarshalSpec: %v", err)
	}
	if !reflect.DeepEqual(orig, got) {
		t.Fatalf("round trip drift:\norig %+v\ngot  %+v", orig, got)
	}
}

func TestPatternRoundTripEveryKind(t *testing.T) {
	pats := []PatternSpec{
		Sequential{WorkingSet: 4096, Stride: 64},
		Sequential{WorkingSet: 4096}, // zero stride stays zero (default applies at Instantiate)
		Streams{WorkingSet: 1 << 20, Count: 7, Stride: 256},
		Random{WorkingSet: 64},
		Zipf{WorkingSet: 8192, Alpha: 1.2},
		Zipf{WorkingSet: 8192}, // alpha 0 = uniform
		PointerChase{WorkingSet: 1 << 16},
		HotCold{HotSet: 64, ColdSet: 128, HotFrac: 0.5},
		Alternating{A: Random{WorkingSet: 64}, B: Sequential{WorkingSet: 4096}, Period: 32},
		Alternating{ // nested alternating
			A:      Alternating{A: Random{WorkingSet: 64}, B: Random{WorkingSet: 128}},
			B:      Sequential{WorkingSet: 4096},
			Period: 8,
		},
	}
	for _, p := range pats {
		raw, err := MarshalPattern(p)
		if err != nil {
			t.Fatalf("MarshalPattern(%+v): %v", p, err)
		}
		got, err := UnmarshalPattern(raw)
		if err != nil {
			t.Fatalf("UnmarshalPattern(%s): %v", raw, err)
		}
		if !reflect.DeepEqual(p, got) {
			t.Errorf("pattern drift: %+v -> %s -> %+v", p, raw, got)
		}
	}
}

func TestUnmarshalPatternRejects(t *testing.T) {
	cases := []struct {
		name string
		in   string
		want string
	}{
		{"unknown kind", `{"kind":"prefetch","working_set":64}`, "unknown pattern kind"},
		{"missing kind", `{"working_set":64}`, "missing kind"},
		{"unknown field", `{"kind":"random","working_set":64,"sets":3}`, "unknown field"},
		{"zero working set", `{"kind":"random","working_set":0}`, "zero working set"},
		{"huge working set", `{"kind":"random","working_set":2199023255552}`, "exceeds"},
		{"negative working set", `{"kind":"random","working_set":-1}`, "cannot unmarshal"},
		{"streams zero count", `{"kind":"streams","working_set":4096,"count":0}`, "out of"},
		{"streams huge count", `{"kind":"streams","working_set":4096,"count":100000}`, "out of"},
		{"zipf negative alpha", `{"kind":"zipf","working_set":8192,"alpha":-0.5}`, "alpha"},
		{"zipf huge alpha", `{"kind":"zipf","working_set":8192,"alpha":1e6}`, "alpha"},
		{"hotcold bad frac", `{"kind":"hot_cold","hot_set":64,"cold_set":64,"hot_frac":1.5}`, "hot_frac"},
		{"alternating missing sub", `{"kind":"alternating","a":{"kind":"random","working_set":64}}`, "both sub-patterns"},
		{"alternating negative period", `{"kind":"alternating","a":{"kind":"random","working_set":64},"b":{"kind":"random","working_set":64},"period":-1}`, "period"},
		{"not json", `{{`, ""},
	}
	for _, tc := range cases {
		_, err := UnmarshalPattern(json.RawMessage(tc.in))
		if err == nil {
			t.Errorf("%s: accepted %s", tc.name, tc.in)
			continue
		}
		if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestUnmarshalPatternDepthBound(t *testing.T) {
	// Build alternating nesting deeper than maxAltDepth.
	inner := `{"kind":"random","working_set":64}`
	doc := inner
	for i := 0; i < maxAltDepth+2; i++ {
		doc = `{"kind":"alternating","a":` + doc + `,"b":` + inner + `}`
	}
	if _, err := UnmarshalPattern(json.RawMessage(doc)); err == nil {
		t.Fatal("accepted over-deep alternating nesting")
	}
}

func TestUnmarshalSpecRejects(t *testing.T) {
	valid := func() []byte {
		data, err := MarshalSpec(roundTripSpec())
		if err != nil {
			t.Fatal(err)
		}
		return data
	}()
	cases := []struct {
		name   string
		mutate func(map[string]any)
		want   string
	}{
		{"wrong version", func(m map[string]any) { m["version"] = 2 }, "version"},
		{"missing version", func(m map[string]any) { delete(m, "version") }, "version"},
		{"no name", func(m map[string]any) { m["name"] = "" }, "no name"},
		{"no phases", func(m map[string]any) { m["phases"] = []any{} }, "phases"},
	}
	for _, tc := range cases {
		var m map[string]any
		if err := json.Unmarshal(valid, &m); err != nil {
			t.Fatal(err)
		}
		tc.mutate(m)
		data, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := UnmarshalSpec(data); err == nil {
			t.Errorf("%s: accepted", tc.name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
	// Semantic validation is reached too: a phase with memory fractions
	// but no pattern decodes structurally but fails Spec.Validate.
	doc := `{"version":1,"name":"w","instructions":1000,"phases":[{"weight":1,"load_frac":0.5}]}`
	if _, err := UnmarshalSpec([]byte(doc)); err == nil || !strings.Contains(err.Error(), "no pattern") {
		t.Errorf("patternless memory phase: err = %v", err)
	}
	// Trailing garbage after the document is rejected.
	if _, err := UnmarshalSpec(append(append([]byte{}, valid...), []byte(`{"x":1}`)...)); err == nil {
		t.Error("trailing garbage accepted")
	}
}

// TestDecodedSpecCompiles pins that a decoded spec is not just
// DeepEqual but actually compiles and emits the same instruction stream
// as the original.
func TestDecodedSpecCompiles(t *testing.T) {
	orig := roundTripSpec()
	orig.Instructions = 10_000
	data, err := MarshalSpec(orig)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := UnmarshalSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := Compile(orig)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Compile(dec)
	if err != nil {
		t.Fatal(err)
	}
	var a, b [256]uarch.Instr
	for {
		n1 := p1.NextBatch(a[:])
		n2 := p2.NextBatch(b[:])
		if n1 != n2 {
			t.Fatalf("stream lengths diverge: %d vs %d", n1, n2)
		}
		if a != b {
			t.Fatal("instruction streams diverge")
		}
		if n1 == 0 {
			break
		}
	}
}
