package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"perspector/internal/store"
	"perspector/internal/suites"
)

// specDoc renders a minimal valid suite-spec document. workingSet
// perturbs the spec content without changing its shape, so two calls
// with different values are semantically different suites.
func specDoc(name string, workingSet int) json.RawMessage {
	return json.RawMessage(fmt.Sprintf(`{
  "version": 1,
  "name": %q,
  "workloads": [
    {
      "name": "%s.scan",
      "phases": [
        {
          "name": "scan",
          "weight": 1,
          "load_frac": 0.4,
          "load_pattern": {"kind": "sequential", "working_set": %d, "stride": 64}
        }
      ]
    }
  ]
}`, name, name, workingSet))
}

func specReq(kind string, spec json.RawMessage, named ...string) Request {
	return Request{
		Kind:      kind,
		Suites:    named,
		SuiteSpec: spec,
		Config:    store.RunConfig{Instructions: 1000, Samples: 10, Seed: 7},
	}
}

// TestNormalizeInlineSpec pins the admission contract for inline suite
// specs: a valid spec scores alone or compares alongside named suites;
// everything ambiguous or malformed is rejected before a job exists.
func TestNormalizeInlineSpec(t *testing.T) {
	good := []Request{
		specReq(store.KindScore, specDoc("custom", 1<<20)),
		specReq(store.KindCompare, specDoc("custom", 1<<20), "nbench"),
		specReq(store.KindCompare, specDoc("custom", 1<<20), "nbench", "parsec"),
	}
	for i, req := range good {
		if err := req.Normalize(); err != nil {
			t.Errorf("valid spec request %d rejected: %v", i, err)
		}
	}

	huge := specReq(store.KindScore, json.RawMessage(`{"version":1,"name":"`+strings.Repeat("x", suites.MaxSuiteSpecBytes)+`"}`))
	bad := []Request{
		specReq(store.KindScore, specDoc("custom", 1<<20), "nbench"),                         // score takes one suite
		specReq(store.KindCompare, specDoc("nbench", 1<<20), "nbench"),                       // name collides with listed suite
		specReq(store.KindScore, json.RawMessage(`{"version":1,"name":"x","workloads":[]}`)), // no workloads
		specReq(store.KindScore, json.RawMessage(`{"version":9,"name":"x"}`)),                // wrong version
		specReq(store.KindScore, json.RawMessage(`{not json`)),
		huge,
		{
			Kind:      store.KindScore,
			SuiteSpec: specDoc("custom", 1<<20),
			Trace:     &TraceUpload{Format: "csv", Data: []byte("x")},
			Config:    store.RunConfig{Instructions: 1000, Samples: 10, Seed: 7},
		},
	}
	for i, req := range bad {
		if err := req.Normalize(); err == nil {
			t.Errorf("bad spec request %d admitted", i)
		}
	}
}

// TestInlineSpecKey pins content addressing for inline specs: the job
// key follows the spec's semantic content — identical documents and
// reformatted-but-equal documents share a key; any semantic change
// (working-set, suite name, request kind) produces a new one.
func TestInlineSpecKey(t *testing.T) {
	key := func(req Request) string {
		t.Helper()
		if err := req.Normalize(); err != nil {
			t.Fatal(err)
		}
		return req.Key()
	}

	base := key(specReq(store.KindScore, specDoc("custom", 1<<20)))
	if again := key(specReq(store.KindScore, specDoc("custom", 1<<20))); again != base {
		t.Errorf("identical spec requests got different keys: %s vs %s", base, again)
	}

	// Whitespace-only reformatting must not change the key: the content
	// address hashes the canonical re-marshalled spec, not the raw text.
	var compact bytes.Buffer
	if err := json.Compact(&compact, specDoc("custom", 1<<20)); err != nil {
		t.Fatal(err)
	}
	if k := key(specReq(store.KindScore, compact.Bytes())); k != base {
		t.Errorf("reformatted spec changed the key: %s vs %s", base, k)
	}

	if k := key(specReq(store.KindScore, specDoc("custom", 2<<20))); k == base {
		t.Error("working-set change did not change the key")
	}
	if k := key(specReq(store.KindScore, specDoc("other", 1<<20))); k == base {
		t.Error("suite-name change did not change the key")
	}
	if k := key(specReq(store.KindCompare, specDoc("custom", 1<<20), "nbench")); k == base {
		t.Error("adding a named suite did not change the key")
	}
}

// TestInlineSpecRuns submits an inline-spec job through the real queue
// with a runner that resolves the request's suites, pinning that the
// decoded spec survives from Normalize to the worker.
func TestInlineSpecRuns(t *testing.T) {
	q := New(func(ctx context.Context, h *Handle) (store.ScoreSet, error) {
		req := h.Request()
		ss, err := req.ResolvedSuites(req.SimConfig())
		if err != nil {
			return store.ScoreSet{}, err
		}
		if len(ss) != 1 || ss[0].Name != "custom" || len(ss[0].Specs) != 1 {
			return store.ScoreSet{}, fmt.Errorf("resolved %+v", ss)
		}
		return fakeResult(), nil
	}, Options{Workers: 1})
	defer q.Drain(context.Background())

	snap, dup, err := q.Submit(specReq(store.KindScore, specDoc("custom", 1<<20)))
	if err != nil || dup {
		t.Fatalf("submit: dup=%v err=%v", dup, err)
	}
	waitState(t, q, snap.ID, StateDone)
}

// TestPinnedBudgetsCountInstructions runs an inline spec whose workloads
// pin their own budgets through the production runner: the job and the
// queue must account the pinned budgets, not the config's per-workload
// default.
func TestPinnedBudgetsCountInstructions(t *testing.T) {
	workload := func(name string, instr int) string {
		return fmt.Sprintf(`{"name": %q, "instructions": %d, "phases": [{"name": "scan", "weight": 1,
  "load_frac": 0.4, "load_pattern": {"kind": "sequential", "working_set": 65536, "stride": 64}}]}`, name, instr)
	}
	spec := json.RawMessage(`{"version": 1, "name": "pinned", "workloads": [` +
		workload("pinned.a", 5000) + `, ` + workload("pinned.b", 7000) + `]}`)
	q := New(EngineRunner(nil), Options{Workers: 1})
	defer q.Drain(context.Background())

	snap, _, err := q.Submit(specReq(store.KindScore, spec))
	if err != nil {
		t.Fatal(err)
	}
	snap = waitState(t, q, snap.ID, StateDone)
	if snap.Instructions != 12000 {
		t.Errorf("job accounted %d instructions, want 12000 (5000 + 7000 pinned)", snap.Instructions)
	}
	if got := q.InstructionsRetired(); got != 12000 {
		t.Errorf("queue retired %d instructions, want 12000", got)
	}
}

// TestNormalizeParsesTraceUpload pins admit-implies-run for uploads:
// Normalize refuses bytes that do not parse and keeps the measurement
// it parsed, which the runner scores without reading the bytes again.
func TestNormalizeParsesTraceUpload(t *testing.T) {
	for _, up := range []TraceUpload{
		{Format: "csv", Data: []byte("not,a,header\n")},
		{Data: []byte("{not json")}, // format defaults to json
	} {
		req := Request{Kind: store.KindScore, Trace: &up}
		if err := req.Normalize(); err == nil || !strings.Contains(err.Error(), "does not parse") {
			t.Errorf("unparseable %q upload: err = %v", up.Format, err)
		}
	}

	csv := "workload,cpu-cycles,LLC-loads\nw0,100,10\nw1,300,20\nw2,200,70\n"
	req := Request{Kind: store.KindScore, Trace: &TraceUpload{Format: "csv", Data: []byte(csv)}}
	if err := req.Normalize(); err != nil {
		t.Fatal(err)
	}
	if m := req.traceMeas; m == nil || m.Suite != "uploaded" || len(m.Workloads) != 3 {
		t.Fatalf("Normalize kept %+v, want the 3-workload upload named %q", m, "uploaded")
	}
	req.Trace.Data = []byte("garbled after admission")
	q := New(EngineRunner(nil), Options{Workers: 1})
	defer q.Drain(context.Background())
	set, err := EngineRunner(nil)(context.Background(), &Handle{q: q, job: &Job{req: req}})
	if err != nil {
		t.Fatalf("runner re-read the upload: %v", err)
	}
	if len(set.Suites) != 1 || set.Suites[0].Suite != "uploaded" || set.Suites[0].Cluster == 0 {
		t.Fatalf("runner result: %+v", set.Suites)
	}
}
