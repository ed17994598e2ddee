package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"sync"
	"testing"
	"time"
)

func TestTailPercentileRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // unsorted on purpose
		}
		return xs
	}
	for _, tc := range []struct {
		n    int
		p, v float64
		ok   bool
	}{
		{n: 1},
		{n: 39},                            // p75 would leave 9 beyond
		{n: 40, p: 75, v: 30, ok: true},    // rank 30, 10 beyond
		{n: 99, p: 75, v: 75, ok: true},    // p90 would leave 9 beyond
		{n: 100, p: 90, v: 90, ok: true},   // rank 90, 10 beyond
		{n: 200, p: 95, v: 190, ok: true},  // rank 190, 10 beyond
		{n: 1000, p: 99, v: 990, ok: true}, // rank 990, 10 beyond
		{n: 10000, p: 99.9, v: 9990, ok: true},
	} {
		p, v, ok := tail(seq(tc.n))
		if ok != tc.ok || p != tc.p || v != tc.v {
			t.Errorf("tail(n=%d) = p%g %g %v, want p%g %g %v", tc.n, p, v, ok, tc.p, tc.v, tc.ok)
		}
		if ok && tc.n-rank(tc.n, p) < minBeyond {
			t.Errorf("n=%d: p%g leaves %d samples beyond it", tc.n, p, tc.n-rank(tc.n, p))
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %g, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %g, want 2.5", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples should be NaN")
	}
}

type timeoutErr struct{}

func (timeoutErr) Error() string   { return "i/o timeout" }
func (timeoutErr) Timeout() bool   { return true }
func (timeoutErr) Temporary() bool { return true }

func TestFailureAccounting(t *testing.T) {
	for _, tc := range []struct {
		status int
		err    error
		want   outcome
	}{
		{status: http.StatusOK, want: opOK},
		{status: http.StatusAccepted, want: opOK},
		{status: http.StatusTooManyRequests, want: opRefused},
		{status: http.StatusServiceUnavailable, want: opRefused},
		{status: http.StatusInternalServerError, want: opRefused},
		{status: http.StatusBadRequest, want: opFailed},
		{status: http.StatusConflict, want: opFailed},
		{err: timeoutErr{}, want: opRefused},
		{err: errors.New("connection refused"), want: opFailed},
	} {
		if got := classify(tc.status, tc.err); got != tc.want {
			t.Errorf("classify(%d, %v) = %d, want %d", tc.status, tc.err, got, tc.want)
		}
	}

	// Refused and failed ops count as failed and as missing every
	// latency limit; wrong outputs found later count as failed too.
	p := newPhase("job", "job")
	p.done("job", opOK, 10*time.Millisecond, -1)
	p.done("job", opRefused, time.Millisecond, -1)
	p.done("job", opRefused, time.Millisecond, -1)
	p.done("job", opFailed, time.Millisecond, -1)
	if p.completed != 1 || p.tally.attempted != 4 {
		t.Fatalf("completed %d attempted %d, want 1 and 4", p.completed, p.tally.attempted)
	}
	if got := p.tally.failedFrac(); got != 0.75 {
		t.Errorf("failedFrac = %g, want 0.75", got)
	}
	lat := *p.lat["job"]
	if !math.IsInf(median(lat), 1) || !math.IsInf(percentile(lat, 90), 1) {
		t.Errorf("with most ops refused, p50 and p90 must miss every limit: %v", lat)
	}
	p.tally.addWrong(1)
	if got := p.tally.failedFrac(); got != 1 {
		t.Errorf("failedFrac after a wrong output = %g, want 1", got)
	}
	if got := finite(median(lat)); got != math.MaxFloat64 {
		t.Errorf("an infinite latency must stay JSON-encodable, got %g", got)
	}
}

func TestClosedLoopPacing(t *testing.T) {
	const opTime = 5 * time.Millisecond
	type interval struct{ start, end time.Time }
	var mu sync.Mutex
	ops := map[int][]interval{}
	start := time.Now()
	deadline := start.Add(100 * time.Millisecond)
	closedLoop(2, deadline, func(client, seq int) {
		s := time.Now()
		time.Sleep(opTime)
		mu.Lock()
		if len(ops[client]) != seq {
			t.Errorf("client %d: op %d ran out of order", client, seq)
		}
		ops[client] = append(ops[client], interval{s, time.Now()})
		mu.Unlock()
	})
	if len(ops) != 2 {
		t.Fatalf("%d clients ran, want 2", len(ops))
	}
	for c, iv := range ops {
		// 100ms of 5ms ops: a closed loop fits at most 20 per client.
		if len(iv) < 5 || len(iv) > 21 {
			t.Errorf("client %d ran %d ops in 100ms of 5ms ops", c, len(iv))
		}
		for i := range iv {
			if iv[i].start.After(deadline) {
				t.Errorf("client %d: op %d started after the deadline", c, i)
			}
			if i > 0 && iv[i].start.Before(iv[i-1].end) {
				t.Errorf("client %d: op %d started before op %d finished", c, i, i-1)
			}
		}
	}
}

func TestAttributeResidual(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	tree := []span{
		{id: 0, parent: -1, rank: 0, name: "op", start: ms(0), end: ms(100)},
		{id: 1, parent: 0, rank: 1, name: "a", start: ms(10), end: ms(40)},
		{id: 2, parent: 1, rank: 2, name: "c", start: ms(20), end: ms(30)},
		{id: 3, parent: 0, rank: 1, name: "b", start: ms(50), end: ms(90)},
		{id: 4, parent: 3, rank: 2, name: "d", start: ms(60), end: ms(80)},
		{id: 5, parent: 3, rank: 2, name: "e", start: ms(70), end: ms(90)}, // parallel with d
	}
	self, residual := attribute(tree)
	want := map[string]time.Duration{"a": ms(20), "c": ms(10), "b": ms(10), "d": ms(15), "e": ms(15)}
	for name, d := range want {
		if self[name] != d {
			t.Errorf("self[%s] = %v, want %v", name, self[name], d)
		}
	}
	if residual != ms(30) {
		t.Errorf("residual = %v, want 30ms (the gaps no layer covers)", residual)
	}
	sum := residual
	for _, d := range self {
		sum += d
	}
	if sum != ms(100) {
		t.Errorf("self times + residual = %v, want the op's 100ms", sum)
	}
	// An op no layer span covers is all residual.
	if _, r := attribute(tree[:1]); r != ms(100) {
		t.Errorf("bare op residual = %v, want 100ms", r)
	}
}

func TestTraceNestsAndContains(t *testing.T) {
	rec := newRecorder()
	root := rec.begin("op", -1, 0)
	a := rec.begin("a", root, 1)
	b := rec.begin("b", root, 1) // overlaps a: must land on its own track
	rec.end(a)
	rec.end(b)
	// A span rebuilt from a clock that reads before the op started is
	// clamped into the op.
	rec.add("early", root, 2, rec.epoch.Add(-time.Second), time.Now())
	rec.end(root)
	var buf bytes.Buffer
	if err := writeTrace(&buf, rec.snapshot()); err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatal(err)
	}
	named := map[int]bool{}
	byID := map[int]traceEvent{}
	perTid := map[int][]traceEvent{}
	for _, ev := range file.TraceEvents {
		switch ev.Ph {
		case "M":
			if ev.Name == "thread_name" {
				named[ev.Tid] = true
			}
		case "X":
			byID[int(ev.Args["span"].(float64))] = ev
			perTid[ev.Tid] = append(perTid[ev.Tid], ev)
		}
	}
	if len(byID) != 4 {
		t.Fatalf("%d spans written, want 4", len(byID))
	}
	for _, ev := range byID {
		if !named[ev.Tid] {
			t.Errorf("track %d has no thread_name", ev.Tid)
		}
		parent := int(ev.Args["parent"].(float64))
		if parent < 0 {
			continue
		}
		p := byID[parent]
		if ev.Ts < p.Ts || ev.Ts+*ev.Dur > p.Ts+*p.Dur+1e-3 {
			t.Errorf("span %s escapes its parent", ev.Name)
		}
	}
	for tid, evs := range perTid {
		for i := range evs {
			for j := range evs {
				x, y := evs[i], evs[j]
				if i == j {
					continue
				}
				overlap := x.Ts < y.Ts+*y.Dur && y.Ts < x.Ts+*x.Dur
				nested := (x.Ts >= y.Ts && x.Ts+*x.Dur <= y.Ts+*y.Dur) || (y.Ts >= x.Ts && y.Ts+*y.Dur <= x.Ts+*x.Dur)
				if overlap && !nested {
					t.Errorf("track %d: %s and %s partially overlap", tid, x.Name, y.Name)
				}
			}
		}
	}
}

// TestUntracedRecorderIsNoop pins the contract the timed code relies
// on: a nil recorder records nothing and never fails.
func TestUntracedRecorderIsNoop(t *testing.T) {
	var rec *recorder
	id := rec.begin("op", -1, 0)
	rec.end(id)
	rec.add("x", id, 1, time.Now(), time.Now())
	if id != -1 || rec.snapshot() != nil {
		t.Errorf("nil recorder returned id %d and spans %v", id, rec.snapshot())
	}
	if reg := timedRegistry(nil, -1); reg != nil {
		t.Error("untraced scoring must use the engine's default registry")
	}
}
