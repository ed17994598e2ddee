package main

import (
	"encoding/json"
	"io"
	"sort"
	"strconv"
	"sync"
	"time"
)

// span is one interval the benchmark recorded around a call into a
// layer. rank orders layers along a blocking path: where spans of one op
// overlap, the highest-ranked active span owns the instant (see
// attribute). Root spans (one per op) have rank 0 and parent -1.
type span struct {
	id, parent int
	rank       int
	name       string
	start, end time.Duration // since the recorder epoch
}

// recorder keeps spans in memory for the traced run; they are written
// out once, when the run ends. A nil *recorder is the untraced run: every
// method is a no-op, so the timed code paths carry no conditionals.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), spans: make([]span, 0, 1<<14)}
}

// begin opens a span and returns its id (-1 on a nil recorder).
func (r *recorder) begin(name string, parent, rank int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	r.spans = append(r.spans, span{id: id, parent: parent, rank: rank, name: name, start: now, end: -1})
	return id
}

// end closes span id.
func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	r.spans[id].end = now
	r.mu.Unlock()
}

// add records a span from timestamps taken elsewhere (e.g. a job
// snapshot's created/started/finished stamps).
func (r *recorder) add(name string, parent, rank int, start, end time.Time) {
	if r == nil || parent < 0 {
		return
	}
	s, e := start.Sub(r.epoch), end.Sub(r.epoch)
	if e < s {
		e = s
	}
	r.mu.Lock()
	r.spans = append(r.spans, span{id: len(r.spans), parent: parent, rank: rank, name: name, start: s, end: e})
	r.mu.Unlock()
}

// snapshot returns the spans with every child clamped into its parent's
// interval (a span rebuilt from wall-clock stamps can poke out by the
// clock's resolution) and open spans closed at their start.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := append([]span(nil), r.spans...)
	r.mu.Unlock()
	// Parents always have lower ids than their children, so one pass in
	// id order sees every parent already clamped.
	for i := range out {
		sp := &out[i]
		if sp.end < sp.start {
			sp.end = sp.start
		}
		if sp.parent < 0 {
			continue
		}
		p := out[sp.parent]
		sp.start = min(max(sp.start, p.start), p.end)
		sp.end = min(max(sp.end, sp.start), p.end)
	}
	return out
}

// children indexes spans by parent id.
func children(spans []span) map[int][]int {
	kids := make(map[int][]int)
	for _, sp := range spans {
		if sp.parent >= 0 {
			kids[sp.parent] = append(kids[sp.parent], sp.id)
		}
	}
	return kids
}

// subtree returns the root span followed by all of its descendants.
func subtree(spans []span, kids map[int][]int, root int) []span {
	out := []span{spans[root]}
	for i := 0; i < len(out); i++ {
		for _, c := range kids[out[i].id] {
			out = append(out, spans[c])
		}
	}
	return out
}

// attribute walks one op's blocking path: every instant of the root
// span belongs to the highest-ranked spans active at it, shared equally
// when several (e.g. parallel scoring stages) tie. It returns each span
// name's self time along that path and the root's own share — the
// residual no layer span accounts for. The self times plus the residual
// sum to the root's duration.
func attribute(tree []span) (map[string]time.Duration, time.Duration) {
	root := tree[0]
	bounds := make([]time.Duration, 0, 2*len(tree))
	for _, sp := range tree {
		bounds = append(bounds, sp.start, sp.end)
	}
	sort.Slice(bounds, func(a, b int) bool { return bounds[a] < bounds[b] })
	self := make(map[string]float64)
	var residual float64
	for i := 0; i+1 < len(bounds); i++ {
		a, b := bounds[i], bounds[i+1]
		if b <= a || a < root.start || b > root.end {
			continue
		}
		top, n := -1, 0
		for _, sp := range tree {
			if sp.start <= a && sp.end >= b {
				switch {
				case sp.rank > top:
					top, n = sp.rank, 1
				case sp.rank == top:
					n++
				}
			}
		}
		share := float64(b-a) / float64(n)
		for _, sp := range tree {
			if sp.start <= a && sp.end >= b && sp.rank == top {
				if sp.rank == 0 {
					residual += share
				} else {
					self[sp.name] += share
				}
			}
		}
	}
	out := make(map[string]time.Duration, len(self))
	for name, d := range self {
		out[name] = time.Duration(d)
	}
	return out, time.Duration(residual)
}

// durations sums span durations by name over one op's tree (the root
// excluded): the time each layer call took, overlaps included.
func durations(tree []span) map[string]time.Duration {
	out := make(map[string]time.Duration)
	for _, sp := range tree[1:] {
		out[sp.name] += sp.end - sp.start
	}
	return out
}

// traceEvent is one Chrome trace-event object, in the shape perspector's
// -trace-out writes and cmd/obscheck validates.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeTrace renders spans as Chrome trace-event JSON. Spans are packed
// onto as few tracks as keep every track properly nested (a span either
// follows the track's open spans or nests inside the innermost one).
func writeTrace(w io.Writer, spans []span) error {
	order := make([]int, len(spans))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		sa, sb := spans[order[a]], spans[order[b]]
		if sa.start != sb.start {
			return sa.start < sb.start
		}
		return sa.end > sb.end
	})
	type track struct {
		open    []time.Duration // end times of open spans, outermost first
		lastEnd time.Duration
	}
	var tracks []*track
	tid := make([]int, len(spans))
	for _, i := range order {
		sp := spans[i]
		placed := -1
		for t, tr := range tracks {
			for len(tr.open) > 0 && tr.open[len(tr.open)-1] <= sp.start {
				tr.open = tr.open[:len(tr.open)-1]
			}
			if (len(tr.open) == 0 && sp.start >= tr.lastEnd) ||
				(len(tr.open) > 0 && sp.end <= tr.open[len(tr.open)-1]) {
				placed = t
				break
			}
		}
		if placed < 0 {
			tracks = append(tracks, &track{})
			placed = len(tracks) - 1
		}
		tr := tracks[placed]
		tr.open = append(tr.open, sp.end)
		tr.lastEnd = max(tr.lastEnd, sp.end)
		tid[i] = placed
	}
	events := make([]traceEvent, 0, len(spans)+len(tracks)+1)
	events = append(events, traceEvent{Name: "process_name", Ph: "M", Pid: 1,
		Args: map[string]any{"name": "perfbench"}})
	for t := range tracks {
		events = append(events, traceEvent{Name: "thread_name", Ph: "M", Pid: 1, Tid: t,
			Args: map[string]any{"name": "track " + strconv.Itoa(t)}})
	}
	for i, sp := range spans {
		dur := float64(sp.end-sp.start) / 1e3
		events = append(events, traceEvent{
			Name: sp.name, Cat: "perfbench", Ph: "X",
			Ts: float64(sp.start) / 1e3, Dur: &dur, Pid: 1, Tid: tid[i],
			Args: map[string]any{"span": sp.id, "parent": sp.parent},
		})
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}
