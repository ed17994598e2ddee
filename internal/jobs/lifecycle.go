package jobs

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"sync"
	"time"
)

// entry is the lifecycle header Job and Stream embed, guarded by the
// owner's mutex. done is closed at the terminal transition.
type entry struct {
	id                    string
	state                 State
	createdAt, finishedAt time.Time
	done                  chan struct{}
}

func (e *entry) header() *entry { return e }

// record is a *Job or a *Stream.
type record interface{ header() *entry }

// lifecycle is the core Queue and StreamManager embed: ID assignment,
// the admission gate, per-state counts, the terminal transition and the
// drain protocol, written once. All fields but wg are guarded by mu.
type lifecycle[R record] struct {
	mu       sync.Mutex
	cond     *sync.Cond // wakes goroutines waiting for work or for drain
	byID     map[string]R
	order    []R // admission order
	seq      int
	counts   map[State]int // entries per state, moved at every transition
	draining bool
	wg       sync.WaitGroup // the owner's goroutines; drain waits on them

	kind     string // "job" or "stream": the log key; its initial prefixes IDs
	notFound error
	log      *slog.Logger
}

// init readies the core; a nil log discards lifecycle events.
func (l *lifecycle[R]) init(kind string, notFound error, log *slog.Logger) {
	if log == nil {
		log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	l.cond = sync.NewCond(&l.mu)
	l.byID = make(map[string]R)
	l.counts = make(map[State]int)
	l.kind, l.notFound, l.log = kind, notFound, log
}

// gateLocked is the admission gate: nothing is admitted once drain began.
func (l *lifecycle[R]) gateLocked() error {
	if l.draining {
		return ErrDraining
	}
	return nil
}

// addLocked registers r under the next ID, in state s.
func (l *lifecycle[R]) addLocked(r R, s State) {
	l.seq++
	e := r.header()
	e.id = fmt.Sprintf("%c-%06d", l.kind[0], l.seq)
	e.state, e.createdAt, e.done = s, time.Now(), make(chan struct{})
	l.byID[e.id] = r
	l.order = append(l.order, r)
	l.counts[s]++
}

func (l *lifecycle[R]) lookupLocked(id string) (R, error) {
	r, ok := l.byID[id]
	if !ok {
		return r, l.notFound
	}
	return r, nil
}

// list maps every entry, in admission order, through snap.
func list[R record, S any](l *lifecycle[R], snap func(R) S) []S {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]S, 0, len(l.order))
	for _, r := range l.order {
		out = append(out, snap(r))
	}
	return out
}

// withEntry runs f on entry id under the mutex.
func withEntry[R record, T any](l *lifecycle[R], id string, f func(R) T) (T, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	r, err := l.lookupLocked(id)
	if err != nil {
		var zero T
		return zero, err
	}
	return f(r), nil
}

func (l *lifecycle[R]) moveLocked(r R, s State) {
	e := r.header()
	l.counts[e.state]--
	e.state = s
	l.counts[s]++
}

// endLocked is the terminal transition: it moves r to the terminal state
// s, stamps the finish time, closes done and logs attrs. The first one
// wins: on a finished entry it does nothing and returns false.
func (l *lifecycle[R]) endLocked(r R, s State, attrs ...any) bool {
	e := r.header()
	if e.state.Terminal() {
		return false
	}
	l.moveLocked(r, s)
	e.finishedAt = time.Now()
	close(e.done)
	l.log.Info(l.kind+" finished", append([]any{l.kind, e.id, "state", string(s),
		"elapsed", e.finishedAt.Sub(e.createdAt)}, attrs...)...)
	return true
}

// liveLocked counts the entries not yet terminal.
func (l *lifecycle[R]) liveLocked() int {
	n := 0
	for s, c := range l.counts {
		if !s.Terminal() {
			n += c
		}
	}
	return n
}

// Done returns the channel closed at id's terminal transition.
func (l *lifecycle[R]) Done(id string) (<-chan struct{}, error) {
	return withEntry(l, id, func(r R) <-chan struct{} { return r.header().done })
}

// drain stops admission and runs seal, then gives the owner's goroutines
// until ctx expires; after that it runs abort and waits them out, so
// none outlives drain. seal and abort run under the mutex. The error is
// ctx.Err() when the deadline forced the abort.
func (l *lifecycle[R]) drain(ctx context.Context, seal, abort func()) error {
	l.mu.Lock()
	l.draining = true
	seal()
	l.cond.Broadcast()
	l.mu.Unlock()

	finished := make(chan struct{})
	go func() {
		l.wg.Wait()
		close(finished)
	}()
	select {
	case <-finished:
		return nil
	case <-ctx.Done():
		l.mu.Lock()
		abort()
		l.mu.Unlock()
		<-finished
		return ctx.Err()
	}
}
