package main

import (
	"errors"
	"math"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"
)

// latencies collects the per-op latencies of one op class in
// milliseconds. A failed or refused op is recorded as +Inf: it misses
// every latency limit, so it weighs on every percentile instead of
// silently shrinking the sample.
type latencies []float64

func (l *latencies) add(d time.Duration) { *l = append(*l, ms(d)) }
func (l *latencies) miss()               { *l = append(*l, math.Inf(1)) }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// median is the middle value (mean of the middle two for even counts);
// NaN for an empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	if math.IsInf(s[n/2], 1) {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank p-th percentile (0 < p ≤ 100).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	return s[rank(len(s), p)-1]
}

// rank is the 1-based nearest-rank position of percentile p in n samples.
func rank(n int, p float64) int {
	// The epsilon absorbs binary rounding of p (99.9 is not exact), which
	// would otherwise push an exact rank up by one.
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	return min(max(r, 1), n)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// minBeyond is how many samples must lie beyond a reported tail
// percentile for it to mean anything.
const minBeyond = 10

// tailLadder lists the tail percentiles the benchmark may report,
// highest first.
var tailLadder = []float64{99.9, 99, 95, 90, 75}

// tail picks the highest ladder percentile that leaves at least
// minBeyond samples beyond its nearest-rank position, and its value. ok
// is false when the sample is too small for any of them (fewer than 40
// samples); the median is then the only timing reported.
func tail(xs []float64) (p, v float64, ok bool) {
	for _, p := range tailLadder {
		if len(xs)-rank(len(xs), p) >= minBeyond {
			return p, percentile(xs, p), true
		}
	}
	return 0, 0, false
}

// outcome classifies one attempted op.
type outcome int

const (
	opOK      outcome = iota
	opFailed          // an error the system reported (4xx other than 429)
	opRefused         // turned away or timed out: 429, 5xx, transport timeout
)

// classify maps an HTTP round trip to an outcome.
func classify(status int, err error) outcome {
	if err != nil {
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			return opRefused
		}
		return opFailed
	}
	switch {
	case status == http.StatusTooManyRequests || status >= 500:
		return opRefused
	case status >= 300:
		return opFailed
	}
	return opOK
}

// tally counts op outcomes of one run. Wrong outputs are found after
// the timed phase by the correctness checks and added in.
type tally struct {
	mu                                sync.Mutex
	attempted, failed, refused, wrong int
}

func (t *tally) record(o outcome) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	switch o {
	case opFailed:
		t.failed++
	case opRefused:
		t.refused++
	}
}

func (t *tally) addWrong(n int) {
	t.mu.Lock()
	t.wrong += n
	t.mu.Unlock()
}

// bad is every op that did not produce a correct result.
func (t *tally) bad() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.failed + t.refused + t.wrong
}

// failedFrac is (failed + refused + wrong) ÷ attempted.
func (t *tally) failedFrac() float64 {
	t.mu.Lock()
	n := t.attempted
	t.mu.Unlock()
	if n == 0 {
		return 0
	}
	return float64(t.bad()) / float64(n)
}

// closedLoop runs clients concurrent clients until deadline. Each client
// issues its next op only after the previous one returned, so a slow
// system receives less load (a closed loop). op gets the client index
// and the client's op sequence number. closedLoop returns once every
// client has finished its last op; no op starts after the deadline.
func closedLoop(clients int, deadline time.Time, op func(client, seq int)) {
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for seq := 0; time.Now().Before(deadline); seq++ {
				op(c, seq)
			}
		}(c)
	}
	wg.Wait()
}
