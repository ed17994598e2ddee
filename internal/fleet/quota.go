package fleet

import (
	"sync"
	"time"
)

// TenantLimiter applies a token-bucket quota per tenant. Each tenant's
// bucket holds Burst tokens and refills at Rate tokens/second; a
// submission spends one token. Tenants are named by the X-Tenant header
// (the server maps a missing header to "default"). The tenant table is
// capped: once maxTenants distinct names exist, unseen tenants share
// one overflow bucket so a tenant-name-churning client cannot grow the
// table without bound.
//
// A nil *TenantLimiter admits everything, so the server wires it
// unconditionally.
type TenantLimiter struct {
	rate       float64
	burst      float64
	maxTenants int

	mu       sync.Mutex
	buckets  map[string]*bucket
	overflow *bucket
	now      func() time.Time // test hook
}

type bucket struct {
	tokens float64
	last   time.Time
}

// NewTenantLimiter builds a limiter granting each tenant rate
// submissions/second with a burst of burst. Non-positive rate or burst
// returns nil — the admit-everything limiter.
func NewTenantLimiter(rate float64, burst int) *TenantLimiter {
	if rate <= 0 || burst <= 0 {
		return nil
	}
	return &TenantLimiter{
		rate:       rate,
		burst:      float64(burst),
		maxTenants: 1024,
		buckets:    make(map[string]*bucket),
		now:        time.Now,
	}
}

// Allow spends one token from tenant's bucket. When the bucket is
// empty it reports false plus how long until one token refills — the
// Retry-After the server should send.
func (l *TenantLimiter) Allow(tenant string) (bool, time.Duration) {
	if l == nil {
		return true, 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()

	b := l.buckets[tenant]
	if b == nil {
		if len(l.buckets) >= l.maxTenants {
			if l.overflow == nil {
				l.overflow = &bucket{tokens: l.burst, last: l.now()}
			}
			b = l.overflow
		} else {
			b = &bucket{tokens: l.burst, last: l.now()}
			l.buckets[tenant] = b
		}
	}

	now := l.now()
	b.tokens += now.Sub(b.last).Seconds() * l.rate
	if b.tokens > l.burst {
		b.tokens = l.burst
	}
	b.last = now

	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	wait := time.Duration((1 - b.tokens) / l.rate * float64(time.Second))
	if wait < time.Second {
		wait = time.Second // Retry-After is whole seconds; never say 0
	}
	return false, wait
}
