package fleet

// Tenants returns how many distinct tenant buckets exist (the overflow
// bucket excluded).
func (l *TenantLimiter) Tenants() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.buckets)
}
