package rng

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 produced %d identical outputs of 100", same)
	}
}

func TestZeroSeedValid(t *testing.T) {
	s := New(0)
	x := s.Uint64()
	y := s.Uint64()
	if x == 0 && y == 0 {
		t.Fatal("zero seed produced a degenerate stream")
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(7)
	for i := 0; i < 10000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(11)
	const n = 100000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	s := New(3)
	for _, n := range []int{1, 2, 7, 100, 1 << 20} {
		for i := 0; i < 1000; i++ {
			v := s.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnUniformity(t *testing.T) {
	s := New(5)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[s.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 0.1*want {
			t.Fatalf("bucket %d: count %d deviates >10%% from %v", i, c, want)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestNormMoments(t *testing.T) {
	s := New(13)
	const n = 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := s.Norm(10, 3)
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean-10) > 0.05 {
		t.Fatalf("Norm mean = %v, want ~10", mean)
	}
	if math.Abs(math.Sqrt(variance)-3) > 0.05 {
		t.Fatalf("Norm stddev = %v, want ~3", math.Sqrt(variance))
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := New(19)
	for _, n := range []int{0, 1, 2, 10, 100} {
		p := s.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(23)
	c1 := parent.Split()
	c2 := parent.Split()
	same := 0
	for i := 0; i < 100; i++ {
		if c1.Uint64() == c2.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("sibling children produced %d identical outputs of 100", same)
	}
}

func TestZipfBounds(t *testing.T) {
	z := NewZipf(New(29), 100, 1.1)
	for i := 0; i < 10000; i++ {
		r := z.Next()
		if r < 0 || r >= 100 {
			t.Fatalf("Zipf rank %d out of range", r)
		}
	}
}

func TestZipfSkew(t *testing.T) {
	z := NewZipf(New(31), 1000, 1.2)
	counts := make([]int, 1000)
	const draws = 100000
	for i := 0; i < draws; i++ {
		counts[z.Next()]++
	}
	if counts[0] <= counts[500] {
		t.Fatalf("Zipf not skewed: rank0=%d rank500=%d", counts[0], counts[500])
	}
	if counts[0] < draws/20 {
		t.Fatalf("Zipf rank0 count %d too small for alpha=1.2", counts[0])
	}
}

func TestZipfAlphaZeroUniform(t *testing.T) {
	z := NewZipf(New(37), 10, 0)
	counts := make([]int, 10)
	const draws = 100000
	for i := 0; i < draws; i++ {
		counts[z.Next()]++
	}
	want := float64(draws) / 10
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 0.1*want {
			t.Fatalf("alpha=0 bucket %d count %d not uniform", i, c)
		}
	}
}

func TestZipfPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewZipf(n=0) did not panic")
		}
	}()
	NewZipf(New(1), 0, 1)
}

// sattoloRef is the reference single-cycle shuffle Cycle must reproduce
// draw for draw.
func sattoloRef(s *Source, n int) []uint32 {
	p := make([]uint32, n)
	for i := range p {
		p[i] = uint32(i)
	}
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

func TestCycleMatchesIntnReference(t *testing.T) {
	for _, n := range []int{1, 2, 3, 64, 65537} {
		for _, seed := range []uint64{0, 1, 7, 2023, 1 << 63} {
			ref, got := New(seed), New(seed)
			want := sattoloRef(ref, n)
			p := make([]uint32, n)
			for i := range p {
				p[i] = 0xdeadbeef // stale contents must not matter
			}
			got.Cycle(p)
			for i := range p {
				if p[i] != want[i] {
					t.Fatalf("n=%d seed=%d: p[%d] = %d, reference %d", n, seed, i, p[i], want[i])
				}
			}
			if a, b := got.Uint64(), ref.Uint64(); a != b {
				t.Fatalf("n=%d seed=%d: source state diverged after Cycle (%#x vs %#x)", n, seed, a, b)
			}
		}
	}
}

// zipfRef is the unshared CDF computation NewZipf's tables must match.
func zipfRef(n int, alpha float64) []float64 {
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), alpha)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] *= 1 / sum
	}
	cdf[n-1] = 1
	return cdf
}

func TestZipfSharedTableBitIdentical(t *testing.T) {
	for _, c := range []struct {
		n     int
		alpha float64
	}{{1, 0.9}, {10, 0}, {1000, 1.1}, {16384, 0.7}, {20480, 0.85}} {
		a := NewZipf(New(1), c.n, c.alpha)
		b := NewZipf(New(1), c.n, c.alpha)
		if &a.cdf[0] != &b.cdf[0] {
			t.Fatalf("n=%d alpha=%v: samplers of one shape do not share a table", c.n, c.alpha)
		}
		want := zipfRef(c.n, c.alpha)
		for i := range want {
			if math.Float64bits(a.cdf[i]) != math.Float64bits(want[i]) {
				t.Fatalf("n=%d alpha=%v: shared cdf[%d] = %v, fresh %v", c.n, c.alpha, i, a.cdf[i], want[i])
			}
		}
		for i := 0; i < 1000; i++ {
			if x, y := a.Next(), b.Next(); x != y {
				t.Fatalf("n=%d alpha=%v: draw %d differs (%d vs %d)", c.n, c.alpha, i, x, y)
			}
		}
	}
}

func TestZipfMemoBounded(t *testing.T) {
	m := zipfMemo{tables: make(map[zipfKey]zipfTable)}
	check := func(k, n int, alpha float64) {
		t.Helper()
		tab := m.get(n, alpha)
		if len(m.tables) > zipfMemoCap || m.bytes > zipfMemoBytes {
			t.Fatalf("key %d: memo holds %d tables, %d bytes; bounds %d, %d",
				k, len(m.tables), m.bytes, zipfMemoCap, zipfMemoBytes)
		}
		want := zipfRef(n, alpha)
		for i := range want {
			if math.Float64bits(tab.cdf[i]) != math.Float64bits(want[i]) {
				t.Fatalf("key %d: cdf[%d] = %v, fresh %v", k, i, tab.cdf[i], want[i])
			}
		}
	}
	for k := 0; k < 3*zipfMemoCap; k++ {
		check(k, 1+k%7, 0.5+float64(k)/1000)
	}
	if len(m.tables) != zipfMemoCap {
		t.Fatalf("memo holds %d tables after overflow, want the cap %d", len(m.tables), zipfMemoCap)
	}
	// Few but large tables hit the byte budget before the table cap. A
	// third of the budget in CDF bytes alone fits three times; counting
	// the guides, only twice.
	const third = zipfMemoBytes / 8 / 3
	for k := 0; k < 4; k++ {
		check(k, third, 1+float64(k)/10)
	}
	large := 0
	for key := range m.tables {
		if key.n == third {
			large++
		}
	}
	if large != 2 {
		t.Fatalf("memo holds %d tables of a third of the budget in CDF bytes, want 2 with their guides counted", large)
	}
	check(0, zipfMemoBytes/8+1, 1) // larger than the budget: never kept
	sum := 0
	for _, tab := range m.tables {
		sum += 8*len(tab.cdf) + 4*len(tab.guide)
	}
	if sum != m.bytes {
		t.Fatalf("memo counts %d bytes, tables hold %d", m.bytes, sum)
	}
}

// zipfSearchRef is the rank Zipf.Next must draw for the deviate u: a
// binary search over every rank for the first CDF entry reaching u.
func zipfSearchRef(cdf []float64, u float64) int {
	lo, hi := 0, len(cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// TestZipfNextMatchesFullSearch pins the guide-table draw to the
// full-range binary search, draw for draw, across rank counts on both
// sides of a power of two and exponents from uniform to steep.
func TestZipfNextMatchesFullSearch(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 8, 9, 1000, 65536, 65537} {
		for _, alpha := range []float64{0, 0.5, 1.1, 3} {
			z := NewZipf(New(uint64(n)), n, alpha)
			ref := New(uint64(n))
			for i := 0; i < 20000; i++ {
				if got, want := z.Next(), zipfSearchRef(z.cdf, ref.Float64()); got != want {
					t.Fatalf("n=%d alpha=%v: draw %d = %d, full search %d", n, alpha, i, got, want)
				}
			}
			// Deviates at the guide bucket edges: u = k/K exactly, and the
			// largest u below it.
			for k := uint64(0); k < uint64(len(z.guide)); k += 1 + uint64(len(z.guide))/512 {
				for _, x := range []uint64{k << z.shift, k<<z.shift - 1} {
					if x >= 1<<53 {
						continue
					}
					if got, want := z.rank(x), zipfSearchRef(z.cdf, float64(x)/(1<<53)); got != want {
						t.Fatalf("n=%d alpha=%v: edge draw %#x = %d, full search %d", n, alpha, x, got, want)
					}
				}
			}
		}
	}
}

func TestChildSeedStability(t *testing.T) {
	// The i-th child seed must not depend on how many other children exist.
	s1 := ChildSeed(99, 5)
	s2 := ChildSeed(99, 5)
	if s1 != s2 {
		t.Fatal("ChildSeed not deterministic")
	}
	if ChildSeed(99, 5) == ChildSeed(99, 6) {
		t.Fatal("adjacent child seeds collide")
	}
	if ChildSeed(99, 5) == ChildSeed(100, 5) {
		t.Fatal("child seeds of different parents collide")
	}
}

func TestMul128(t *testing.T) {
	cases := []struct {
		a, b, hi, lo uint64
	}{
		{0, 0, 0, 0},
		{1, 1, 0, 1},
		{math.MaxUint64, 2, 1, math.MaxUint64 - 1},
		{1 << 32, 1 << 32, 1, 0},
		{math.MaxUint64, math.MaxUint64, math.MaxUint64 - 1, 1},
	}
	for _, c := range cases {
		hi, lo := mul128(c.a, c.b)
		if hi != c.hi || lo != c.lo {
			t.Fatalf("mul128(%d,%d) = (%d,%d), want (%d,%d)", c.a, c.b, hi, lo, c.hi, c.lo)
		}
	}
}

func TestBoolProbability(t *testing.T) {
	s := New(41)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if s.Bool(0.3) {
			hits++
		}
	}
	if p := float64(hits) / n; math.Abs(p-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) hit rate %v", p)
	}
}

func TestRange(t *testing.T) {
	s := New(43)
	for i := 0; i < 10000; i++ {
		v := s.Range(-5, 5)
		if v < -5 || v >= 5 {
			t.Fatalf("Range(-5,5) = %v out of range", v)
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		s.Uint64()
	}
}

func BenchmarkZipfNext(b *testing.B) {
	z := NewZipf(New(1), 1<<16, 1.1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		z.Next()
	}
}

func BenchmarkCycle(b *testing.B) {
	p := make([]uint32, 1<<20)
	s := New(1)
	b.SetBytes(int64(len(p)) * 4)
	for i := 0; i < b.N; i++ {
		s.Cycle(p)
	}
}
