package dtw

import (
	"math"
	"testing"

	"perspector/internal/rng"
)

// numShapes is the number of series shapes fuzzShape draws.
const numShapes = 9

// fuzzShape draws a length-n series of the given shape from src. The
// shapes cover what the cost-to-go bound distinguishes: CDF-like
// monotone curves (the stock normalized series), near-monotone ones with
// rounding-sized drops (at two magnitudes, so the drops sit a few ulps
// below the values), arbitrary values, constants and signed zeros. The
// last three cover the preconditions of the DP's bit-pattern minimum:
// few distinct levels (many +0 costs between distinct series),
// subnormal costs, and costs near the largest float whose sums overflow
// to +Inf while a short path's cost stays finite.
func fuzzShape(src *rng.Source, shape uint8, n int) []float64 {
	s := make([]float64, n)
	switch shape % numShapes {
	case 0, 1: // CDF-like monotone; shape 1 adds ~1e-14 drops
		total := 0.0
		for i := range s {
			total += src.Float64() * float64(src.Intn(3))
			s[i] = total
		}
		if total > 0 {
			for i := range s {
				s[i] *= 100 / total
			}
		}
		if shape%numShapes == 1 {
			for i := range s {
				if src.Intn(4) == 0 {
					s[i] -= src.Float64() * 3e-14
				}
			}
		}
	case 2: // arbitrary
		for i := range s {
			s[i] = (src.Float64() - 0.5) * 2000
		}
	case 3: // constant
		v := src.Float64() * 100
		for i := range s {
			s[i] = v
		}
	case 4: // signed zeros and tiny values
		for i := range s {
			switch src.Intn(3) {
			case 0:
				s[i] = math.Copysign(0, -1)
			case 1:
				s[i] = 0
			default:
				s[i] = src.Float64() * 1e-300
			}
		}
	case 5: // near-monotone at a large offset: drops of a few ulps
		v := 1e8
		for i := range s {
			v += src.Float64() * float64(src.Intn(2))
			s[i] = v
			if src.Intn(4) == 0 {
				s[i] = math.Nextafter(math.Nextafter(v, 0), 0)
			}
		}
	case 6: // three levels: exact ties, so +0 costs off the diagonal
		for i := range s {
			s[i] = float64(src.Intn(3))
		}
	case 7: // subnormal values: subnormal and +0 costs
		for i := range s {
			s[i] = float64(src.Intn(8)) * math.SmallestNonzeroFloat64
		}
	case 8: // ±8e307 and 0: any three nonzero costs overflow
		for i := range s {
			s[i] = float64(src.Intn(3)-1) * 8e307
		}
	}
	return s
}

// FuzzPrunedVsFull is the differential check on the unbanded distance:
// the upper-bound and cost-to-go pruning must return the full DP's bits
// on every input, including pairs of identical series (a zero upper
// bound) and NaN or Inf values (poke > 0 writes one into either series).
func FuzzPrunedVsFull(f *testing.F) {
	for shape := uint8(0); shape < numShapes; shape++ {
		f.Add(uint64(shape+1), uint8(100), uint8(100), shape, shape, false, uint16(0))
		f.Add(uint64(shape+7), uint8(37), uint8(120), shape, (shape+2)%numShapes, false, uint16(0))
		f.Add(uint64(shape+13), uint8(60), uint8(60), shape, shape, true, uint16(0))
	}
	// Short near-overflow pairs, whose upper bound is often finite.
	for seed := uint64(1); seed <= 6; seed++ {
		f.Add(seed, uint8(2+seed%3), uint8(3+seed%2), uint8(8), uint8(8), false, uint16(0))
	}
	f.Add(uint64(3), uint8(1), uint8(1), uint8(0), uint8(0), false, uint16(0))
	f.Add(uint64(5), uint8(20), uint8(30), uint8(0), uint8(1), false, uint16(1*3+0)) // NaN
	f.Add(uint64(6), uint8(20), uint8(30), uint8(1), uint8(0), false, uint16(7*3+1)) // +Inf
	f.Add(uint64(8), uint8(20), uint8(30), uint8(2), uint8(2), true, uint16(40*3+2)) // -Inf
	f.Fuzz(func(t *testing.T, seed uint64, n8, m8, shapeA, shapeB uint8, same bool, poke uint16) {
		n, m := 1+int(n8)%120, 1+int(m8)%120
		src := rng.New(seed)
		a := fuzzShape(src, shapeA, n)
		b := fuzzShape(src, shapeB, m)
		if same {
			b = append([]float64(nil), a...)
		}
		if poke > 0 {
			special := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[poke%3]
			if k := int(poke/3) % (len(a) + len(b)); k < len(a) {
				a[k] = special
			} else {
				b[k-len(a)] = special
			}
		}
		want := NewDistancer().full(a, b)
		got := NewDistancer().Distance(a, b)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("Distance %v (%#x) != full DP %v (%#x)", got, math.Float64bits(got), want, math.Float64bits(want))
		}
	})
}

// TestPrunedBitOrderMinimum pins the value classes the pruned DP's
// bit-pattern minimum relies on, each against the full DP's bits: +0
// costs from signed zeros and exact ties, subnormal costs, and a finite
// distance whose DP holds +Inf cells. In the last case a = [-M, M] and
// b = [-M, 0, M] with M = 8e307: the optimal path costs M, and the
// pruned DP's first row extends its in-row chain to 0 + M + 2M, which
// overflows.
func TestPrunedBitOrderMinimum(t *testing.T) {
	const M = 8e307
	sub := math.SmallestNonzeroFloat64
	negz := math.Copysign(0, -1)
	for _, tc := range []struct {
		name string
		a, b []float64
	}{
		{"signed zeros", []float64{negz, 0, negz, 1}, []float64{0, negz, 1, 1}},
		{"ties", []float64{0, 1, 1, 2, 0, 2}, []float64{1, 1, 0, 2, 2}},
		{"subnormal", []float64{0, 3 * sub, sub, 7 * sub}, []float64{sub, 0, 5 * sub, 2 * sub, 7 * sub}},
		{"overflow", []float64{-M, M}, []float64{-M, 0, M}},
		{"overflow long", []float64{-M, -M, 0, M, M}, []float64{-M, 0, 0, M, 0, M}},
	} {
		want := NewDistancer().full(tc.a, tc.b)
		got := NewDistancer().Distance(tc.a, tc.b)
		if math.IsInf(want, 0) || math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s: Distance %v (%#x), full DP %v (%#x)", tc.name, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}
