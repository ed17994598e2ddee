package dtw

import (
	"math"
	"testing"

	"perspector/internal/rng"
)

// fuzzShape draws a length-n series of the given shape from src. The
// shapes cover what the cost-to-go bound distinguishes: CDF-like
// monotone curves (the stock normalized series), near-monotone ones with
// rounding-sized drops (at two magnitudes, so the drops sit a few ulps
// below the values), arbitrary values, constants and signed zeros.
func fuzzShape(src *rng.Source, shape uint8, n int) []float64 {
	s := make([]float64, n)
	switch shape % 6 {
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
		if shape%6 == 1 {
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
	}
	return s
}

// FuzzPrunedVsFull is the differential check on the unbanded distance:
// the upper-bound and cost-to-go pruning must return the full DP's bits
// on every input, including pairs of identical series (a zero upper
// bound) and NaN or Inf values (poke > 0 writes one into either series).
func FuzzPrunedVsFull(f *testing.F) {
	for shape := uint8(0); shape < 6; shape++ {
		f.Add(uint64(shape+1), uint8(100), uint8(100), shape, shape, false, uint16(0))
		f.Add(uint64(shape+7), uint8(37), uint8(120), shape, (shape+2)%6, false, uint16(0))
		f.Add(uint64(shape+13), uint8(60), uint8(60), shape, shape, true, uint16(0))
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
