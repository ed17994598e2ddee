package dtw

import (
	"math"
	"testing"
	"testing/quick"

	"perspector/internal/rng"
)

// sanitize maps arbitrary quick-generated floats into a finite range so
// local-cost subtraction cannot overflow to +Inf.
func sanitize(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return math.Mod(v, 1e6)
}

func TestDistanceIdentical(t *testing.T) {
	a := []float64{1, 2, 3, 2, 1}
	if d := Distance(a, a); d != 0 {
		t.Fatalf("identical series D = %v", d)
	}
}

func TestDistanceKnownSmall(t *testing.T) {
	// a = [0, 1], b = [0, 1, 1]: optimal path matches the trailing 1s, cost 0.
	if d := Distance([]float64{0, 1}, []float64{0, 1, 1}); d != 0 {
		t.Fatalf("D = %v, want 0", d)
	}
	// Constant offset of 1 across 3 matched points.
	if d := Distance([]float64{0, 0, 0}, []float64{1, 1, 1}); d != 3 {
		t.Fatalf("D = %v, want 3", d)
	}
}

func TestDistanceShiftInvariance(t *testing.T) {
	// DTW absorbs time shifts: a pulse early vs late costs much less than
	// the Euclidean mismatch.
	a := []float64{0, 0, 5, 0, 0, 0, 0, 0}
	b := []float64{0, 0, 0, 0, 0, 5, 0, 0}
	euclid := 0.0
	for i := range a {
		euclid += math.Abs(a[i] - b[i])
	}
	if d := Distance(a, b); d >= euclid {
		t.Fatalf("DTW %v >= L1 %v; warping failed", d, euclid)
	}
}

func TestDistanceSymmetric(t *testing.T) {
	f := func(rawA, rawB [6]float64) bool {
		a, b := rawA[:], rawB[:]
		for i := range a {
			a[i] = sanitize(a[i])
			b[i] = sanitize(b[i])
		}
		return Distance(a, b) == Distance(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDistanceNonNegative(t *testing.T) {
	f := func(rawA, rawB [5]float64) bool {
		a, b := rawA[:], rawB[:]
		for i := range a {
			a[i] = sanitize(a[i])
			b[i] = sanitize(b[i])
		}
		return Distance(a, b) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDistancePanicsEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty series did not panic")
		}
	}()
	Distance(nil, []float64{1})
}

func TestDistanceBandedMatchesFullWhenWide(t *testing.T) {
	src := rng.New(1)
	a := make([]float64, 40)
	b := make([]float64, 50)
	for i := range a {
		a[i] = src.Float64()
	}
	for i := range b {
		b[i] = src.Float64()
	}
	full := Distance(a, b)
	banded, err := DistanceBanded(a, b, 60)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(full-banded) > 1e-12 {
		t.Fatalf("wide band %v != full %v", banded, full)
	}
}

func TestDistanceBandedUpperBoundsFull(t *testing.T) {
	// A narrow band restricts paths, so banded >= full.
	src := rng.New(2)
	a := make([]float64, 30)
	b := make([]float64, 30)
	for i := range a {
		a[i] = src.Float64() * 10
		b[i] = src.Float64() * 10
	}
	full := Distance(a, b)
	banded, err := DistanceBanded(a, b, 2)
	if err != nil {
		t.Fatal(err)
	}
	if banded < full-1e-9 {
		t.Fatalf("banded %v < full %v", banded, full)
	}
}

func TestDistanceBandedTooNarrow(t *testing.T) {
	if _, err := DistanceBanded([]float64{1}, []float64{1, 2, 3, 4, 5}, 1); err == nil {
		t.Fatal("band narrower than length difference accepted")
	}
}

func TestNormalizeSeriesBounds(t *testing.T) {
	series := []float64{1e9, 2e9, 1e3, 5e9}
	out := NormalizeSeries(series, 100)
	if len(out) != 101 {
		t.Fatalf("grid length = %d", len(out))
	}
	for _, v := range out {
		if v < 0 || v > 100 {
			t.Fatalf("normalized value %v out of [0,100]", v)
		}
	}
}

func TestNormalizeSeriesEmpty(t *testing.T) {
	out := NormalizeSeries(nil, 10)
	if len(out) != 11 {
		t.Fatalf("empty series grid length = %d", len(out))
	}
}

func TestNormalizedDistanceMagnitudeInvariance(t *testing.T) {
	// The Fig. 1 motivation: scaling one series by 10^6 must not change
	// the normalized DTW distance.
	src := rng.New(4)
	a := make([]float64, 60)
	b := make([]float64, 80)
	for i := range a {
		a[i] = src.Float64()
	}
	for i := range b {
		b[i] = src.Float64()
	}
	scaled := make([]float64, len(a))
	for i, v := range a {
		scaled[i] = v * 1e6
	}
	d1 := Distance(NormalizeSeries(a, 100), NormalizeSeries(b, 100))
	d2 := Distance(NormalizeSeries(scaled, 100), NormalizeSeries(b, 100))
	if math.Abs(d1-d2) > 1e-6 {
		t.Fatalf("normalization not magnitude invariant: %v vs %v", d1, d2)
	}
}

func TestNormalizedDistanceLengthInvariance(t *testing.T) {
	// The same phase structure sampled at different rates should have
	// near-zero normalized distance (x-axis percentile resampling): a
	// workload with rate 2 for the first half and rate 10 for the second
	// half has the same event CDF whether sampled 200 or 50 times.
	mk := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			if i < n/2 {
				s[i] = 2
			} else {
				s[i] = 10
			}
		}
		return s
	}
	long, short := mk(200), mk(50)
	d := Distance(NormalizeSeries(long, 100), NormalizeSeries(short, 100))
	// A flat (steady) workload normalizes to the diagonal — clearly
	// different from the kneed two-phase curve.
	flat := make([]float64, 100)
	for i := range flat {
		flat[i] = 6
	}
	dFlat := Distance(NormalizeSeries(long, 100), NormalizeSeries(flat, 100))
	if d >= dFlat/5 {
		t.Fatalf("same-shape d=%v not clearly below different-shape d=%v", d, dFlat)
	}
}

func TestPhaseRichVsSteadyDistance(t *testing.T) {
	// A multi-phase series and a steady series must be far apart after
	// normalization — this is what makes the TrendScore discriminate
	// PARSEC from Nbench (Fig. 5).
	phased := make([]float64, 120)
	for i := range phased {
		switch {
		case i < 40:
			phased[i] = 10
		case i < 80:
			phased[i] = 1000
		default:
			phased[i] = 100
		}
	}
	steady := make([]float64, 120)
	for i := range steady {
		steady[i] = 500
	}
	steady2 := make([]float64, 120)
	for i := range steady2 {
		steady2[i] = 700
	}
	dPS := Distance(NormalizeSeries(phased, 100), NormalizeSeries(steady, 100))
	dSS := Distance(NormalizeSeries(steady, 100), NormalizeSeries(steady2, 100))
	if dPS <= dSS {
		t.Fatalf("phased-vs-steady %v <= steady-vs-steady %v", dPS, dSS)
	}
}

func TestBandedDistanceMonotoneInBand(t *testing.T) {
	// Widening the band can only admit more warping paths, so the
	// distance is non-increasing in the band width.
	src := rng.New(21)
	a := make([]float64, 60)
	b := make([]float64, 60)
	for i := range a {
		a[i] = src.Float64() * 10
		b[i] = src.Float64() * 10
	}
	prev := math.Inf(1)
	for _, band := range []int{1, 2, 4, 8, 16, 32, 64} {
		d, err := DistanceBanded(a, b, band)
		if err != nil {
			t.Fatal(err)
		}
		if d > prev+1e-9 {
			t.Fatalf("distance rose when band widened to %d: %v > %v", band, d, prev)
		}
		prev = d
	}
	// And the widest band equals the unconstrained distance.
	if full := Distance(a, b); math.Abs(full-prev) > 1e-9 {
		t.Fatalf("band 64 distance %v != full %v", prev, full)
	}
}

func BenchmarkDistance100(b *testing.B) {
	src := rng.New(1)
	x := make([]float64, 101)
	y := make([]float64, 101)
	for i := range x {
		x[i] = src.Float64()
		y[i] = src.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Distance(x, y)
	}
}

func BenchmarkDistanceBanded100(b *testing.B) {
	src := rng.New(1)
	x := make([]float64, 101)
	y := make([]float64, 101)
	for i := range x {
		x[i] = src.Float64()
		y[i] = src.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DistanceBanded(x, y, 10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNormalizedDistance(b *testing.B) {
	src := rng.New(1)
	x := make([]float64, 500)
	y := make([]float64, 400)
	for i := range x {
		x[i] = src.Float64() * 1e9
	}
	for i := range y {
		y[i] = src.Float64() * 1e6
	}
	dz := NewDistancer()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dz.Distance(dz.NormalizeSeries(x, 100), dz.NormalizeSeries(y, 100))
	}
}
