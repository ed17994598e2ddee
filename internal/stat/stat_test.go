package stat

import (
	"math"
	"testing"
	"testing/quick"

	"perspector/internal/rng"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("Mean(nil) != 0")
	}
	if Mean([]float64{2, 4, 6}) != 4 {
		t.Fatalf("Mean = %v", Mean([]float64{2, 4, 6}))
	}
}

func TestVariance(t *testing.T) {
	if Variance([]float64{5}) != 0 {
		t.Fatal("Variance of singleton != 0")
	}
	// Var of {1,2,3,4} with n-1 denominator = 5/3.
	if v := Variance([]float64{1, 2, 3, 4}); !almostEq(v, 5.0/3, 1e-12) {
		t.Fatalf("Variance = %v, want 5/3", v)
	}
}

func TestMinMax(t *testing.T) {
	min, max := MinMax([]float64{3, -1, 7, 0})
	if min != -1 || max != 7 {
		t.Fatalf("MinMax = %v, %v", min, max)
	}
}

func TestMinMaxPanicsEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MinMax(nil) did not panic")
		}
	}()
	MinMax(nil)
}

func TestNormalize(t *testing.T) {
	out := Normalize([]float64{10, 20, 30})
	want := []float64{0, 0.5, 1}
	for i := range want {
		if !almostEq(out[i], want[i], 1e-12) {
			t.Fatalf("Normalize = %v", out)
		}
	}
}

func TestNormalizeConstant(t *testing.T) {
	out := Normalize([]float64{5, 5, 5})
	for _, v := range out {
		if v != 0 {
			t.Fatalf("constant Normalize = %v", out)
		}
	}
}

func TestNormalizeDoesNotMutate(t *testing.T) {
	in := []float64{1, 2}
	Normalize(in)
	if in[0] != 1 || in[1] != 2 {
		t.Fatal("Normalize mutated its input")
	}
}

func TestNormalizeWith(t *testing.T) {
	out := NormalizeWith([]float64{0, 50, 100, 200}, 0, 100)
	want := []float64{0, 0.5, 1, 1} // 200 clamps to 1
	for i := range want {
		if !almostEq(out[i], want[i], 1e-12) {
			t.Fatalf("NormalizeWith = %v", out)
		}
	}
}

func TestNormalizeWithPreservesRelativeRange(t *testing.T) {
	// The paper's §III-C1 argument: joint bounds keep A:[0,10k] below
	// B:[0,100k] after normalization.
	a := NormalizeWith([]float64{10000}, 0, 100000)
	b := NormalizeWith([]float64{100000}, 0, 100000)
	if !(a[0] < b[0]) {
		t.Fatal("joint normalization lost relative range")
	}
	if !almostEq(a[0], 0.1, 1e-12) {
		t.Fatalf("a = %v, want 0.1", a[0])
	}
}

func TestECDFAt(t *testing.T) {
	e := NewECDF([]float64{1, 2, 3, 4})
	cases := []struct{ x, want float64 }{
		{0.5, 0}, {1, 0.25}, {2.5, 0.5}, {4, 1}, {9, 1},
	}
	for _, c := range cases {
		if got := e.At(c.x); !almostEq(got, c.want, 1e-12) {
			t.Fatalf("ECDF.At(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestECDFMonotone(t *testing.T) {
	f := func(raw [8]float64, q1, q2 float64) bool {
		vals := make([]float64, 0, 8)
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				vals = append(vals, math.Mod(v, 100))
			}
		}
		if len(vals) == 0 {
			return true
		}
		if math.IsNaN(q1) || math.IsNaN(q2) || math.IsInf(q1, 0) || math.IsInf(q2, 0) {
			return true
		}
		a, b := math.Mod(q1, 100), math.Mod(q2, 100)
		if a > b {
			a, b = b, a
		}
		e := NewECDF(vals)
		return e.At(a) <= e.At(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50}
	if p := Percentile(xs, 0); p != 10 {
		t.Fatalf("P0 = %v", p)
	}
	if p := Percentile(xs, 100); p != 50 {
		t.Fatalf("P100 = %v", p)
	}
	if p := Percentile(xs, 50); p != 30 {
		t.Fatalf("P50 = %v", p)
	}
	if p := Percentile(xs, 25); p != 20 {
		t.Fatalf("P25 = %v", p)
	}
	if p := Percentile(xs, 12.5); !almostEq(p, 15, 1e-12) {
		t.Fatalf("P12.5 = %v, want 15 (interpolated)", p)
	}
}

func TestResampleToPercentiles(t *testing.T) {
	// Linear ramp resamples to a linear ramp.
	series := []float64{0, 1, 2, 3, 4}
	out := ResampleToPercentiles(series, 8)
	if len(out) != 9 {
		t.Fatalf("len = %d, want 9", len(out))
	}
	if out[0] != 0 || out[8] != 4 {
		t.Fatalf("endpoints = %v, %v", out[0], out[8])
	}
	if !almostEq(out[4], 2, 1e-12) {
		t.Fatalf("midpoint = %v, want 2", out[4])
	}
}

func TestResampleLengthIndependence(t *testing.T) {
	// Two ramps of different lengths resample to (nearly) the same curve —
	// the point of the x-axis normalization in §III-B1.
	short := ResampleToPercentiles([]float64{0, 1, 2}, 10)
	long := ResampleToPercentiles([]float64{0, 0.5, 1, 1.5, 2}, 10)
	for i := range short {
		if !almostEq(short[i], long[i], 1e-9) {
			t.Fatalf("resampled ramps differ at %d: %v vs %v", i, short[i], long[i])
		}
	}
}

func TestResampleEdgeCases(t *testing.T) {
	if out := ResampleToPercentiles(nil, 4); len(out) != 5 {
		t.Fatal("empty series should produce zero-filled grid")
	}
	out := ResampleToPercentiles([]float64{7}, 4)
	for _, v := range out {
		if v != 7 {
			t.Fatalf("singleton series resample = %v", out)
		}
	}
}

func TestCDFNormalizeBounds(t *testing.T) {
	series := []float64{5, 1, 100, 3, 2}
	out := CDFNormalize(series)
	for _, v := range out {
		if v < 0 || v > 100 {
			t.Fatalf("CDFNormalize out of [0,100]: %v", v)
		}
	}
	// Max value maps to 100.
	if out[2] != 100 {
		t.Fatalf("max mapped to %v, want 100", out[2])
	}
}

func TestCDFNormalizeOrderPreserving(t *testing.T) {
	f := func(raw [10]float64) bool {
		series := make([]float64, 0, 10)
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				series = append(series, v)
			}
		}
		if len(series) < 2 {
			return true
		}
		out := CDFNormalize(series)
		for i := range series {
			for j := range series {
				if series[i] < series[j] && out[i] > out[j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCDFNormalizeScaleInvariant(t *testing.T) {
	// Scaling the raw series must not change the normalized series — this
	// is exactly why Fig. 1 uses the CDF.
	series := []float64{1, 5, 2, 9, 3}
	scaled := make([]float64, len(series))
	for i, v := range series {
		scaled[i] = v * 1e6
	}
	a, b := CDFNormalize(series), CDFNormalize(scaled)
	for i := range a {
		if !almostEq(a[i], b[i], 1e-9) {
			t.Fatalf("CDF normalization not scale invariant at %d", i)
		}
	}
}

func TestKSOneSampleUniformPerfect(t *testing.T) {
	// A fine uniform grid has small D.
	n := 1000
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = (float64(i) + 0.5) / float64(n)
	}
	if d := KSOneSampleUniform(xs); d > 0.01 {
		t.Fatalf("uniform grid D = %v", d)
	}
}

func TestKSOneSampleUniformDegenerate(t *testing.T) {
	// All mass at 0.5: D = 0.5.
	xs := []float64{0.5, 0.5, 0.5, 0.5}
	if d := KSOneSampleUniform(xs); !almostEq(d, 0.5, 1e-12) {
		t.Fatalf("degenerate D = %v, want 0.5", d)
	}
}

func TestKSOneSampleClamps(t *testing.T) {
	if d := KSOneSampleUniform([]float64{-1, 2}); d <= 0 || d > 1 {
		t.Fatalf("clamped D = %v", d)
	}
}

func TestKSTwoSampleIdentical(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5}
	if d := KSTwoSample(a, a); d != 0 {
		t.Fatalf("identical samples D = %v", d)
	}
}

func TestKSTwoSampleDisjoint(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{10, 11, 12}
	if d := KSTwoSample(a, b); !almostEq(d, 1, 1e-12) {
		t.Fatalf("disjoint samples D = %v, want 1", d)
	}
}

func TestKSTwoSampleSymmetric(t *testing.T) {
	src := rng.New(1)
	a := make([]float64, 50)
	b := make([]float64, 80)
	for i := range a {
		a[i] = src.Float64()
	}
	for i := range b {
		b[i] = src.Norm(0.5, 0.2)
	}
	if !almostEq(KSTwoSample(a, b), KSTwoSample(b, a), 1e-12) {
		t.Fatal("KSTwoSample not symmetric")
	}
}

func TestKSTwoSampleAgainstUniformDraws(t *testing.T) {
	// Uniform sample vs uniform draws should have modest D.
	src := rng.New(2)
	a := make([]float64, 500)
	b := make([]float64, 500)
	for i := range a {
		a[i] = src.Float64()
		b[i] = src.Float64()
	}
	if d := KSTwoSample(a, b); d > 0.15 {
		t.Fatalf("uniform-vs-uniform D = %v", d)
	}
}

func TestKSBounds(t *testing.T) {
	f := func(rawA, rawB [6]float64) bool {
		a := make([]float64, 0, 6)
		bb := make([]float64, 0, 6)
		for _, v := range rawA {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				a = append(a, v)
			}
		}
		for _, v := range rawB {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				bb = append(bb, v)
			}
		}
		if len(a) == 0 || len(bb) == 0 {
			return true
		}
		d := KSTwoSample(a, bb)
		return d >= 0 && d <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHistogram(t *testing.T) {
	counts := Histogram([]float64{0, 0.1, 0.5, 0.9, 1.0}, 2, 0, 1)
	if counts[0] != 2 || counts[1] != 3 {
		t.Fatalf("Histogram = %v", counts)
	}
}

func TestHistogramIgnoresOutOfRange(t *testing.T) {
	counts := Histogram([]float64{-1, 0.5, 2}, 1, 0, 1)
	if counts[0] != 1 {
		t.Fatalf("Histogram = %v", counts)
	}
}

func TestPearsonPerfectCorrelation(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	if r := Pearson(xs, ys); !almostEq(r, 1, 1e-12) {
		t.Fatalf("Pearson = %v, want 1", r)
	}
	neg := []float64{10, 8, 6, 4, 2}
	if r := Pearson(xs, neg); !almostEq(r, -1, 1e-12) {
		t.Fatalf("Pearson = %v, want -1", r)
	}
}

func TestPearsonIndependent(t *testing.T) {
	src := rng.New(1)
	xs := make([]float64, 2000)
	ys := make([]float64, 2000)
	for i := range xs {
		xs[i] = src.Float64()
		ys[i] = src.Float64()
	}
	if r := Pearson(xs, ys); math.Abs(r) > 0.06 {
		t.Fatalf("independent Pearson = %v", r)
	}
}

func TestPearsonConstantInput(t *testing.T) {
	if r := Pearson([]float64{1, 1, 1}, []float64{1, 2, 3}); r != 0 {
		t.Fatalf("constant Pearson = %v, want 0", r)
	}
}

func TestPearsonPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch did not panic")
		}
	}()
	Pearson([]float64{1, 2}, []float64{1})
}

func TestPearsonBounds(t *testing.T) {
	f := func(raw [8]float64, raw2 [8]float64) bool {
		xs := make([]float64, 8)
		ys := make([]float64, 8)
		for i := range xs {
			xs[i] = math.Mod(sanitizeF(raw[i]), 1e6)
			ys[i] = math.Mod(sanitizeF(raw2[i]), 1e6)
		}
		r := Pearson(xs, ys)
		return r >= -1-1e-9 && r <= 1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func sanitizeF(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

func BenchmarkKSTwoSample(b *testing.B) {
	src := rng.New(1)
	x := make([]float64, 1000)
	y := make([]float64, 1000)
	for i := range x {
		x[i] = src.Float64()
		y[i] = src.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		KSTwoSample(x, y)
	}
}

func BenchmarkCDFNormalize(b *testing.B) {
	src := rng.New(1)
	series := make([]float64, 500)
	for i := range series {
		series[i] = src.Float64() * 1e9
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CDFNormalize(series)
	}
}
