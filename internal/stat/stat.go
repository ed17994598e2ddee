// Package stat provides the statistical primitives used across Perspector:
// moments, min-max and joint normalization (§III-C1 of the paper),
// empirical CDFs and percentile resampling (the TrendScore normalization of
// §III-B1), and one- and two-sample Kolmogorov–Smirnov tests (the
// SpreadScore of §III-D).
package stat

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the sample variance (n−1 denominator) of xs.
// It returns 0 for fewer than two values.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	mean := Mean(xs)
	sum := 0.0
	for _, x := range xs {
		d := x - mean
		sum += d * d
	}
	return sum / float64(n-1)
}

// StdDev returns the sample standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// MinMax returns the minimum and maximum of xs.
// It panics on an empty slice.
func MinMax(xs []float64) (min, max float64) {
	if len(xs) == 0 {
		panic("stat: MinMax of empty slice")
	}
	min, max = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	return min, max
}

// Normalize min-max scales xs into [0,1] in place semantics: it returns a
// new slice and leaves the input untouched. A constant input maps to all
// zeros (the paper's pipeline drops such degenerate counters anyway).
func Normalize(xs []float64) []float64 {
	out := make([]float64, len(xs))
	if len(xs) == 0 {
		return out
	}
	min, max := MinMax(xs)
	span := max - min
	if span == 0 {
		return out
	}
	for i, x := range xs {
		out[i] = (x - min) / span
	}
	return out
}

// NormalizeWith scales xs into [0,1] using externally supplied bounds, as
// required by the joint normalization of Eq. 9–10 where the bounds come
// from the concatenation of several suites' matrices. Values outside
// [min,max] are clamped. A degenerate range maps to zeros.
func NormalizeWith(xs []float64, min, max float64) []float64 {
	out := make([]float64, len(xs))
	span := max - min
	if span == 0 {
		return out
	}
	for i, x := range xs {
		v := (x - min) / span
		if v < 0 {
			v = 0
		} else if v > 1 {
			v = 1
		}
		out[i] = v
	}
	return out
}

// ECDF is an empirical cumulative distribution function over a sample.
type ECDF struct {
	sorted []float64
}

// NewECDF builds an ECDF from a sample. It panics on an empty sample.
func NewECDF(sample []float64) *ECDF {
	if len(sample) == 0 {
		panic("stat: NewECDF with empty sample")
	}
	s := make([]float64, len(sample))
	copy(s, sample)
	sort.Float64s(s)
	return &ECDF{sorted: s}
}

// At returns F(x): the fraction of sample values <= x.
func (e *ECDF) At(x float64) float64 {
	// Index of the first element > x.
	i := sort.SearchFloat64s(e.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(len(e.sorted))
}

// Percentile returns the p-th percentile (p in [0,100]) of the sample using
// linear interpolation between order statistics.
func (e *ECDF) Percentile(p float64) float64 {
	if p <= 0 {
		return e.sorted[0]
	}
	if p >= 100 {
		return e.sorted[len(e.sorted)-1]
	}
	rank := p / 100 * float64(len(e.sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return e.sorted[lo]
	}
	frac := rank - float64(lo)
	return e.sorted[lo]*(1-frac) + e.sorted[hi]*frac
}

// Percentile returns the p-th percentile of xs without constructing an ECDF.
func Percentile(xs []float64, p float64) float64 {
	return NewECDF(xs).Percentile(p)
}

// ResampleToPercentiles maps a time series onto a fixed percentile grid of
// the *time axis* with points+1 samples at 0%,…,100% of execution, using
// linear interpolation. This is the x-axis normalization of §III-B1: two
// series of different lengths become directly comparable.
func ResampleToPercentiles(series []float64, points int) []float64 {
	if points < 1 {
		panic(fmt.Sprintf("stat: ResampleToPercentiles with points=%d", points))
	}
	out := make([]float64, points+1)
	ResampleToPercentilesInto(out, series)
	return out
}

// ResampleToPercentilesInto is ResampleToPercentiles writing the
// len(out) = points+1 grid samples into out instead of a new slice.
func ResampleToPercentilesInto(out, series []float64) {
	points := len(out) - 1
	if points < 1 {
		panic(fmt.Sprintf("stat: ResampleToPercentiles with points=%d", points))
	}
	n := len(series)
	if n == 0 {
		clear(out)
		return
	}
	if n == 1 {
		for i := range out {
			out[i] = series[0]
		}
		return
	}
	for i := 0; i <= points; i++ {
		pos := float64(i) / float64(points) * float64(n-1)
		lo := int(math.Floor(pos))
		hi := int(math.Ceil(pos))
		if lo == hi {
			out[i] = series[lo]
			continue
		}
		frac := pos - float64(lo)
		out[i] = series[lo]*(1-frac) + series[hi]*frac
	}
}

// CDFNormalize maps each value of the series to 100·F(v), where F is the
// empirical CDF of the series itself. This is the y-axis normalization of
// §III-B1 (Fig. 1): output values lie in [0,100] regardless of the raw
// counter magnitude, so no single high-magnitude series dominates DTW.
func CDFNormalize(series []float64) []float64 {
	if len(series) == 0 {
		return nil
	}
	e := NewECDF(series)
	out := make([]float64, len(series))
	for i, v := range series {
		out[i] = 100 * e.At(v)
	}
	return out
}

// KSOneSampleUniform returns the one-sample Kolmogorov–Smirnov statistic
// D = sup |F_emp(x) − x| of xs against the U(0,1) CDF. Values are clamped
// to [0,1] first. It panics on an empty sample.
func KSOneSampleUniform(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stat: KSOneSampleUniform with empty sample")
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	for i, v := range s {
		if v < 0 {
			s[i] = 0
		} else if v > 1 {
			s[i] = 1
		}
	}
	sort.Float64s(s)
	n := float64(len(s))
	d := 0.0
	for i, v := range s {
		// The empirical CDF jumps at each order statistic; check both sides.
		upper := float64(i+1)/n - v
		lower := v - float64(i)/n
		if upper > d {
			d = upper
		}
		if lower > d {
			d = lower
		}
	}
	return d
}

// KSTwoSample returns the two-sample Kolmogorov–Smirnov statistic
// D = sup |F_a(x) − F_b(x)|. This is the exact form of Eq. 14, which
// compares a workload's normalized counter column against m uniform draws.
// It panics if either sample is empty.
func KSTwoSample(a, b []float64) float64 {
	if len(a) == 0 || len(b) == 0 {
		panic("stat: KSTwoSample with empty sample")
	}
	sa := make([]float64, len(a))
	sb := make([]float64, len(b))
	copy(sa, a)
	copy(sb, b)
	sort.Float64s(sa)
	sort.Float64s(sb)
	var i, j int
	na, nb := float64(len(sa)), float64(len(sb))
	d := 0.0
	for i < len(sa) && j < len(sb) {
		// Advance past every occurrence of the smaller current value in
		// both samples before comparing the CDFs, so ties are handled
		// correctly (the empirical CDFs only differ *between* values).
		v := math.Min(sa[i], sb[j])
		for i < len(sa) && sa[i] == v {
			i++
		}
		for j < len(sb) && sb[j] == v {
			j++
		}
		if diff := math.Abs(float64(i)/na - float64(j)/nb); diff > d {
			d = diff
		}
	}
	return d
}

// Pearson returns the Pearson correlation coefficient of two equal-length
// samples, in [−1, 1]. If either sample is constant the correlation is
// undefined and 0 is returned. It panics on length mismatch or fewer than
// two points.
func Pearson(xs, ys []float64) float64 {
	if len(xs) != len(ys) {
		panic(fmt.Sprintf("stat: Pearson length mismatch %d vs %d", len(xs), len(ys)))
	}
	if len(xs) < 2 {
		panic("stat: Pearson needs at least two points")
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}
