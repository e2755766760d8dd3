package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or NaN for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the unbiased sample variance of xs (NaN for n < 2).
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return math.NaN()
	}
	m := Mean(xs)
	ss := 0.0
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(n-1)
}

// Max returns the largest element of xs, or -Inf for an empty slice.
func Max(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// Quantile returns the q-quantile of xs (0 <= q <= 1) using linear
// interpolation between order statistics. It copies and sorts the input.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	return quantileSorted(cp, q)
}

func quantileSorted(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[n-1]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Accumulator collects a stream of observations with Welford's online
// algorithm, so simulators can track means and variances without storing
// samples.
type Accumulator struct {
	n        int64
	mean, m2 float64
	max      float64
}

// Add records one observation.
func (a *Accumulator) Add(x float64) {
	a.n++
	if a.n == 1 || x > a.max {
		a.max = x
	}
	delta := x - a.mean
	a.mean += delta / float64(a.n)
	a.m2 += delta * (x - a.mean)
}

// N reports the number of observations.
func (a *Accumulator) N() int64 { return a.n }

// Mean reports the running mean (NaN when empty).
func (a *Accumulator) Mean() float64 {
	if a.n == 0 {
		return math.NaN()
	}
	return a.mean
}

// Variance reports the unbiased running variance (NaN for n < 2).
func (a *Accumulator) Variance() float64 {
	if a.n < 2 {
		return math.NaN()
	}
	return a.m2 / float64(a.n-1)
}

// StdDev reports the running standard deviation.
func (a *Accumulator) StdDev() float64 { return math.Sqrt(a.Variance()) }

// Max reports the largest observation (NaN when empty).
func (a *Accumulator) Max() float64 {
	if a.n == 0 {
		return math.NaN()
	}
	return a.max
}

// CI is a two-sided confidence interval around a point estimate.
type CI struct {
	Point      float64
	Lo, Hi     float64
	Confidence float64 // e.g. 0.95
}

// HalfWidth reports the interval's half width.
func (c CI) HalfWidth() float64 { return (c.Hi - c.Lo) / 2 }

// Contains reports whether x lies inside the interval.
func (c CI) Contains(x float64) bool { return x >= c.Lo && x <= c.Hi }

// RelativeHalfWidth reports the half width divided by |Point| — the
// relative-precision figure replication studies stop on. A degenerate
// interval (half width 0) is 0 even at Point 0; otherwise a zero point
// estimate yields +Inf, since no finite interval is relatively tight
// around zero.
func (c CI) RelativeHalfWidth() float64 {
	hw := c.HalfWidth()
	if hw == 0 {
		return 0
	}
	p := math.Abs(c.Point)
	if p == 0 {
		return math.Inf(1)
	}
	return hw / p
}

func (c CI) String() string {
	return fmt.Sprintf("%.6g [%.6g, %.6g] @%.0f%%", c.Point, c.Lo, c.Hi, c.Confidence*100)
}

// MeanCI computes a confidence interval for the mean of the accumulated
// observations using the Student-t critical value. Supported confidence
// levels are 0.90, 0.95 and 0.99; other values fall back to 0.95.
func (a *Accumulator) MeanCI(confidence float64) CI {
	m := a.Mean()
	if a.n < 2 {
		return CI{Point: m, Lo: math.Inf(-1), Hi: math.Inf(1), Confidence: confidence}
	}
	se := a.StdDev() / math.Sqrt(float64(a.n))
	t := tCritical(confidence, a.n-1)
	return CI{Point: m, Lo: m - t*se, Hi: m + t*se, Confidence: confidence}
}

// ProportionCI computes a normal-approximation (Wald) confidence interval
// for a binomial proportion with successes out of trials, clamped to [0,1].
// The queueing validation tests use it for loss probabilities.
func ProportionCI(successes, trials int64, confidence float64) CI {
	if trials == 0 {
		return CI{Point: math.NaN(), Lo: 0, Hi: 1, Confidence: confidence}
	}
	p := float64(successes) / float64(trials)
	z := zCritical(confidence)
	se := math.Sqrt(p * (1 - p) / float64(trials))
	lo := p - z*se
	hi := p + z*se
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return CI{Point: p, Lo: lo, Hi: hi, Confidence: confidence}
}

// tCritical returns the two-sided Student-t critical value for the given
// confidence and degrees of freedom, via a small table plus the normal
// limit. Accuracy is more than sufficient for simulation reporting.
func tCritical(confidence float64, df int64) float64 {
	type row struct {
		df            int64
		t90, t95, t99 float64
	}
	table := []row{
		{1, 6.314, 12.706, 63.657},
		{2, 2.920, 4.303, 9.925},
		{3, 2.353, 3.182, 5.841},
		{4, 2.132, 2.776, 4.604},
		{5, 2.015, 2.571, 4.032},
		{6, 1.943, 2.447, 3.707},
		{7, 1.895, 2.365, 3.499},
		{8, 1.860, 2.306, 3.355},
		{9, 1.833, 2.262, 3.250},
		{10, 1.812, 2.228, 3.169},
		{12, 1.782, 2.179, 3.055},
		{15, 1.753, 2.131, 2.947},
		{20, 1.725, 2.086, 2.845},
		{25, 1.708, 2.060, 2.787},
		{30, 1.697, 2.042, 2.750},
		{40, 1.684, 2.021, 2.704},
		{60, 1.671, 2.000, 2.660},
		{120, 1.658, 1.980, 2.617},
	}
	pick := func(r row) float64 {
		switch {
		case confidence >= 0.985:
			return r.t99
		case confidence >= 0.925:
			return r.t95
		case confidence >= 0.85:
			return r.t90
		default:
			return r.t95
		}
	}
	for _, r := range table {
		if df <= r.df {
			return pick(r)
		}
	}
	return zCritical(confidence)
}

// zCritical returns the two-sided standard-normal critical value.
func zCritical(confidence float64) float64 {
	switch {
	case confidence >= 0.985:
		return 2.5758
	case confidence >= 0.925:
		return 1.9600
	case confidence >= 0.85:
		return 1.6449
	default:
		return 1.9600
	}
}

// RelativeError reports |got-want|/|want|, with the convention that a want
// of zero yields |got| (absolute error) to stay finite.
func RelativeError(got, want float64) float64 {
	if want == 0 {
		return math.Abs(got)
	}
	return math.Abs(got-want) / math.Abs(want)
}

// Autocorrelation estimates the lag-k autocorrelation of a series — the
// burstiness fingerprint separating MMPP-like correlated traffic from
// renewal processes. It returns NaN for series shorter than k+2 points or
// with zero variance.
func Autocorrelation(xs []float64, lag int) float64 {
	n := len(xs)
	if lag < 0 || n < lag+2 {
		return math.NaN()
	}
	m := Mean(xs)
	var num, den float64
	for i := 0; i < n; i++ {
		d := xs[i] - m
		den += d * d
		if i+lag < n {
			num += d * (xs[i+lag] - m)
		}
	}
	if den == 0 {
		return math.NaN()
	}
	return num / den
}
