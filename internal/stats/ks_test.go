package stats

import (
	"fmt"
	"math"
	"sort"
	"testing"
)

// Kolmogorov–Smirnov goodness-of-fit machinery: the oracle that checks the
// variate generators against their nominal distributions rather than
// checking means alone.

// KSResult is the outcome of a one-sample KS test.
type KSResult struct {
	// Statistic is D_n = sup |F_empirical − F|.
	Statistic float64
	// N is the sample size.
	N int
	// PValue is the asymptotic p-value from the Kolmogorov distribution
	// (accurate for N ≳ 35).
	PValue float64
}

// Reject reports whether the null hypothesis (sample drawn from the
// reference CDF) is rejected at the given significance level.
func (r KSResult) Reject(alpha float64) bool { return r.PValue < alpha }

func (r KSResult) String() string {
	return fmt.Sprintf("KS D=%.5f n=%d p=%.4f", r.Statistic, r.N, r.PValue)
}

// KSTest runs a one-sample Kolmogorov–Smirnov test of the sample against
// the reference CDF. The sample is copied and sorted.
func KSTest(sample []float64, cdf func(float64) float64) (KSResult, error) {
	n := len(sample)
	if n == 0 {
		return KSResult{}, fmt.Errorf("stats: KS test needs a sample")
	}
	xs := append([]float64(nil), sample...)
	sort.Float64s(xs)
	d := 0.0
	for i, x := range xs {
		f := cdf(x)
		if f < 0 || f > 1 || math.IsNaN(f) {
			return KSResult{}, fmt.Errorf("stats: reference CDF returned %g at %g", f, x)
		}
		upper := float64(i+1)/float64(n) - f
		lower := f - float64(i)/float64(n)
		if upper > d {
			d = upper
		}
		if lower > d {
			d = lower
		}
	}
	return KSResult{
		Statistic: d,
		N:         n,
		PValue:    ksPValue(d, n),
	}, nil
}

// ksPValue evaluates the asymptotic Kolmogorov distribution
// Q(λ) = 2 Σ_{k≥1} (−1)^{k−1} e^{−2k²λ²} with the standard small-sample
// correction λ = (√n + 0.12 + 0.11/√n)·D.
func ksPValue(d float64, n int) float64 {
	sqrtN := math.Sqrt(float64(n))
	lambda := (sqrtN + 0.12 + 0.11/sqrtN) * d
	if lambda < 1e-6 {
		return 1
	}
	sum := 0.0
	sign := 1.0
	for k := 1; k <= 100; k++ {
		term := sign * math.Exp(-2*float64(k*k)*lambda*lambda)
		sum += term
		if math.Abs(term) < 1e-12 {
			break
		}
		sign = -sign
	}
	p := 2 * sum
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	return p
}

// ExponentialCDF returns the CDF of Exp(rate) for use with KSTest.
func ExponentialCDF(rate float64) func(float64) float64 {
	return func(x float64) float64 {
		if x <= 0 {
			return 0
		}
		return 1 - math.Exp(-rate*x)
	}
}

// UniformCDF returns the CDF of U[lo, hi].
func UniformCDF(lo, hi float64) func(float64) float64 {
	return func(x float64) float64 {
		switch {
		case x <= lo:
			return 0
		case x >= hi:
			return 1
		default:
			return (x - lo) / (hi - lo)
		}
	}
}

// ParetoCDF returns the CDF of the Pareto distribution with scale xm and
// shape alpha.
func ParetoCDF(xm, alpha float64) func(float64) float64 {
	return func(x float64) float64 {
		if x <= xm {
			return 0
		}
		return 1 - math.Pow(xm/x, alpha)
	}
}

func drawSample(d Distribution, n int, seed uint64) []float64 {
	s := NewStream(seed, "ks/"+d.String())
	out := make([]float64, n)
	for i := range out {
		out[i] = d.Sample(s)
	}
	return out
}

func TestKSAcceptsCorrectDistributions(t *testing.T) {
	cases := []struct {
		d   Distribution
		cdf func(float64) float64
	}{
		{NewExponential(2.5), ExponentialCDF(2.5)},
		{Uniform{Lo: 1, Hi: 4}, UniformCDF(1, 4)},
		{Pareto{Xm: 1, Alpha: 2.2}, ParetoCDF(1, 2.2)},
	}
	for _, c := range cases {
		res, err := KSTest(drawSample(c.d, 5000, 11), c.cdf)
		if err != nil {
			t.Fatal(err)
		}
		if res.Reject(0.01) {
			t.Errorf("%s rejected against its own CDF: %s", c.d, res)
		}
	}
}

func TestKSRejectsWrongDistribution(t *testing.T) {
	// Exponential sample tested against a uniform CDF: decisive rejection.
	sample := drawSample(NewExponential(1), 5000, 13)
	res, err := KSTest(sample, UniformCDF(0, 5))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reject(0.001) {
		t.Fatalf("wrong CDF accepted: %s", res)
	}
	// Wrong rate, same family: also rejected at this sample size.
	res, err = KSTest(sample, ExponentialCDF(1.3))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reject(0.01) {
		t.Fatalf("wrong rate accepted: %s", res)
	}
}

func TestKSErrors(t *testing.T) {
	if _, err := KSTest(nil, ExponentialCDF(1)); err == nil {
		t.Fatal("empty sample accepted")
	}
	bad := func(float64) float64 { return 2 }
	if _, err := KSTest([]float64{1, 2}, bad); err == nil {
		t.Fatal("invalid CDF accepted")
	}
}

func TestKSPValueSane(t *testing.T) {
	// Tiny statistic: p near 1. Huge statistic: p near 0.
	if p := ksPValue(1e-9, 100); p < 0.99 {
		t.Fatalf("tiny D gave p=%g", p)
	}
	if p := ksPValue(0.5, 100); p > 1e-6 {
		t.Fatalf("huge D gave p=%g", p)
	}
	// Monotone decreasing in D.
	prev := 1.1
	for d := 0.01; d < 0.3; d += 0.01 {
		p := ksPValue(d, 200)
		if p > prev+1e-12 {
			t.Fatalf("p not decreasing at D=%g", d)
		}
		prev = p
	}
}

func TestKSStatisticExactTinySample(t *testing.T) {
	// Sample {0.5} against U[0,1]: D = max(1-0.5, 0.5-0) = 0.5.
	res, err := KSTest([]float64{0.5}, UniformCDF(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Statistic-0.5) > 1e-12 {
		t.Fatalf("D = %g, want 0.5", res.Statistic)
	}
}
