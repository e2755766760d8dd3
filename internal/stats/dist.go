package stats

import (
	"fmt"
	"math"
)

// Distribution is a positive continuous distribution used for service times
// and inter-arrival times. Implementations must be safe for concurrent use
// as long as each goroutine supplies its own *Stream.
type Distribution interface {
	// Sample draws one variate using the supplied stream.
	Sample(s *Stream) float64
	// Mean reports the distribution mean.
	Mean() float64
	// Var reports the distribution variance (may be +Inf).
	Var() float64
	// String describes the distribution for logs and reports.
	String() string
}

// SCV reports the squared coefficient of variation Var/Mean² of d, the
// standard queueing-theory measure of service-time variability (1 for
// exponential, 0 for deterministic). It returns NaN for zero-mean
// distributions.
func SCV(d Distribution) float64 {
	m := d.Mean()
	if m == 0 {
		return math.NaN()
	}
	return d.Var() / (m * m)
}

// Exponential is the exponential distribution with the given rate (so mean
// 1/Rate). It is the service-time distribution implied by the paper's
// "average serving rate" inputs and the inter-arrival distribution of a
// Poisson process.
type Exponential struct {
	Rate float64
}

// NewExponential returns an exponential distribution with mean 1/rate.
// It panics if rate is not positive.
func NewExponential(rate float64) Exponential {
	if rate <= 0 || math.IsNaN(rate) {
		panic(fmt.Sprintf("stats: exponential rate must be positive, got %v", rate))
	}
	return Exponential{Rate: rate}
}

func (e Exponential) Sample(s *Stream) float64 { return s.ExpFloat64() / e.Rate }
func (e Exponential) Mean() float64            { return 1 / e.Rate }
func (e Exponential) Var() float64             { return 1 / (e.Rate * e.Rate) }
func (e Exponential) String() string           { return fmt.Sprintf("Exp(rate=%g)", e.Rate) }

// Deterministic always returns Value. It models constant per-request demand
// and is the zero-variance end of the generality the Erlang loss formula is
// insensitive to.
type Deterministic struct {
	Value float64
}

func (d Deterministic) Sample(*Stream) float64 { return d.Value }
func (d Deterministic) Mean() float64          { return d.Value }
func (d Deterministic) Var() float64           { return 0 }
func (d Deterministic) String() string         { return fmt.Sprintf("Det(%g)", d.Value) }

// Uniform is the continuous uniform distribution on [Lo, Hi].
type Uniform struct {
	Lo, Hi float64
}

func (u Uniform) Sample(s *Stream) float64 { return u.Lo + (u.Hi-u.Lo)*s.Float64() }
func (u Uniform) Mean() float64            { return (u.Lo + u.Hi) / 2 }
func (u Uniform) Var() float64             { d := u.Hi - u.Lo; return d * d / 12 }
func (u Uniform) String() string           { return fmt.Sprintf("U[%g,%g]", u.Lo, u.Hi) }

// Pareto is the Lomax (shifted Pareto) distribution with shape Alpha and
// scale Xm, giving heavy-tailed demand. For Alpha <= 2 the variance is
// infinite; for Alpha <= 1 so is the mean. Heavy tails let the test suite
// probe the "general steady distribution" assumption of the model and the
// Paxson & Floyd non-Poisson critique the paper cites.
type Pareto struct {
	Xm    float64 // scale (minimum value), > 0
	Alpha float64 // tail index, > 0
}

func (p Pareto) Sample(s *Stream) float64 {
	u := 1 - s.Float64() // in (0, 1]
	return p.Xm / math.Pow(u, 1/p.Alpha)
}

func (p Pareto) Mean() float64 {
	if p.Alpha <= 1 {
		return math.Inf(1)
	}
	return p.Alpha * p.Xm / (p.Alpha - 1)
}

func (p Pareto) Var() float64 {
	if p.Alpha <= 2 {
		return math.Inf(1)
	}
	a := p.Alpha
	return p.Xm * p.Xm * a / ((a - 1) * (a - 1) * (a - 2))
}

func (p Pareto) String() string { return fmt.Sprintf("Pareto(xm=%g,alpha=%g)", p.Xm, p.Alpha) }

// ParetoWithMean builds a Pareto distribution with the requested mean and
// tail index alpha > 1.
func ParetoWithMean(mean, alpha float64) Pareto {
	if alpha <= 1 {
		panic("stats: ParetoWithMean requires alpha > 1")
	}
	return Pareto{Xm: mean * (alpha - 1) / alpha, Alpha: alpha}
}

// HyperExp is a two-phase hyperexponential distribution: with probability P1
// the variate is Exp(Rate1), otherwise Exp(Rate2). It produces SCV > 1,
// modelling bimodal request demand (e.g. cache hit vs. disk miss).
type HyperExp struct {
	P1           float64
	Rate1, Rate2 float64
}

func (h HyperExp) Sample(s *Stream) float64 {
	if s.Bernoulli(h.P1) {
		return s.ExpFloat64() / h.Rate1
	}
	return s.ExpFloat64() / h.Rate2
}

func (h HyperExp) Mean() float64 {
	return h.P1/h.Rate1 + (1-h.P1)/h.Rate2
}

func (h HyperExp) Var() float64 {
	// E[X²] for a mixture of exponentials: Σ pᵢ·2/rateᵢ².
	m2 := 2*h.P1/(h.Rate1*h.Rate1) + 2*(1-h.P1)/(h.Rate2*h.Rate2)
	m := h.Mean()
	return m2 - m*m
}

func (h HyperExp) String() string {
	return fmt.Sprintf("H2(p=%g,r1=%g,r2=%g)", h.P1, h.Rate1, h.Rate2)
}

// HyperExpWithSCV constructs a balanced-means two-phase hyperexponential
// with the requested mean and squared coefficient of variation scv >= 1.
func HyperExpWithSCV(mean, scv float64) HyperExp {
	if scv < 1 {
		panic("stats: HyperExpWithSCV requires scv >= 1")
	}
	if scv == 1 {
		// Degenerate: plain exponential split evenly.
		return HyperExp{P1: 0.5, Rate1: 1 / mean, Rate2: 1 / mean}
	}
	// Balanced means parameterization (Whitt): p1·mean1 = p2·mean2 = mean/2.
	p1 := 0.5 * (1 + math.Sqrt((scv-1)/(scv+1)))
	return HyperExp{
		P1:    p1,
		Rate1: 2 * p1 / mean,
		Rate2: 2 * (1 - p1) / mean,
	}
}

// ErlangK is the Erlang-k distribution (sum of k independent exponentials,
// each with the given per-phase Rate), producing SCV = 1/k < 1.
type ErlangK struct {
	K    int
	Rate float64 // per-phase rate; mean = K/Rate
}

// ErlangKWithMean builds an Erlang-k distribution with the requested mean.
func ErlangKWithMean(mean float64, k int) ErlangK {
	if k < 1 {
		panic("stats: ErlangKWithMean requires k >= 1")
	}
	return ErlangK{K: k, Rate: float64(k) / mean}
}

func (e ErlangK) Sample(s *Stream) float64 {
	sum := 0.0
	for i := 0; i < e.K; i++ {
		sum += s.ExpFloat64()
	}
	return sum / e.Rate
}

func (e ErlangK) Mean() float64  { return float64(e.K) / e.Rate }
func (e ErlangK) Var() float64   { return float64(e.K) / (e.Rate * e.Rate) }
func (e ErlangK) String() string { return fmt.Sprintf("Erlang(k=%d,rate=%g)", e.K, e.Rate) }

// LogNormal is the log-normal distribution parameterized by the mean Mu and
// standard deviation Sigma of the underlying normal.
type LogNormal struct {
	Mu, Sigma float64
}

func (l LogNormal) Sample(s *Stream) float64 {
	return math.Exp(l.Mu + l.Sigma*s.NormFloat64())
}

func (l LogNormal) Mean() float64 {
	return math.Exp(l.Mu + l.Sigma*l.Sigma/2)
}

func (l LogNormal) Var() float64 {
	s2 := l.Sigma * l.Sigma
	return (math.Exp(s2) - 1) * math.Exp(2*l.Mu+s2)
}

func (l LogNormal) String() string { return fmt.Sprintf("LogN(mu=%g,sigma=%g)", l.Mu, l.Sigma) }

// Scaled wraps a distribution, multiplying every sample (and the mean and
// standard deviation) by Factor. It is how the virtualization layer applies
// an impact factor a to a native service-time distribution: serving rate
// μ·a corresponds to service times scaled by 1/a.
type Scaled struct {
	D      Distribution
	Factor float64
}

func (s Scaled) Sample(st *Stream) float64 { return s.D.Sample(st) * s.Factor }
func (s Scaled) Mean() float64             { return s.D.Mean() * s.Factor }
func (s Scaled) Var() float64              { return s.D.Var() * s.Factor * s.Factor }
func (s Scaled) String() string {
	return fmt.Sprintf("%g*%s", s.Factor, s.D.String())
}
