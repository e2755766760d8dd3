package stats

import (
	"errors"
	"fmt"
)

// LinearFit is the result of an ordinary-least-squares straight-line fit
// y ≈ Intercept + Slope·x, as used by the paper to summarize impact factors
// ("we sum up the relationship ... using the linear regression",
// Section IV-C.1).
type LinearFit struct {
	Slope     float64
	Intercept float64
	R2        float64 // coefficient of determination
	N         int
}

func (f LinearFit) String() string {
	sign := "+"
	b := f.Intercept
	if b < 0 {
		sign, b = "-", -b
	}
	return fmt.Sprintf("y = %.4g*x %s %.4g (R2=%.4f, n=%d)", f.Slope, sign, b, f.R2, f.N)
}

// At evaluates the fitted line at x.
func (f LinearFit) At(x float64) float64 { return f.Intercept + f.Slope*x }

// ErrDegenerate reports a regression whose design matrix is singular
// (e.g. all x equal, or too few points).
var ErrDegenerate = errors.New("stats: degenerate regression input")

// LinearRegression fits y ≈ a + b·x by ordinary least squares. It requires
// at least two points with distinct x values.
func LinearRegression(xs, ys []float64) (LinearFit, error) {
	if len(xs) != len(ys) {
		return LinearFit{}, fmt.Errorf("stats: x/y length mismatch %d vs %d", len(xs), len(ys))
	}
	n := len(xs)
	if n < 2 {
		return LinearFit{}, ErrDegenerate
	}
	mx, my := Mean(xs), Mean(ys)
	var sxx, sxy, syy float64
	for i := 0; i < n; i++ {
		dx := xs[i] - mx
		dy := ys[i] - my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return LinearFit{}, ErrDegenerate
	}
	slope := sxy / sxx
	intercept := my - slope*mx
	r2 := 1.0
	if syy > 0 {
		ssRes := 0.0
		for i := 0; i < n; i++ {
			r := ys[i] - (intercept + slope*xs[i])
			ssRes += r * r
		}
		r2 = 1 - ssRes/syy
	}
	return LinearFit{Slope: slope, Intercept: intercept, R2: r2, N: n}, nil
}

// RationalSaturatingFit fits the paper's DB impact-factor form
//
//	a(v) ≈ C · v² / (1 + v²)
//
// (Section IV-C.1, Figure 8b) by least squares on the single parameter C,
// which has the closed-form solution C = Σ wᵢyᵢ / Σ wᵢ² with wᵢ = vᵢ²/(1+vᵢ²).
type RationalSaturatingFit struct {
	C  float64
	R2 float64
	N  int
}

// At evaluates the fitted curve at v.
func (r RationalSaturatingFit) At(v float64) float64 { return r.C * v * v / (1 + v*v) }

func (r RationalSaturatingFit) String() string {
	return fmt.Sprintf("a(v) = %.4g*v^2/(1+v^2) (R2=%.4f, n=%d)", r.C, r.R2, r.N)
}

// FitRationalSaturating performs the one-parameter fit described above.
func FitRationalSaturating(vs, ys []float64) (RationalSaturatingFit, error) {
	if len(vs) != len(ys) || len(vs) == 0 {
		return RationalSaturatingFit{}, ErrDegenerate
	}
	var num, den float64
	for i := range vs {
		w := vs[i] * vs[i] / (1 + vs[i]*vs[i])
		num += w * ys[i]
		den += w * w
	}
	if den == 0 {
		return RationalSaturatingFit{}, ErrDegenerate
	}
	fit := RationalSaturatingFit{C: num / den, N: len(vs)}
	my := Mean(ys)
	var ssTot, ssRes float64
	for i := range vs {
		d := ys[i] - my
		ssTot += d * d
		r := ys[i] - fit.At(vs[i])
		ssRes += r * r
	}
	if ssTot > 0 {
		fit.R2 = 1 - ssRes/ssTot
	} else {
		fit.R2 = 1
	}
	return fit, nil
}
