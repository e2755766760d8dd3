package erlang

import (
	"fmt"
	"math"
)

// BContinuous extends the Erlang B formula to a non-integral number of
// servers x >= 0 using the classical integral representation
//
//	1/B(x, ρ) = ρ · ∫₀^∞ e^(−ρt) · (1+t)^x dt = ρ^(−x) · e^ρ · Γ(x+1, ρ)
//
// (Jagerman 1974), where Γ(a, ρ) is the upper incomplete gamma function.
// The continuous extension is the right tool for heterogeneous pools whose
// summed capability is fractional in reference-server units (eval.Analytic
// scores heterogeneous fleets with it): it interpolates the integer
// Erlang B values smoothly and agrees exactly with B(n, ρ) at integers.
//
// Only the fractional part of x goes through the closed form; the integer
// part is stepped up with the recursion of Eq. (2), so integer x gives
// exactly the recursion's B(n, ρ), and the stepping stops once B
// underflows to 0. For 0 < x < 1, with a = x+1, Γ(a, ρ)
// comes from the standard split (Numerical Recipes gser/gcf): the power
// series of γ(a, ρ) for ρ < a+1 and the continued fraction of Γ(a, ρ),
// by modified Lentz, for ρ >= a+1. Against a 50-digit reference the
// fractional base is within ~4e-15 relative for 1e-6 <= ρ <= 1e6; near
// ρ = 1e-300 the rounding of x·ln ρ costs up to ~1e-13. A loop that hits
// its iteration cap, or a 1/B that is not positive, is returned as an
// error.
func BContinuous(x, rho float64) (float64, error) {
	if x < 0 || rho < 0 || math.IsNaN(x) || math.IsNaN(rho) || math.IsInf(x, 0) || math.IsInf(rho, 0) {
		return 0, fmt.Errorf("%w: BContinuous(x=%g, rho=%g)", ErrInvalidInput, x, rho)
	}
	if rho == 0 {
		if x == 0 {
			return 1, nil
		}
		return 0, nil
	}
	// Large loads/pools: downshift with the recursion B(x) from B(x-1):
	// the closed form only needs the fractional part. The step count
	// stays a float64 (x may exceed the int range), and the loop stops
	// once B underflows to 0, which every later step would keep.
	steps := math.Floor(x)
	frac := x - steps
	b, err := bContinuousSmall(frac, rho)
	if err != nil {
		return 0, err
	}
	for k := 1.0; k <= steps && b != 0; k++ {
		// Same recursion as Eq. (2) with non-integer index:
		// B(y, ρ) = ρ·B(y−1, ρ) / (y + ρ·B(y−1, ρ)).
		y := frac + k
		b = rho * b / (y + rho*b)
	}
	return b, nil
}

// Iteration control for the incomplete-gamma series and continued
// fraction. With a = x+1 in [1, 2) the series needs at most ~25 terms and
// the continued fraction ~40 steps, both worst next to the switch at
// ρ = a+1; the cap only bounds a pathological input.
const (
	gammaEps     = 0x1p-52   // stop once a step moves the result by < 1 ulp
	gammaTiny    = 0x1p-1000 // stands in for a zero denominator in Lentz's method
	gammaMaxIter = 200
)

// bContinuousSmall evaluates the closed form 1/B = ρ^(−x)·e^ρ·Γ(x+1, ρ)
// for 0 <= x < 1 and ρ > 0.
func bContinuousSmall(x, rho float64) (float64, error) {
	if x == 0 {
		return 1, nil
	}
	a := x + 1
	var inv float64
	if rho < x+2 { // ρ < a+1
		// Series: Γ(a, ρ) = Γ(a) − e^(−ρ)·ρ^a·S with
		// S = Σₙ ρⁿ / (a(a+1)…(a+n)), so 1/B = e^(ρ − x·ln ρ)·Γ(a) − ρ·S.
		term := 1 / a
		sum := term
		for n := 1; term >= sum*gammaEps; n++ {
			if n > gammaMaxIter {
				return 0, fmt.Errorf("erlang: incomplete-gamma series did not converge for x=%g rho=%g", x, rho)
			}
			term *= rho / (a + float64(n))
			sum += term
		}
		inv = math.Exp(rho-x*math.Log(rho))*math.Gamma(a) - rho*sum
	} else {
		// Continued fraction for h = Γ(a, ρ)·e^ρ·ρ^(−a) by modified
		// Lentz; then 1/B = ρ·h.
		b := rho + 1 - a
		c := 1 / gammaTiny
		d := 1 / b
		h := d
		for i := 1; ; i++ {
			if i > gammaMaxIter {
				return 0, fmt.Errorf("erlang: incomplete-gamma continued fraction did not converge for x=%g rho=%g", x, rho)
			}
			an := -float64(i) * (float64(i) - a)
			b += 2
			d = an*d + b
			if math.Abs(d) < gammaTiny {
				d = gammaTiny
			}
			c = b + an/c
			if math.Abs(c) < gammaTiny {
				c = gammaTiny
			}
			d = 1 / d
			del := d * c
			h *= del
			if math.Abs(del-1) <= gammaEps {
				break
			}
		}
		inv = rho * h
	}
	if !(inv > 0) {
		return 0, fmt.Errorf("erlang: continuous Erlang B failed for x=%g rho=%g (1/B=%g)", x, rho, inv)
	}
	// B(x, ρ) <= B(0, ρ) = 1; for x near 0 and large ρ, rounding can
	// leave 1/B an ulp below 1.
	return 1 / math.Max(inv, 1), nil
}

// ServersContinuous reports the smallest fractional server count x (to the
// given resolution, default 1e-6) with BContinuous(x, rho) <= target — the
// capability-units sizing companion for heterogeneous pools.
func ServersContinuous(rho, target, resolution float64) (float64, error) {
	if rho < 0 || math.IsNaN(rho) || math.IsInf(rho, 0) {
		return 0, fmt.Errorf("%w: ServersContinuous(rho=%g)", ErrInvalidInput, rho)
	}
	if target <= 0 || target > 1 || math.IsNaN(target) {
		return 0, fmt.Errorf("%w: ServersContinuous(target=%g)", ErrInvalidInput, target)
	}
	if math.IsNaN(resolution) || math.IsInf(resolution, 0) {
		return 0, fmt.Errorf("%w: ServersContinuous(resolution=%g)", ErrInvalidInput, resolution)
	}
	if resolution <= 0 {
		resolution = 1e-6
	}
	if rho == 0 {
		return 0, nil
	}
	// Bracket with the integer search, then bisect the final unit.
	n, err := Servers(rho, target, 0)
	if err != nil {
		return 0, err
	}
	if n == 0 {
		return 0, nil
	}
	lo, hi := float64(n-1), float64(n)
	for hi-lo > resolution {
		mid := (lo + hi) / 2
		b, err := BContinuous(mid, rho)
		if err != nil {
			return 0, err
		}
		if b <= target {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, nil
}
