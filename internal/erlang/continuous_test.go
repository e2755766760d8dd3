package erlang

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

// quadratureB is the reference for the closed-form kernel: it evaluates
// Jagerman's integral for 0 < x < 1 directly,
//
//	1/B = ∫₀^∞ e^(−u) · (1 + u/ρ)^x du   (u = ρt),
//
// by adaptive Simpson. The integrand decays like e^−u with a
// subpolynomial factor, so truncating at u = 60 + 10x leaves a remainder
// below e^−50 relative.
func quadratureB(x, rho float64) float64 {
	f := func(u float64) float64 {
		return math.Exp(-u) * math.Pow(1+u/rho, x)
	}
	return 1 / adaptiveSimpson(f, 0, 60+10*x, 1e-12, 30)
}

// adaptiveSimpson integrates f over [a, b] with tolerance eps and maximum
// recursion depth.
func adaptiveSimpson(f func(float64) float64, a, b, eps float64, depth int) float64 {
	c := (a + b) / 2
	fa, fb, fc := f(a), f(b), f(c)
	s := simpson(fa, fc, fb, b-a)
	return adaptiveSimpsonAux(f, a, b, eps, s, fa, fb, fc, depth)
}

func simpson(fa, fm, fb, h float64) float64 {
	return h / 6 * (fa + 4*fm + fb)
}

func adaptiveSimpsonAux(f func(float64) float64, a, b, eps, whole, fa, fb, fc float64, depth int) float64 {
	c := (a + b) / 2
	d := (a + c) / 2
	e := (c + b) / 2
	fd, fe := f(d), f(e)
	left := simpson(fa, fd, fc, c-a)
	right := simpson(fc, fe, fb, b-c)
	if depth <= 0 || math.Abs(left+right-whole) <= 15*eps*(1+math.Abs(whole)) {
		return left + right + (left+right-whole)/15
	}
	return adaptiveSimpsonAux(f, a, c, eps/2, left, fa, fc, fd, depth-1) +
		adaptiveSimpsonAux(f, c, b, eps/2, right, fc, fb, fe, depth-1)
}

func relErr(got, want float64) float64 {
	return math.Abs(got-want) / want
}

func TestBContinuousMatchesIntegerRecursion(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 5, 10, 50, 200} {
		for _, rho := range []float64{0.1, 1, 2.5, 10, 100} {
			want := MustB(n, rho)
			got, err := BContinuous(float64(n), rho)
			if err != nil {
				t.Fatalf("BContinuous(%d, %g): %v", n, rho, err)
			}
			if math.Abs(got-want) > 1e-8*(1+want) {
				t.Errorf("BContinuous(%d, %g) = %.12g, recursion %.12g", n, rho, got, want)
			}
			// Integer x never reaches the fractional kernel; approaching
			// n from below does, with a fractional part of 1 − 1e-12.
			if n == 0 {
				continue
			}
			x := float64(n) - 1e-12
			got, err = BContinuous(x, rho)
			if err != nil {
				t.Fatalf("BContinuous(%.15g, %g): %v", x, rho, err)
			}
			if relErr(got, want) > 1e-10 {
				t.Errorf("BContinuous(%.15g, %g) = %.15g, B(%d) = %.15g", x, rho, got, n, want)
			}
		}
	}
}

// TestBContinuousMatchesQuadrature pins the closed form against the
// adaptive-quadrature oracle over the fractional base 0 < x < 1, on both
// sides of the series/continued-fraction switch at ρ = x + 2.
func TestBContinuousMatchesQuadrature(t *testing.T) {
	xs := []float64{1e-9, 1e-6, 1e-3, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.999, 0.999999}
	rhos := []float64{1e-6, 1e-3, 0.05, 0.1, 0.5, 1, 1.52, 2, 2.5, 3, 5, 10, 38.5, 100, 1e3, 1e4, 1e5, 1e6}
	for _, x := range xs {
		for _, rho := range rhos {
			got, err := BContinuous(x, rho)
			if err != nil {
				t.Fatalf("BContinuous(%g, %g): %v", x, rho, err)
			}
			want := quadratureB(x, rho)
			if e := relErr(got, want); e > 1e-12 {
				t.Errorf("BContinuous(%g, %g) = %.17g, quadrature %.17g (rel. error %.2g)", x, rho, got, want, e)
			}
		}
	}
}

// TestBContinuousMatchesErfc checks x = ½ against an oracle independent of
// both the kernel and the quadrature: Γ(3/2, ρ) = √ρ·e^(−ρ) + (√π/2)·erfc(√ρ),
// so 1/B(½, ρ) = 1 + ρ^(−½)·e^ρ·(√π/2)·erfc(√ρ). Past ρ ≈ 700 the e^ρ
// factor overflows.
func TestBContinuousMatchesErfc(t *testing.T) {
	for _, rho := range []float64{1e-6, 1e-3, 0.05, 0.1, 0.5, 1, 1.52, 2, 2.5, 3, 5, 10, 38.5, 100, 250, 600} {
		got, err := BContinuous(0.5, rho)
		if err != nil {
			t.Fatalf("BContinuous(0.5, %g): %v", rho, err)
		}
		want := 1 / (1 + math.Exp(rho)/math.Sqrt(rho)*math.Sqrt(math.Pi)/2*math.Erfc(math.Sqrt(rho)))
		if e := relErr(got, want); e > 1e-14 {
			t.Errorf("BContinuous(0.5, %g) = %.17g, erfc identity %.17g (rel. error %.2g)", rho, got, want, e)
		}
	}
}

// TestBContinuousBranchSwitchContinuity compares B at ρ = x + 2,
// the first load the continued fraction handles, with B at the largest
// load below it, which the series handles.
func TestBContinuousBranchSwitchContinuity(t *testing.T) {
	for _, x := range []float64{1e-9, 0.1, 0.5, 0.8333333333333339, 0.999999} {
		rho := x + 2
		below := math.Nextafter(rho, 0)
		cf, err := BContinuous(x, rho)
		if err != nil {
			t.Fatal(err)
		}
		series, err := BContinuous(x, below)
		if err != nil {
			t.Fatal(err)
		}
		if e := relErr(series, cf); e > 1e-14 {
			t.Errorf("x=%g: B(ρ=%.17g) = %.17g, B(ρ=%.17g) = %.17g (rel. gap %.2g)", x, below, series, rho, cf, e)
		}
	}
}

func TestBContinuousInterpolatesMonotonically(t *testing.T) {
	// Between consecutive integers, B is strictly decreasing in x.
	rho := 2.0
	prev, _ := BContinuous(1, rho)
	for x := 1.1; x <= 3.001; x += 0.1 {
		b, err := BContinuous(x, rho)
		if err != nil {
			t.Fatal(err)
		}
		if b >= prev {
			t.Fatalf("B not decreasing at x=%.1f: %g >= %g", x, b, prev)
		}
		prev = b
	}
}

func TestBContinuousBrackets(t *testing.T) {
	// The fractional value sits between the integer neighbours.
	for _, rho := range []float64{0.5, 1.52, 5} {
		for _, x := range []float64{0.5, 1.25, 2.75, 3.5} {
			lo := MustB(int(math.Ceil(x)), rho)
			hi := MustB(int(math.Floor(x)), rho)
			b, err := BContinuous(x, rho)
			if err != nil {
				t.Fatal(err)
			}
			if b < lo-1e-12 || b > hi+1e-12 {
				t.Errorf("B(%g, %g) = %g outside [%g, %g]", x, rho, b, lo, hi)
			}
		}
	}
}

func TestBContinuousEdgeCases(t *testing.T) {
	if b, _ := BContinuous(0, 0); b != 1 {
		t.Fatal("B(0,0) != 1")
	}
	if b, _ := BContinuous(2.5, 0); b != 0 {
		t.Fatal("B(2.5, 0) != 0")
	}
	for _, bad := range [][2]float64{{-1, 1}, {1, -1}, {math.NaN(), 1}, {1, math.Inf(1)}} {
		if _, err := BContinuous(bad[0], bad[1]); err == nil {
			t.Errorf("BContinuous(%v) accepted", bad)
		}
	}
	// x → 0: B(0, ρ) = 1.
	for _, x := range []float64{1e-300, 1e-12} {
		if b, err := BContinuous(x, 5); err != nil || math.Abs(b-1) > 1e-11 {
			t.Errorf("BContinuous(%g, 5) = %.17g, %v; want ≈1", x, b, err)
		}
	}
	// ρ → 0: B(x, ρ) ~ ρ^x / Γ(x+1). The e^(−x·ln ρ) factor carries the
	// rounding of x·ln ρ ≈ 345, so allow a few 1e-14.
	if b, err := BContinuous(0.5, 1e-300); err != nil || relErr(b, 1.1283791670955126e-150) > 1e-13 {
		t.Errorf("BContinuous(0.5, 1e-300) = %.17g, %v; want 1.1283791670955126e-150", b, err)
	}
	// Past the underflow the recursion stops at 0: x beyond the int range
	// no longer overflows the step count, and a billion steps cost a few
	// hundred.
	for _, x := range []float64{1e300, 1e9 + 0.5} {
		if b, err := BContinuous(x, 5); err != nil || b != 0 {
			t.Errorf("BContinuous(%g, 5) = %g, %v; want 0", x, b, err)
		}
	}
	// Heavy loads and long upward recursions stay finite and in [0, 1];
	// at (1e-300, 11211) the continued fraction rounds 1/B an ulp below 1.
	for _, c := range [][2]float64{{0.5, 1e6}, {0.5, 1e15}, {999999.5, 1e6}, {2e6 + 0.3, 1e6}, {1e-300, 11211}} {
		b, err := BContinuous(c[0], c[1])
		if err != nil || math.IsNaN(b) || b < 0 || b > 1 {
			t.Errorf("BContinuous(%g, %g) = %g, %v; want a probability", c[0], c[1], b, err)
		}
	}
}

// Property: BContinuous stays in (0, 1], decreases in x and increases in ρ.
func TestBContinuousProperties(t *testing.T) {
	f := func(xRaw, rhoRaw uint16) bool {
		x := float64(xRaw%800)/10 + 0.05
		rho := float64(rhoRaw%500)/10 + 0.05
		b, err := BContinuous(x, rho)
		if err != nil || b <= 0 || b > 1 {
			return false
		}
		b2, err := BContinuous(x+0.3, rho)
		if err != nil || b2 > b+1e-12 {
			return false
		}
		b3, err := BContinuous(x, rho*1.2)
		return err == nil && b3 >= b-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func FuzzBContinuous(f *testing.F) {
	f.Add(4.833333333333334, 2.0120724346076457) // plan-hetero's binding point
	f.Add(4.833333333333334, 1.5128792418444381)
	f.Add(0.5, 2.5) // the series/continued-fraction switch
	f.Add(1e-12, 5.0)
	f.Add(0.5, 1e6)
	f.Fuzz(func(t *testing.T, x, rho float64) {
		if x < 0 || rho < 0 || math.IsNaN(x) || math.IsNaN(rho) || math.IsInf(x, 0) || math.IsInf(rho, 0) {
			if _, err := BContinuous(x, rho); !errors.Is(err, ErrInvalidInput) {
				t.Fatalf("BContinuous(%g, %g) accepted: %v", x, rho, err)
			}
			return
		}
		if x > 1e5 { // the upward recursion is O(x)
			return
		}
		b, err := BContinuous(x, rho)
		if err != nil || !(b >= 0 && b <= 1) {
			t.Fatalf("BContinuous(%.17g, %.17g) = %g, %v; want a probability", x, rho, b, err)
		}
		if b2, err := BContinuous(x+0.5, rho); err != nil || b2 > b+1e-12 {
			t.Fatalf("BContinuous(%.17g, %.17g) = %g, %v; above B(x) = %g", x+0.5, rho, b2, err, b)
		}
		if x < 1 && rho >= 1e-6 && rho <= 1e6 {
			if want := quadratureB(x, rho); relErr(b, want) > 1e-12 {
				t.Fatalf("BContinuous(%.17g, %.17g) = %.17g, quadrature %.17g", x, rho, b, want)
			}
		}
	})
}

// BenchmarkBContinuous times one call on each side of the kernel's branch
// switch: plan-hetero's binding point (series) and a heavy fractional pool
// (continued fraction plus 42 recursion steps).
func BenchmarkBContinuous(b *testing.B) {
	for _, c := range []struct {
		name   string
		x, rho float64
	}{
		{"series", 4.833333333333334, 2.0120724346076457},
		{"contfrac", 42.7, 38.5},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, _ = BContinuous(c.x, c.rho)
			}
		})
	}
}
