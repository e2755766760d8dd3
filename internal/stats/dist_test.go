package stats

import (
	"math"
	"testing"
	"testing/quick"
)

// checkMoments samples d and verifies mean (and, when finite, variance)
// against the analytic values.
func checkMoments(t *testing.T, d Distribution, n int, meanTol, varTol float64) {
	t.Helper()
	s := NewStream(123, "moments/"+d.String())
	var acc Accumulator
	for i := 0; i < n; i++ {
		x := d.Sample(s)
		if x < 0 {
			t.Fatalf("%s produced negative sample %g", d, x)
		}
		acc.Add(x)
	}
	if rel := RelativeError(acc.Mean(), d.Mean()); rel > meanTol {
		t.Errorf("%s: sample mean %.5g vs %.5g (rel %.4f)", d, acc.Mean(), d.Mean(), rel)
	}
	if v := d.Var(); !math.IsInf(v, 1) && varTol > 0 {
		if rel := RelativeError(acc.Variance(), v); rel > varTol {
			t.Errorf("%s: sample var %.5g vs %.5g (rel %.4f)", d, acc.Variance(), v, rel)
		}
	}
}

func TestExponentialMoments(t *testing.T) {
	checkMoments(t, NewExponential(2.5), 200000, 0.02, 0.05)
	checkMoments(t, NewExponential(0.01), 200000, 0.02, 0.05)
}

func TestExponentialPanicsOnBadRate(t *testing.T) {
	for _, rate := range []float64{0, -1, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewExponential(%v) did not panic", rate)
				}
			}()
			NewExponential(rate)
		}()
	}
}

func TestDeterministic(t *testing.T) {
	d := Deterministic{Value: 3.5}
	s := NewStream(1, "det")
	for i := 0; i < 10; i++ {
		if d.Sample(s) != 3.5 {
			t.Fatal("Deterministic varied")
		}
	}
	if d.Var() != 0 || d.Mean() != 3.5 {
		t.Fatal("Deterministic moments wrong")
	}
	if SCV(d) != 0 {
		t.Fatalf("SCV(Det) = %g", SCV(d))
	}
}

func TestUniformMoments(t *testing.T) {
	checkMoments(t, Uniform{Lo: 1, Hi: 5}, 200000, 0.01, 0.03)
}

func TestParetoMoments(t *testing.T) {
	p := ParetoWithMean(2.0, 3.0)
	if rel := RelativeError(p.Mean(), 2.0); rel > 1e-12 {
		t.Fatalf("ParetoWithMean mean = %g", p.Mean())
	}
	checkMoments(t, p, 400000, 0.03, 0) // variance finite but slow to converge
	if SCV(p) <= 0 {
		t.Fatal("Pareto SCV not positive")
	}
}

func TestParetoInfiniteMoments(t *testing.T) {
	if !math.IsInf(Pareto{Xm: 1, Alpha: 0.9}.Mean(), 1) {
		t.Fatal("alpha<=1 should have infinite mean")
	}
	if !math.IsInf(Pareto{Xm: 1, Alpha: 1.5}.Var(), 1) {
		t.Fatal("alpha<=2 should have infinite variance")
	}
}

func TestParetoWithMeanPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ParetoWithMean(1, 1) did not panic")
		}
	}()
	ParetoWithMean(1, 1)
}

func TestHyperExpMomentsAndSCV(t *testing.T) {
	for _, scv := range []float64{1, 2, 5, 10} {
		h := HyperExpWithSCV(4.0, scv)
		if rel := RelativeError(h.Mean(), 4.0); rel > 1e-9 {
			t.Fatalf("H2(scv=%g) mean = %g", scv, h.Mean())
		}
		if rel := RelativeError(SCV(h), scv); rel > 1e-9 {
			t.Fatalf("H2(scv=%g) SCV = %g", scv, SCV(h))
		}
		checkMoments(t, h, 300000, 0.03, 0.1)
	}
}

func TestHyperExpWithSCVPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("HyperExpWithSCV(1, 0.5) did not panic")
		}
	}()
	HyperExpWithSCV(1, 0.5)
}

func TestErlangKMomentsAndSCV(t *testing.T) {
	for _, k := range []int{1, 2, 4, 8} {
		e := ErlangKWithMean(3.0, k)
		if rel := RelativeError(e.Mean(), 3.0); rel > 1e-12 {
			t.Fatalf("Erlang(k=%d) mean = %g", k, e.Mean())
		}
		if rel := RelativeError(SCV(e), 1/float64(k)); rel > 1e-12 {
			t.Fatalf("Erlang(k=%d) SCV = %g", k, SCV(e))
		}
		checkMoments(t, e, 150000, 0.02, 0.05)
	}
}

func TestLogNormalMoments(t *testing.T) {
	checkMoments(t, LogNormal{Mu: 0.5, Sigma: 0.4}, 300000, 0.02, 0.08)
}

func TestScaled(t *testing.T) {
	base := NewExponential(1)
	sc := Scaled{D: base, Factor: 2}
	if sc.Mean() != 2 || sc.Var() != 4 {
		t.Fatalf("scaled moments mean=%g var=%g", sc.Mean(), sc.Var())
	}
	// Scaling must preserve SCV.
	if rel := RelativeError(SCV(sc), SCV(base)); rel > 1e-12 {
		t.Fatal("scaling changed SCV")
	}
}

func TestScaledSampleProperty(t *testing.T) {
	// Property: for deterministic base, Scaled sample == factor*value.
	if err := quick.Check(func(v, f uint8) bool {
		base := Deterministic{Value: float64(v)}
		sc := Scaled{D: base, Factor: float64(f)}
		s := NewStream(1, "q")
		return sc.Sample(s) == float64(v)*float64(f)
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSCVZeroMean(t *testing.T) {
	if !math.IsNaN(SCV(Deterministic{Value: 0})) {
		t.Fatal("SCV of zero-mean distribution should be NaN")
	}
}
