package stats

import (
	"math"
	"sort"
	"testing"
)

func TestP2QuantileUniform(t *testing.T) {
	s := NewStream(1, "p2/uniform")
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99} {
		est := NewP2Quantile(q)
		for i := 0; i < 100000; i++ {
			est.Add(s.Float64())
		}
		if err := math.Abs(est.Value() - q); err > 0.01 {
			t.Errorf("uniform q=%g: estimate %.4f (err %.4f)", q, est.Value(), err)
		}
		if est.p != q {
			t.Fatal("quantile level lost")
		}
	}
}

func TestP2QuantileExponential(t *testing.T) {
	s := NewStream(2, "p2/exp")
	est := NewP2Quantile(0.95)
	for i := 0; i < 200000; i++ {
		est.Add(s.ExpFloat64())
	}
	want := -math.Log(0.05) // ≈ 2.996
	if RelativeError(est.Value(), want) > 0.03 {
		t.Fatalf("exp p95 = %.4f, want %.4f", est.Value(), want)
	}
}

func TestP2QuantileMatchesExactOnLargeSample(t *testing.T) {
	s := NewStream(3, "p2/cmp")
	est := NewP2Quantile(0.9)
	var xs []float64
	for i := 0; i < 50000; i++ {
		x := math.Exp(s.NormFloat64()) // lognormal: skewed
		est.Add(x)
		xs = append(xs, x)
	}
	sort.Float64s(xs)
	exact := quantileSorted(xs, 0.9)
	if RelativeError(est.Value(), exact) > 0.05 {
		t.Fatalf("p90 = %.4f vs exact %.4f", est.Value(), exact)
	}
	if est.n != 50000 {
		t.Fatalf("n = %d", est.n)
	}
}

func TestP2QuantileSmallSamples(t *testing.T) {
	est := NewP2Quantile(0.5)
	if !math.IsNaN(est.Value()) {
		t.Fatal("empty estimator should be NaN")
	}
	est.Add(3)
	if est.Value() != 3 {
		t.Fatalf("single value = %g", est.Value())
	}
	est.Add(1)
	est.Add(2)
	// Exact median of {1,2,3}.
	if est.Value() != 2 {
		t.Fatalf("median of 3 = %g", est.Value())
	}
}

func TestP2QuantileMonotoneInput(t *testing.T) {
	est := NewP2Quantile(0.5)
	for i := 1; i <= 1001; i++ {
		est.Add(float64(i))
	}
	// True median is 501.
	if RelativeError(est.Value(), 501) > 0.05 {
		t.Fatalf("median of 1..1001 = %g", est.Value())
	}
}

func TestP2QuantilePanicsOnBadLevel(t *testing.T) {
	for _, q := range []float64{0, 1, -0.5, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewP2Quantile(%v) did not panic", q)
				}
			}()
			NewP2Quantile(q)
		}()
	}
}

func BenchmarkP2QuantileAdd(b *testing.B) {
	s := NewStream(7, "p2/bench")
	est := NewP2Quantile(0.99)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		est.Add(s.Float64())
	}
}
