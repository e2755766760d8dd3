package stats

import (
	"math"
	"testing"
)

func TestMeanVarianceBasic(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Fatalf("Mean = %g", got)
	}
	if got := Variance(xs); math.Abs(got-32.0/7.0) > 1e-12 {
		t.Fatalf("Variance = %g", got)
	}
}

func TestEmptyAndSmallInputs(t *testing.T) {
	if !math.IsNaN(Mean(nil)) {
		t.Fatal("Mean(nil) should be NaN")
	}
	if !math.IsNaN(Variance([]float64{1})) {
		t.Fatal("Variance of one point should be NaN")
	}
	if !math.IsInf(Max(nil), -1) {
		t.Fatal("Max of empty input wrong")
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Fatal("Quantile(nil) should be NaN")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{3, 1, 2, 4, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {1, 5}, {0.5, 3}, {0.25, 2}, {0.75, 4}, {-1, 1}, {2, 5},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); got != c.want {
			t.Errorf("Quantile(%g) = %g, want %g", c.q, got, c.want)
		}
	}
	// Interpolation between order statistics.
	if got := Quantile([]float64{0, 10}, 0.5); got != 5 {
		t.Errorf("interpolated median = %g", got)
	}
}

func TestAccumulatorMatchesBatch(t *testing.T) {
	s := NewStream(77, "acc")
	xs := make([]float64, 0, 5000)
	var acc Accumulator
	for i := 0; i < 5000; i++ {
		x := s.NormFloat64()*3 + 10
		xs = append(xs, x)
		acc.Add(x)
	}
	if rel := RelativeError(acc.Mean(), Mean(xs)); rel > 1e-12 {
		t.Fatalf("accumulator mean mismatch: %g vs %g", acc.Mean(), Mean(xs))
	}
	if rel := RelativeError(acc.Variance(), Variance(xs)); rel > 1e-9 {
		t.Fatalf("accumulator variance mismatch: %g vs %g", acc.Variance(), Variance(xs))
	}
	if acc.Max() != Max(xs) {
		t.Fatal("accumulator max mismatch")
	}
	if acc.n != 5000 {
		t.Fatalf("n = %d", acc.n)
	}
}

func TestAccumulatorEmpty(t *testing.T) {
	var a Accumulator
	if !math.IsNaN(a.Mean()) || !math.IsNaN(a.Max()) {
		t.Fatal("empty accumulator should report NaN")
	}
}

func TestMeanCICoverage(t *testing.T) {
	// 95 % CI should contain the true mean roughly 95 % of the time.
	s := NewStream(31, "ci")
	hits := 0
	const trials = 400
	for tr := 0; tr < trials; tr++ {
		var acc Accumulator
		for i := 0; i < 50; i++ {
			acc.Add(s.NormFloat64()*2 + 7)
		}
		if ci := acc.MeanCI(0.95); ci.Lo <= 7 && 7 <= ci.Hi {
			hits++
		}
	}
	cov := float64(hits) / trials
	if cov < 0.90 || cov > 0.99 {
		t.Fatalf("95%% CI coverage = %.3f", cov)
	}
}

func TestMeanCIDegenerate(t *testing.T) {
	var a Accumulator
	a.Add(1)
	ci := a.MeanCI(0.95)
	if !math.IsInf(ci.Lo, -1) || !math.IsInf(ci.Hi, 1) {
		t.Fatal("single-point CI should be infinite")
	}
}

func TestProportionCI(t *testing.T) {
	ci := ProportionCI(50, 1000, 0.95)
	if math.Abs(ci.Point-0.05) > 1e-12 {
		t.Fatalf("point = %g", ci.Point)
	}
	if ci.Lo < 0 || ci.Hi > 1 || ci.Lo >= ci.Hi {
		t.Fatalf("bad interval %+v", ci)
	}
	if !(ci.Lo <= 0.05 && 0.05 <= ci.Hi) {
		t.Fatal("CI must contain its point estimate")
	}
	empty := ProportionCI(0, 0, 0.95)
	if !math.IsNaN(empty.Point) {
		t.Fatal("empty proportion should be NaN")
	}
	// Extremes clamp.
	full := ProportionCI(10, 10, 0.95)
	if full.Hi > 1 {
		t.Fatal("CI exceeded 1")
	}
}

func TestCIHalfWidth(t *testing.T) {
	ci := CI{Point: 5, Lo: 4, Hi: 6, Confidence: 0.95}
	if ci.HalfWidth() != 1 {
		t.Fatalf("half width = %g", ci.HalfWidth())
	}
	if ci.String() == "" {
		t.Fatal("empty CI string")
	}
}

func TestTCriticalMonotone(t *testing.T) {
	// t critical values shrink with df and grow with confidence.
	if tCritical(0.95, 1) <= tCritical(0.95, 10) {
		t.Fatal("t should shrink with df")
	}
	if tCritical(0.99, 10) <= tCritical(0.95, 10) {
		t.Fatal("t should grow with confidence")
	}
	if tCritical(0.95, 10_000) != zCritical(0.95) {
		t.Fatal("large df should hit normal limit")
	}
	// Unknown confidence falls back to 95 %.
	if tCritical(0.5, 10) != tCritical(0.95, 10) {
		t.Fatal("fallback confidence broken")
	}
}

func TestRelativeError(t *testing.T) {
	if RelativeError(11, 10) != 0.1 {
		t.Fatal("basic relative error")
	}
	if RelativeError(0.5, 0) != 0.5 {
		t.Fatal("zero-want convention")
	}
}

func TestAutocorrelation(t *testing.T) {
	// A perfectly alternating series has lag-1 autocorrelation ~ -1.
	alt := make([]float64, 1000)
	for i := range alt {
		alt[i] = float64(i % 2)
	}
	if ac := Autocorrelation(alt, 1); ac > -0.99 {
		t.Fatalf("alternating lag-1 ac = %g", ac)
	}
	// IID noise has near-zero autocorrelation at any lag.
	s := NewStream(3, "ac")
	iid := make([]float64, 20000)
	for i := range iid {
		iid[i] = s.NormFloat64()
	}
	for _, lag := range []int{1, 5, 20} {
		if ac := Autocorrelation(iid, lag); math.Abs(ac) > 0.03 {
			t.Fatalf("iid lag-%d ac = %g", lag, ac)
		}
	}
	// A slowly drifting series is positively correlated.
	drift := make([]float64, 1000)
	v := 0.0
	for i := range drift {
		v += s.NormFloat64() * 0.1
		drift[i] = v
	}
	if ac := Autocorrelation(drift, 1); ac < 0.9 {
		t.Fatalf("random-walk lag-1 ac = %g", ac)
	}
	// Degenerate inputs.
	if !math.IsNaN(Autocorrelation([]float64{1, 2}, 5)) {
		t.Fatal("short series should be NaN")
	}
	if !math.IsNaN(Autocorrelation([]float64{3, 3, 3, 3}, 1)) {
		t.Fatal("constant series should be NaN")
	}
	if !math.IsNaN(Autocorrelation(nil, -1)) {
		t.Fatal("negative lag should be NaN")
	}
}
