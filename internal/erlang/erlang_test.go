package erlang

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

// Classic textbook values for Erlang B (Gross & Harris / standard traffic
// tables), to four significant figures.
func TestBKnownValues(t *testing.T) {
	cases := []struct {
		n    int
		rho  float64
		want float64
	}{
		{1, 1, 0.5},
		{2, 1, 0.2},
		{3, 1, 1.0 / 16.0},
		{5, 3, 0.1101},
		{10, 5, 0.01838},
		{10, 9, 0.1680},
		{20, 12, 0.009796}, // verified with exact rational arithmetic
		{100, 90, 0.026957},
	}
	for _, c := range cases {
		got, err := B(c.n, c.rho)
		if err != nil {
			t.Fatalf("B(%d, %g): %v", c.n, c.rho, err)
		}
		if math.Abs(got-c.want)/c.want > 5e-4 {
			t.Errorf("B(%d, %g) = %.6f, want %.6f", c.n, c.rho, got, c.want)
		}
	}
}

func TestBEdgeCases(t *testing.T) {
	if b, _ := B(0, 2); b != 1 {
		t.Fatalf("B(0, 2) = %g, want 1", b)
	}
	if b, _ := B(0, 0); b != 1 {
		t.Fatalf("B(0, 0) = %g, want 1", b)
	}
	if b, _ := B(3, 0); b != 0 {
		t.Fatalf("B(3, 0) = %g, want 0", b)
	}
	// The recursion underflows to 0 a few hundred steps in and stops
	// there; a billion-server pool must not cost a billion steps.
	if b, err := B(1_000_000_000, 5); err != nil || b != 0 {
		t.Fatalf("B(1e9, 5) = %g, %v; want 0", b, err)
	}
}

func TestBInvalidInputs(t *testing.T) {
	for _, c := range []struct {
		n   int
		rho float64
	}{{-1, 1}, {1, -1}, {1, math.NaN()}, {1, math.Inf(1)}} {
		if _, err := B(c.n, c.rho); !errors.Is(err, ErrInvalidInput) {
			t.Errorf("B(%d, %g) should fail", c.n, c.rho)
		}
	}
}

func TestMustBPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustB(-1, 1) did not panic")
		}
	}()
	MustB(-1, 1)
}

func TestBMatchesClosedForm(t *testing.T) {
	for _, n := range []int{1, 2, 5, 10, 50, 170, 500} {
		for _, rho := range []float64{0.1, 1, 5, 25, 100, 400} {
			rec, err := B(n, rho)
			if err != nil {
				t.Fatal(err)
			}
			cf := bClosedForm(n, rho)
			if math.Abs(rec-cf) > 1e-10*(1+cf) {
				t.Errorf("B(%d, %g): recursion %.12g vs closed form %.12g", n, rho, rec, cf)
			}
		}
	}
}

// bClosedForm computes Erlang B by the textbook closed form of Eq. (1),
//
//	B = (ρⁿ/n!) / Σ_{k=0..n} ρᵏ/k!
//
// evaluated in log space to avoid overflow: an oracle independent of the
// recursion. It takes n >= 0 and rho > 0.
func bClosedForm(n int, rho float64) float64 {
	logRho := math.Log(rho)
	// log(ρᵏ/k!) for k = 0..n; normalize by the max to avoid overflow when
	// exponentiating.
	logTerms := make([]float64, n+1)
	maxLog := math.Inf(-1)
	for k := 0; k <= n; k++ {
		logTerms[k] = float64(k)*logRho - logGamma(float64(k)+1)
		if logTerms[k] > maxLog {
			maxLog = logTerms[k]
		}
	}
	sum := 0.0
	for k := 0; k <= n; k++ {
		sum += math.Exp(logTerms[k] - maxLog)
	}
	return math.Exp(logTerms[n]-maxLog) / sum
}

func TestBLargeScaleStability(t *testing.T) {
	// The recursion must stay finite and in (0, 1) far beyond where the
	// naive factorial form overflows (n! overflows float64 at n = 171).
	b, err := B(10000, 9800)
	if err != nil {
		t.Fatal(err)
	}
	if b <= 0 || b >= 1 || math.IsNaN(b) {
		t.Fatalf("B(10000, 9800) = %g", b)
	}
}

// Property: B ∈ [0, 1], decreasing in n, increasing in ρ.
func TestBProperties(t *testing.T) {
	f := func(nRaw uint8, rhoRaw uint16) bool {
		n := int(nRaw)%200 + 1
		rho := float64(rhoRaw)/100 + 0.01
		b0, err := B(n, rho)
		if err != nil || b0 < 0 || b0 > 1 {
			return false
		}
		b1, err := B(n+1, rho)
		if err != nil || b1 > b0 {
			return false // adding a server cannot increase blocking
		}
		b2, err := B(n, rho*1.1)
		if err != nil || b2 < b0 {
			return false // more traffic cannot decrease blocking
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestServers(t *testing.T) {
	cases := []struct {
		rho    float64
		target float64
		want   int
	}{
		{0, 0.01, 0},
		{1, 0.5, 1},
		{1, 0.2, 2},
		{1, 0.0625, 3},
		{5, 0.02, 10}, // B(10,5)=0.0184<=0.02, B(9,5)=0.0375>0.02
		{5, 1, 0},
		{1e6, 1 - 0x1p-53, 1}, // B(1, 1e6) = 1e6/(1e6+1)
		{1e6, 0.01, 990099},   // past the memo's prefix cap
	}
	m := NewMemo(0, 0)
	for _, c := range cases {
		got, err := Servers(c.rho, c.target, 0)
		if err != nil {
			t.Fatalf("Servers(%g, %g): %v", c.rho, c.target, err)
		}
		if got != c.want {
			t.Errorf("Servers(%g, %g) = %d, want %d", c.rho, c.target, got, c.want)
		}
		if got, err := m.Servers(c.rho, c.target); err != nil || got != c.want {
			t.Errorf("Memo.Servers(%g, %g) = %d, %v; want %d", c.rho, c.target, got, err, c.want)
		}
	}
}

func TestServersIsMinimal(t *testing.T) {
	// Property: the returned n satisfies the target and n-1 does not.
	f := func(rhoRaw uint16, tRaw uint8) bool {
		rho := float64(rhoRaw)/50 + 0.05
		target := (float64(tRaw)/256)*0.4 + 0.001
		n, err := Servers(rho, target, 0)
		if err != nil {
			return false
		}
		bn, _ := B(n, rho)
		if bn > target {
			return false
		}
		if n > 0 {
			prev, _ := B(n-1, rho)
			if prev <= target {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestServersInvalid(t *testing.T) {
	if _, err := Servers(-1, 0.1, 0); !errors.Is(err, ErrInvalidInput) {
		t.Fatal("negative traffic should fail")
	}
	if _, err := Servers(1, 0, 0); !errors.Is(err, ErrInvalidInput) {
		t.Fatal("zero target should fail")
	}
	if _, err := Servers(1, 1.5, 0); !errors.Is(err, ErrInvalidInput) {
		t.Fatal("target > 1 should fail")
	}
}

func TestServersCap(t *testing.T) {
	if _, err := Servers(1e6, 1e-9, 10); err == nil {
		t.Fatal("cap should trigger")
	}
}

func TestTrafficRoundTrip(t *testing.T) {
	for _, n := range []int{1, 3, 4, 8, 50} {
		for _, target := range []float64{0.01, 0.02, 0.05, 0.2} {
			rho, err := Traffic(n, target)
			if err != nil {
				t.Fatalf("Traffic(%d, %g): %v", n, target, err)
			}
			// At the admissible traffic, exactly n servers are needed.
			b, _ := B(n, rho)
			if b > target+1e-9 {
				t.Errorf("Traffic(%d, %g) = %g but B = %g exceeds target", n, target, rho, b)
			}
			// Offering 1 % more traffic should violate the target (tightness).
			b2, _ := B(n, rho*1.01)
			if b2 <= target {
				t.Errorf("Traffic(%d, %g) = %g is not tight (B at 1.01rho = %g)", n, target, rho, b2)
			}
		}
	}
}

func TestTrafficInvalid(t *testing.T) {
	if _, err := Traffic(0, 0.1); !errors.Is(err, ErrInvalidInput) {
		t.Fatal("zero servers should fail")
	}
	if _, err := Traffic(3, 0); !errors.Is(err, ErrInvalidInput) {
		t.Fatal("zero target should fail")
	}
	if _, err := Traffic(3, 1); !errors.Is(err, ErrInvalidInput) {
		t.Fatal("target=1 should fail")
	}
}

func TestErlangCKnownValues(t *testing.T) {
	// M/M/2 with rho=1: C = 1/3 (standard result).
	c, err := C(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(c-1.0/3.0) > 1e-12 {
		t.Fatalf("C(2, 1) = %g, want 1/3", c)
	}
	// Unstable system: everyone waits.
	c, _ = C(2, 3)
	if c != 1 {
		t.Fatalf("C(2, 3) = %g, want 1", c)
	}
}

func TestErlangCBoundsB(t *testing.T) {
	// C >= B always (waiting is more likely than loss at same load).
	for _, n := range []int{1, 2, 5, 20} {
		for _, rho := range []float64{0.1, 0.5 * float64(n), 0.9 * float64(n)} {
			b, _ := B(n, rho)
			c, _ := C(n, rho)
			if c < b-1e-12 {
				t.Errorf("C(%d,%g)=%g < B=%g", n, rho, c, b)
			}
		}
	}
}

func TestCarriedTrafficAndUtilization(t *testing.T) {
	n, rho := 5, 3.0
	b, _ := B(n, rho)
	carried, err := CarriedTraffic(n, rho)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(carried-rho*(1-b)) > 1e-12 {
		t.Fatal("carried traffic identity broken")
	}
	u, err := Utilization(n, rho)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(u-carried/float64(n)) > 1e-12 {
		t.Fatal("utilization identity broken")
	}
	if u0, _ := Utilization(0, 1); u0 != 0 {
		t.Fatal("Utilization(0, rho) should be 0")
	}
}

func TestUtilizationBounded(t *testing.T) {
	// Property: utilization is in [0, 1) even under overload.
	f := func(nRaw uint8, rhoRaw uint16) bool {
		n := int(nRaw)%50 + 1
		rho := float64(rhoRaw) / 10
		u, err := Utilization(n, rho)
		return err == nil && u >= 0 && u < 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestStateDistribution(t *testing.T) {
	pi, err := StateDistribution(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Truncated Poisson with rho=1: proportional to 1, 1, 1/2, 1/6.
	denom := 1 + 1 + 0.5 + 1.0/6
	want := []float64{1 / denom, 1 / denom, 0.5 / denom, (1.0 / 6) / denom}
	for k := range want {
		if math.Abs(pi[k]-want[k]) > 1e-12 {
			t.Fatalf("pi = %v, want %v", pi, want)
		}
	}
	// The last state's probability equals Erlang B.
	b, _ := B(3, 1)
	if math.Abs(pi[3]-b) > 1e-12 {
		t.Fatal("pi[n] != B")
	}
}

func TestStateDistributionSumsToOne(t *testing.T) {
	f := func(nRaw uint8, rhoRaw uint16) bool {
		n := int(nRaw) % 300
		rho := float64(rhoRaw) / 37
		pi, err := StateDistribution(n, rho)
		if err != nil {
			return false
		}
		sum := 0.0
		for _, p := range pi {
			if p < 0 {
				return false
			}
			sum += p
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestStateDistributionZeroTraffic(t *testing.T) {
	pi, err := StateDistribution(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if pi[0] != 1 {
		t.Fatalf("pi = %v", pi)
	}
}

func BenchmarkErlangBRecursion(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, _ = B(1000, 950)
	}
}

func BenchmarkErlangServers(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, _ = Servers(950, 0.01, 0)
	}
}

// serversLinearScan is the pre-optimization implementation of Servers — a
// plain scan checking every n from 1 — kept as the oracle for the seeded
// search.
func serversLinearScan(rho, target float64, maxServers int) (int, bool) {
	if rho == 0 {
		return 0, true
	}
	b := 1.0
	if b <= target {
		return 0, true
	}
	for n := 1; n <= maxServers; n++ {
		b = rho * b / (float64(n) + rho*b)
		if b <= target {
			return n, true
		}
	}
	return 0, false
}

// TestServersMatchesLinearScan cross-checks the seeded search against the
// plain scan over a grid spanning tiny to large traffic and loose to tight
// targets — the two must agree exactly, including on cap overflows.
func TestServersMatchesLinearScan(t *testing.T) {
	rhos := []float64{0.01, 0.1, 0.5, 1, 1.52, 2, 5, 9.9, 37.5, 100, 317.2, 1000, 12345.6}
	targets := []float64{1e-6, 1e-3, 0.01, 0.02, 0.05, 0.1, 0.3, 0.5, 0.9, 0.999, 1}
	const cap = 100_000
	for _, rho := range rhos {
		for _, target := range targets {
			want, ok := serversLinearScan(rho, target, cap)
			got, err := Servers(rho, target, cap)
			if ok != (err == nil) {
				t.Fatalf("Servers(%g, %g): err=%v, scan ok=%v", rho, target, err, ok)
			}
			if ok && got != want {
				t.Errorf("Servers(%g, %g) = %d, linear scan %d", rho, target, got, want)
			}
		}
	}
	// Degenerate caps: the seeded search must still respect tiny caps that
	// sit inside the skipped range.
	for _, cap := range []int{1, 2, 10} {
		want, ok := serversLinearScan(1000, 0.01, cap)
		got, err := Servers(1000, 0.01, cap)
		if ok != (err == nil) || (ok && got != want) {
			t.Errorf("cap %d: got (%d, %v), scan (%d, %v)", cap, got, err, want, ok)
		}
	}
}
