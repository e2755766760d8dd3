package stats

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestLinearRegressionExact(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 1.082 - 0.012*x // the paper's Fig. 5(b) fit
	}
	fit, err := LinearRegression(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Slope+0.012) > 1e-12 || math.Abs(fit.Intercept-1.082) > 1e-12 {
		t.Fatalf("fit = %+v", fit)
	}
	if fit.R2 < 1-1e-12 {
		t.Fatalf("R2 = %g on exact data", fit.R2)
	}
	if fit.At(6) != 1.082-0.012*6 {
		t.Fatal("At() wrong")
	}
	if fit.String() == "" {
		t.Fatal("empty fit string")
	}
}

func TestLinearRegressionNoisy(t *testing.T) {
	s := NewStream(8, "noise")
	var xs, ys []float64
	for i := 0; i < 500; i++ {
		x := float64(i) / 10
		xs = append(xs, x)
		ys = append(ys, 2+3*x+s.NormFloat64()*0.5)
	}
	fit, err := LinearRegression(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Slope-3) > 0.05 || math.Abs(fit.Intercept-2) > 0.5 {
		t.Fatalf("noisy fit = %+v", fit)
	}
	if fit.R2 < 0.99 {
		t.Fatalf("R2 = %g", fit.R2)
	}
}

func TestLinearRegressionErrors(t *testing.T) {
	if _, err := LinearRegression([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("length mismatch not reported")
	}
	if _, err := LinearRegression([]float64{1}, []float64{1}); !errors.Is(err, ErrDegenerate) {
		t.Fatal("single point should be degenerate")
	}
	if _, err := LinearRegression([]float64{2, 2, 2}, []float64{1, 2, 3}); !errors.Is(err, ErrDegenerate) {
		t.Fatal("constant x should be degenerate")
	}
}

func TestPolynomialRegressionExact(t *testing.T) {
	xs := []float64{-2, -1, 0, 1, 2, 3}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 1 - 2*x + 0.5*x*x
	}
	fit, err := PolynomialRegression(xs, ys, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, -2, 0.5}
	for k, c := range want {
		if math.Abs(fit.Coeffs[k]-c) > 1e-9 {
			t.Fatalf("coeff %d = %g, want %g", k, fit.Coeffs[k], c)
		}
	}
	if fit.R2 < 1-1e-9 {
		t.Fatalf("R2 = %g", fit.R2)
	}
	if math.Abs(fit.At(4)-(1-8+8)) > 1e-9 {
		t.Fatal("Horner evaluation wrong")
	}
}

func TestPolynomialRegressionDegreeZero(t *testing.T) {
	fit, err := PolynomialRegression([]float64{1, 2, 3}, []float64{5, 5, 5}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Coeffs[0]-5) > 1e-12 {
		t.Fatalf("constant fit = %v", fit.Coeffs)
	}
}

func TestPolynomialRegressionErrors(t *testing.T) {
	if _, err := PolynomialRegression([]float64{1, 2}, []float64{1, 2}, 2); !errors.Is(err, ErrDegenerate) {
		t.Fatal("underdetermined fit should fail")
	}
	if _, err := PolynomialRegression([]float64{1}, []float64{1, 2}, 1); err == nil {
		t.Fatal("length mismatch not reported")
	}
}

func TestSolveLinearSystem(t *testing.T) {
	a := [][]float64{{2, 1, -1}, {-3, -1, 2}, {-2, 1, 2}}
	b := []float64{8, -11, -3}
	x, err := SolveLinearSystem(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 3, -1}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-9 {
			t.Fatalf("x = %v, want %v", x, want)
		}
	}
}

func TestSolveLinearSystemSingular(t *testing.T) {
	a := [][]float64{{1, 2}, {2, 4}}
	if _, err := SolveLinearSystem(a, []float64{1, 2}); !errors.Is(err, ErrDegenerate) {
		t.Fatal("singular system should fail")
	}
	if _, err := SolveLinearSystem(nil, nil); !errors.Is(err, ErrDegenerate) {
		t.Fatal("empty system should fail")
	}
	if _, err := SolveLinearSystem([][]float64{{1}}, []float64{1, 2}); !errors.Is(err, ErrDegenerate) {
		t.Fatal("shape mismatch should fail")
	}
}

func TestSolveLinearSystemPropertyRoundTrip(t *testing.T) {
	// Property: for random diagonally dominant systems, A·x ≈ b.
	s := NewStream(17, "linsys")
	f := func(seed uint16) bool {
		n := 1 + int(seed)%6
		a := make([][]float64, n)
		b := make([]float64, n)
		for i := range a {
			a[i] = make([]float64, n)
			rowSum := 0.0
			for j := range a[i] {
				a[i][j] = s.Float64()*2 - 1
				rowSum += math.Abs(a[i][j])
			}
			a[i][i] += rowSum + 1 // ensure dominance
			b[i] = s.Float64() * 10
		}
		x, err := SolveLinearSystem(a, b)
		if err != nil {
			return false
		}
		for i := range a {
			dot := 0.0
			for j := range a[i] {
				dot += a[i][j] * x[j]
			}
			if math.Abs(dot-b[i]) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestFitRationalSaturatingExact(t *testing.T) {
	vs := []float64{1, 2, 3, 4, 5, 6}
	ys := make([]float64, len(vs))
	for i, v := range vs {
		ys[i] = 1.85 * v * v / (1 + v*v) // the paper's Fig. 8(b) form
	}
	fit, err := FitRationalSaturating(vs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.C-1.85) > 1e-9 {
		t.Fatalf("C = %g", fit.C)
	}
	if fit.R2 < 1-1e-9 {
		t.Fatalf("R2 = %g", fit.R2)
	}
	if fit.String() == "" {
		t.Fatal("empty string")
	}
}

func TestFitRationalSaturatingErrors(t *testing.T) {
	if _, err := FitRationalSaturating(nil, nil); !errors.Is(err, ErrDegenerate) {
		t.Fatal("empty input should fail")
	}
	if _, err := FitRationalSaturating([]float64{1}, []float64{1, 2}); !errors.Is(err, ErrDegenerate) {
		t.Fatal("mismatched input should fail")
	}
	if _, err := FitRationalSaturating([]float64{0}, []float64{1}); !errors.Is(err, ErrDegenerate) {
		t.Fatal("all-zero weights should fail")
	}
}

func TestLinearVsPolynomialAgreement(t *testing.T) {
	// Degree-1 polynomial regression must agree with LinearRegression.
	xs := []float64{0, 1, 2, 3, 4, 7, 9}
	ys := []float64{1, 2.9, 5.2, 7.1, 8.8, 15.3, 19.1}
	lin, err := LinearRegression(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	poly, err := PolynomialRegression(xs, ys, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lin.Intercept-poly.Coeffs[0]) > 1e-9 || math.Abs(lin.Slope-poly.Coeffs[1]) > 1e-9 {
		t.Fatalf("lin %+v vs poly %v", lin, poly.Coeffs)
	}
}

// The polynomial fit below is an independent solve of the normal equations:
// TestLinearVsPolynomialAgreement checks LinearRegression against it.

// PolyFit is a polynomial fit y ≈ Σ Coeffs[k]·x^k.
type PolyFit struct {
	Coeffs []float64 // ascending degree
	R2     float64
	N      int
}

// At evaluates the polynomial at x by Horner's rule.
func (p PolyFit) At(x float64) float64 {
	v := 0.0
	for k := len(p.Coeffs) - 1; k >= 0; k-- {
		v = v*x + p.Coeffs[k]
	}
	return v
}

func (p PolyFit) String() string {
	return fmt.Sprintf("poly(deg=%d, R2=%.4f, n=%d)", len(p.Coeffs)-1, p.R2, p.N)
}

// PolynomialRegression fits a degree-d polynomial by solving the normal
// equations with Gaussian elimination and partial pivoting. It requires
// len(xs) > d distinct points.
func PolynomialRegression(xs, ys []float64, degree int) (PolyFit, error) {
	if len(xs) != len(ys) {
		return PolyFit{}, fmt.Errorf("stats: x/y length mismatch %d vs %d", len(xs), len(ys))
	}
	if degree < 0 || len(xs) <= degree {
		return PolyFit{}, ErrDegenerate
	}
	m := degree + 1
	// Normal equations: (XᵀX)c = Xᵀy with X the Vandermonde matrix.
	ata := make([][]float64, m)
	atb := make([]float64, m)
	for i := range ata {
		ata[i] = make([]float64, m)
	}
	for k := range xs {
		pow := make([]float64, m)
		pow[0] = 1
		for j := 1; j < m; j++ {
			pow[j] = pow[j-1] * xs[k]
		}
		for i := 0; i < m; i++ {
			atb[i] += pow[i] * ys[k]
			for j := 0; j < m; j++ {
				ata[i][j] += pow[i] * pow[j]
			}
		}
	}
	coeffs, err := SolveLinearSystem(ata, atb)
	if err != nil {
		return PolyFit{}, err
	}
	fit := PolyFit{Coeffs: coeffs, N: len(xs)}
	my := Mean(ys)
	var ssTot, ssRes float64
	for k := range xs {
		d := ys[k] - my
		ssTot += d * d
		r := ys[k] - fit.At(xs[k])
		ssRes += r * r
	}
	if ssTot > 0 {
		fit.R2 = 1 - ssRes/ssTot
	} else {
		fit.R2 = 1
	}
	return fit, nil
}

// SolveLinearSystem solves A·x = b in place (A and b are copied) using
// Gaussian elimination with partial pivoting. A must be square and
// len(b) == len(A).
func SolveLinearSystem(a [][]float64, b []float64) ([]float64, error) {
	n := len(a)
	if n == 0 || len(b) != n {
		return nil, ErrDegenerate
	}
	// Copy.
	m := make([][]float64, n)
	for i := range m {
		if len(a[i]) != n {
			return nil, ErrDegenerate
		}
		m[i] = append([]float64(nil), a[i]...)
	}
	x := append([]float64(nil), b...)
	for col := 0; col < n; col++ {
		// Partial pivot.
		pivot := col
		for r := col + 1; r < n; r++ {
			if math.Abs(m[r][col]) > math.Abs(m[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(m[pivot][col]) < 1e-12 {
			return nil, ErrDegenerate
		}
		m[col], m[pivot] = m[pivot], m[col]
		x[col], x[pivot] = x[pivot], x[col]
		// Eliminate below.
		for r := col + 1; r < n; r++ {
			f := m[r][col] / m[col][col]
			if f == 0 {
				continue
			}
			for c := col; c < n; c++ {
				m[r][c] -= f * m[col][c]
			}
			x[r] -= f * x[col]
		}
	}
	// Back substitution.
	for col := n - 1; col >= 0; col-- {
		sum := x[col]
		for c := col + 1; c < n; c++ {
			sum -= m[col][c] * x[c]
		}
		x[col] = sum / m[col][col]
	}
	return x, nil
}
