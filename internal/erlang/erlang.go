// Package erlang implements the Erlang loss machinery the paper's utility
// analytic model is built on (Section III-A): the Erlang B loss formula
// computed by the numerically stable recursion of Eq. (2), its inverses over
// the number of servers and over the offered traffic, the Erlang C delay
// formula, and supporting quantities (carried traffic, per-server
// utilization).
//
// Throughout, traffic ρ = λ/μ is the offered load in Erlangs, n is the
// number of servers (the paper's "capability units"), and B is the loss
// (blocking) probability. By the PASTA property, the time-blocking
// probability p_n and the call-blocking probability B coincide for Poisson
// arrivals — the identity the paper states below Eq. (1).
package erlang

import (
	"errors"
	"fmt"
	"math"
)

// ErrInvalidInput reports out-of-domain arguments (negative traffic,
// negative server counts, probabilities outside (0,1), ...).
var ErrInvalidInput = errors.New("erlang: invalid input")

// B computes the Erlang B blocking probability for n servers offered ρ
// Erlangs of Poisson traffic, using the stable forward recursion
//
//	E₀(ρ) = 1,   Eₙ(ρ) = ρ·Eₙ₋₁(ρ) / (n + ρ·Eₙ₋₁(ρ))
//
// which is Eq. (2) of the paper. The recursion avoids the factorial
// overflow of the closed form (Eq. 1) and is exact in exact arithmetic.
// Once Eₖ underflows to 0 every later step keeps it 0, so the loop stops
// there: B(10⁹, 5) costs a few hundred steps, not 10⁹.
// B returns an error if ρ < 0 or n < 0. By convention B(0, ρ) = 1 for
// ρ > 0 (no servers lose everything) and B(n, 0) = 0 for n > 0.
func B(n int, rho float64) (float64, error) {
	if n < 0 || rho < 0 || math.IsNaN(rho) || math.IsInf(rho, 0) {
		return 0, fmt.Errorf("%w: B(n=%d, rho=%g)", ErrInvalidInput, n, rho)
	}
	if rho == 0 {
		if n == 0 {
			return 1, nil
		}
		return 0, nil
	}
	b := 1.0
	for k := 1; k <= n && b != 0; k++ {
		b = rho * b / (float64(k) + rho*b)
	}
	return b, nil
}

// MustB is B for inputs known to be valid; it panics on error. It exists
// for table literals and tests.
func MustB(n int, rho float64) float64 {
	b, err := B(n, rho)
	if err != nil {
		panic(err)
	}
	return b
}

func logGamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}

// Servers returns the smallest number of servers n such that
// B(n, rho) <= target — the iterative sizing step in the paper's Fig. 4
// ("when Eₙ(ρ) <= B is satisfied firstly, n is the result"). The target
// loss probability must lie in (0, 1]. maxServers caps the search to keep
// pathological inputs (target → 0 with huge ρ) bounded; pass 0 for the
// default cap of 10 million.
func Servers(rho, target float64, maxServers int) (int, error) {
	if rho < 0 || math.IsNaN(rho) || math.IsInf(rho, 0) {
		return 0, fmt.Errorf("%w: Servers(rho=%g)", ErrInvalidInput, rho)
	}
	if target <= 0 || target > 1 || math.IsNaN(target) {
		return 0, fmt.Errorf("%w: Servers(target=%g)", ErrInvalidInput, target)
	}
	if maxServers <= 0 {
		maxServers = 10_000_000
	}
	if rho == 0 {
		return 0, nil
	}
	b := 1.0
	if b <= target {
		return 0, nil
	}
	// Carried traffic cannot exceed the server count, so B(n, ρ) ≥ 1 − n/ρ:
	// every n below ρ(1 − target) is guaranteed to fail the test. Seed the
	// search there, running the recursion branch-free up to that point
	// (shaved by two steps to absorb floating-point slack in the bound),
	// then continue stepping with the threshold check. Identical results to
	// the full scan — the recursion values are the same — without testing
	// the ~ρ server counts that cannot possibly qualify.
	skip := int(rho*(1-target)) - 2
	if skip > maxServers {
		skip = maxServers
	}
	n := 1
	for ; n <= skip; n++ {
		b = rho * b / (float64(n) + rho*b)
	}
	for ; n <= maxServers; n++ {
		b = rho * b / (float64(n) + rho*b)
		if b <= target {
			return n, nil
		}
	}
	return 0, fmt.Errorf("erlang: Servers(rho=%g, target=%g) exceeds cap %d", rho, target, maxServers)
}

// Traffic returns the largest offered traffic ρ such that B(n, ρ) <= target,
// i.e. the admissible-load inverse of Erlang B. It is the quantity behind
// the paper's workload-selection rule ("the intensive workload that the
// servers can afford", Section IV-C.2): the heaviest Poisson load n servers
// can carry at the given loss probability. n must be positive and target in
// (0, 1).
func Traffic(n int, target float64) (float64, error) {
	if n <= 0 {
		return 0, fmt.Errorf("%w: Traffic(n=%d)", ErrInvalidInput, n)
	}
	if target <= 0 || target >= 1 || math.IsNaN(target) {
		return 0, fmt.Errorf("%w: Traffic(target=%g)", ErrInvalidInput, target)
	}
	// B(n, ρ) is continuous and strictly increasing in ρ on (0, ∞) with
	// limits 0 and 1, so bisection on ρ converges. Bracket the root first.
	lo, hi := 0.0, float64(n)
	for {
		b, _ := B(n, hi)
		if b > target {
			break
		}
		lo = hi
		hi *= 2
		if hi > 1e12 {
			return 0, fmt.Errorf("erlang: Traffic(n=%d, target=%g) failed to bracket", n, target)
		}
	}
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		b, _ := B(n, mid)
		if b <= target {
			lo = mid
		} else {
			hi = mid
		}
		if hi-lo <= 1e-12*math.Max(1, hi) {
			break
		}
	}
	return lo, nil
}

// C computes the Erlang C probability that an arriving request must wait in
// an M/M/n queue with offered traffic ρ Erlangs. It requires ρ < n for
// stability (otherwise every request waits and C returns 1). Although the
// paper's model is a pure loss model, Erlang C is the natural companion for
// the response-time view of the cluster simulator.
func C(n int, rho float64) (float64, error) {
	if n <= 0 || rho < 0 || math.IsNaN(rho) || math.IsInf(rho, 0) {
		return 0, fmt.Errorf("%w: C(n=%d, rho=%g)", ErrInvalidInput, n, rho)
	}
	if rho >= float64(n) {
		return 1, nil
	}
	b, err := B(n, rho)
	if err != nil {
		return 0, err
	}
	// Standard identity: C = n·B / (n - ρ(1-B)).
	return float64(n) * b / (float64(n) - rho*(1-b)), nil
}

// CarriedTraffic reports the traffic actually carried by n servers offered
// ρ Erlangs: ρ·(1 − B(n, ρ)).
func CarriedTraffic(n int, rho float64) (float64, error) {
	b, err := B(n, rho)
	if err != nil {
		return 0, err
	}
	return rho * (1 - b), nil
}

// Utilization reports the mean per-server utilization of n servers offered
// ρ Erlangs: carried traffic divided by n. Utilization(0, ρ) is 0 by
// convention.
func Utilization(n int, rho float64) (float64, error) {
	if n == 0 {
		return 0, nil
	}
	c, err := CarriedTraffic(n, rho)
	if err != nil {
		return 0, err
	}
	return c / float64(n), nil
}

// StateDistribution returns the stationary distribution π₀..πₙ of the
// number of busy servers in an M/G/n/n loss system offered ρ Erlangs —
// the truncated-Poisson form underlying Eq. (1). The Erlang insensitivity
// theorem makes this valid for any service-time distribution with the same
// mean, which the simulation test suite verifies empirically.
func StateDistribution(n int, rho float64) ([]float64, error) {
	if n < 0 || rho < 0 || math.IsNaN(rho) || math.IsInf(rho, 0) {
		return nil, fmt.Errorf("%w: StateDistribution(n=%d, rho=%g)", ErrInvalidInput, n, rho)
	}
	pi := make([]float64, n+1)
	// Compute ρᵏ/k! relative to the largest term for stability.
	logRho := math.Log(rho)
	if rho == 0 {
		pi[0] = 1
		return pi, nil
	}
	maxLog := math.Inf(-1)
	logs := make([]float64, n+1)
	for k := 0; k <= n; k++ {
		logs[k] = float64(k)*logRho - logGamma(float64(k)+1)
		if logs[k] > maxLog {
			maxLog = logs[k]
		}
	}
	sum := 0.0
	for k := 0; k <= n; k++ {
		pi[k] = math.Exp(logs[k] - maxLog)
		sum += pi[k]
	}
	for k := 0; k <= n; k++ {
		pi[k] /= sum
	}
	return pi, nil
}
