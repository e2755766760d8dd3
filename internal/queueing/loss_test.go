package queueing

import (
	"context"
	"math"
	"testing"

	"repro/internal/erlang"
	"repro/internal/replicate"
	"repro/internal/stats"
	"repro/internal/workload"
)

func mmnnConfig(n int, lambda, mu float64, seed uint64) Config {
	return Config{
		Servers:  n,
		Arrivals: workload.NewPoisson(lambda),
		Service:  stats.NewExponential(mu),
		Horizon:  4000,
		Warmup:   400,
		Seed:     seed,
	}
}

func TestValidate(t *testing.T) {
	good := mmnnConfig(2, 1, 1, 1)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []func(*Config){
		func(c *Config) { c.Servers = 0 },
		func(c *Config) { c.Arrivals = nil },
		func(c *Config) { c.Service = nil },
		func(c *Config) { c.Horizon = 0 },
		func(c *Config) { c.Horizon = math.Inf(1) },
		func(c *Config) { c.Warmup = -1 },
		func(c *Config) { c.Warmup = c.Horizon },
	}
	for i, mutate := range cases {
		c := mmnnConfig(2, 1, 1, 1)
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	if _, err := Simulate(Config{}); err == nil {
		t.Fatal("empty config simulated")
	}
}

// TestErlangBAgreementMMnn is the core PASTA check: an M/M/n/n simulation's
// request-loss probability must match the Erlang B formula.
func TestErlangBAgreementMMnn(t *testing.T) {
	cases := []struct {
		n      int
		lambda float64
		mu     float64
	}{
		{1, 0.8, 1},
		{3, 2.5, 1},
		{4, 1.52, 1}, // the case-study operating point (rho=1.52)
		{8, 10, 1},   // overload
	}
	for _, c := range cases {
		res, err := Simulate(mmnnConfig(c.n, c.lambda, c.mu, 42))
		if err != nil {
			t.Fatal(err)
		}
		want := erlang.MustB(c.n, c.lambda/c.mu)
		if ci := res.LossCI; !(ci.Lo <= want && want <= ci.Hi) && stats.RelativeError(res.LossProb, want) > 0.08 {
			t.Errorf("M/M/%d/%d at rho=%g: loss %s vs Erlang B %.4f",
				c.n, c.n, c.lambda/c.mu, res.LossCI, want)
		}
		// PASTA: time-blocking ≈ request-blocking.
		if math.Abs(res.TimeBlocked-res.LossProb) > 0.03 {
			t.Errorf("PASTA violated: p_n=%.4f B=%.4f", res.TimeBlocked, res.LossProb)
		}
		// Carried traffic ≈ rho(1-B).
		wantBusy := c.lambda / c.mu * (1 - want)
		if stats.RelativeError(res.MeanBusy, wantBusy) > 0.05 {
			t.Errorf("carried traffic %.3f, want %.3f", res.MeanBusy, wantBusy)
		}
	}
}

// TestInsensitivity verifies the Erlang insensitivity theorem the model
// leans on ("the serving rate ... follows a general steady distribution"):
// deterministic, hyperexponential and Erlang-k service all reproduce
// Erlang B at equal means.
func TestInsensitivity(t *testing.T) {
	const n, rho = 3, 2.0
	want := erlang.MustB(n, rho)
	services := []stats.Distribution{
		stats.Deterministic{Value: 1 / 1.0},
		stats.HyperExpWithSCV(1.0, 4),
		stats.ErlangKWithMean(1.0, 4),
		stats.LogNormal{Mu: -0.5, Sigma: 1}, // mean e^0 = 1
	}
	for _, svc := range services {
		cfg := mmnnConfig(n, rho, 1, 7)
		cfg.Service = svc
		cfg.Horizon = 8000
		cfg.Warmup = 800
		res, err := Simulate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if ci := res.LossCI; stats.RelativeError(res.LossProb, want) > 0.10 && !(ci.Lo <= want && want <= ci.Hi) {
			t.Errorf("service %s: loss %.4f vs Erlang B %.4f", svc, res.LossProb, want)
		}
	}
}

// TestNonPoissonArrivalsBreakErlangB quantifies the model's exposure to its
// Poisson assumption: bursty MMPP arrivals at the same mean rate must lose
// MORE requests than Erlang B predicts.
func TestNonPoissonArrivalsBreakErlangB(t *testing.T) {
	const n = 3
	meanRate := 2.0
	want := erlang.MustB(n, meanRate)
	cfg := mmnnConfig(n, meanRate, 1, 13)
	cfg.Arrivals = workload.NewMMPP2(8, 0.4, 2, 7.5) // mean (16+3)/9.5 = 2.0
	cfg.Horizon = 8000
	cfg.Warmup = 800
	res, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.LossProb <= want*1.2 {
		t.Fatalf("bursty arrivals lost %.4f, Erlang B %.4f — expected clearly more", res.LossProb, want)
	}
}

func TestThroughputConservation(t *testing.T) {
	// Served + Lost == Arrivals (minus at most the in-flight tail).
	res, err := Simulate(mmnnConfig(4, 3, 1, 21))
	if err != nil {
		t.Fatal(err)
	}
	diff := res.Arrivals - res.Served - res.Lost
	if diff < 0 || diff > int64(4+1) {
		t.Fatalf("conservation violated: arrivals=%d served=%d lost=%d",
			res.Arrivals, res.Served, res.Lost)
	}
	if res.Throughput <= 0 {
		t.Fatal("throughput not positive")
	}
}

func TestDeterminism(t *testing.T) {
	a, err := Simulate(mmnnConfig(3, 2, 1, 99))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(mmnnConfig(3, 2, 1, 99))
	if err != nil {
		t.Fatal(err)
	}
	if a.Arrivals != b.Arrivals || a.Served != b.Served || a.Lost != b.Lost {
		t.Fatal("identical seeds diverged")
	}
	c, err := Simulate(mmnnConfig(3, 2, 1, 100))
	if err != nil {
		t.Fatal(err)
	}
	if a.Arrivals == c.Arrivals && a.Served == c.Served && a.Lost == c.Lost {
		t.Fatal("different seeds produced identical runs (suspicious)")
	}
}

func TestReplications(t *testing.T) {
	cfg := mmnnConfig(3, 2, 1, 7)
	cfg.Horizon = 1500
	cfg.Warmup = 150
	set, err := RunReplications(context.Background(), cfg, replicate.Config{Replications: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Losses) != 8 {
		t.Fatalf("got %d replications", len(set.Losses))
	}
	want := erlang.MustB(3, 2)
	if ci := set.LossCI; !(ci.Lo <= want && want <= ci.Hi) && stats.RelativeError(ci.Point, want) > 0.1 {
		t.Fatalf("replication CI %s misses Erlang B %.4f", ci, want)
	}
}

func TestZeroArrivalWindow(t *testing.T) {
	// An arrival process slower than the horizon produces an empty run
	// without errors.
	cfg := Config{
		Servers:  1,
		Arrivals: &workload.Renewal{Inter: stats.Deterministic{Value: 1e9}},
		Service:  stats.NewExponential(1),
		Horizon:  10,
		Warmup:   1,
		Seed:     1,
	}
	res, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Arrivals != 0 || res.LossProb != 0 {
		t.Fatalf("unexpected activity: %+v", res)
	}
}

func TestTimeBlockingStableAcrossWindows(t *testing.T) {
	// Steady-state check behind the PASTA comparisons: the blocking
	// probability measured over disjoint halves of a long run agrees,
	// so the single-run estimates used throughout the suite are not
	// transient artifacts.
	base := Config{
		Servers:  4,
		Arrivals: workload.NewPoisson(3),
		Service:  stats.HyperExpWithSCV(1, 6),
		Horizon:  20000,
		Warmup:   2000,
		Seed:     61,
	}
	full, err := Simulate(base)
	if err != nil {
		t.Fatal(err)
	}
	half := base
	half.Horizon = 11000
	first, err := Simulate(half)
	if err != nil {
		t.Fatal(err)
	}
	if full.LossProb <= 0 || first.LossProb <= 0 {
		t.Fatal("no losses; raise the load")
	}
	if stats.RelativeError(first.LossProb, full.LossProb) > 0.2 {
		t.Fatalf("window losses diverge: %.4f vs %.4f", first.LossProb, full.LossProb)
	}
}
