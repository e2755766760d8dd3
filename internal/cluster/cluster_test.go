package cluster

import (
	"math"
	"testing"

	"repro/internal/power"
	"repro/internal/rainbow"
	"repro/internal/stats"
	"repro/internal/virt"
	"repro/internal/workload"
)

// webSpec builds an open-loop Web service spec at the given request rate.
func webSpec(rate float64, servers int) ServiceSpec {
	return ServiceSpec{
		Profile:          workload.SPECwebEcommerce(),
		Overhead:         virt.WebHostOverhead(),
		Arrivals:         workload.NewPoisson(rate),
		DedicatedServers: servers,
	}
}

// dbSpec builds a closed-loop DB service spec with the given emulated
// browsers.
func dbSpec(clients, servers int) ServiceSpec {
	return ServiceSpec{
		Profile:          workload.TPCWEbook(),
		Overhead:         virt.DBHostOverhead(),
		Clients:          clients,
		DedicatedServers: servers,
	}
}

func TestValidateConfig(t *testing.T) {
	good := Config{
		Mode:     Dedicated,
		Services: []ServiceSpec{webSpec(100, 1)},
		Horizon:  10,
	}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"no services", func(c *Config) { c.Services = nil }},
		{"no driver", func(c *Config) { c.Services[0].Arrivals = nil }},
		{"both drivers", func(c *Config) { c.Services[0].Clients = 5 }},
		{"no pool", func(c *Config) { c.Services[0].DedicatedServers = 0 }},
		{"bad horizon", func(c *Config) { c.Horizon = 0 }},
		{"bad warmup", func(c *Config) { c.Warmup = 20 }},
		{"negative admission", func(c *Config) { c.AdmissionPerHost = -1 }},
		{"mtbf without mttr", func(c *Config) { c.MTBF = 10 }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := Config{
				Mode:     Dedicated,
				Services: []ServiceSpec{webSpec(100, 1)},
				Horizon:  10,
			}
			c.mutate(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Fatalf("mutation %q accepted", c.name)
			}
		})
	}
	bad := Config{
		Mode:                Consolidated,
		Services:            []ServiceSpec{webSpec(100, 0)},
		ConsolidatedServers: 0,
		Horizon:             10,
	}
	if err := bad.Validate(); err == nil {
		t.Fatal("consolidated without pool size accepted")
	}
}

func TestLightLoadDedicated(t *testing.T) {
	// One server, 100 req/s against a 1420/s disk: nearly no loss, mean
	// response near the bottleneck demand mean (PS at rho≈0.07).
	res, err := Run(Config{
		Mode:     Dedicated,
		Services: []ServiceSpec{webSpec(100, 1)},
		Horizon:  120,
		Warmup:   20,
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	web := res.Services[0]
	if web.LossProb > 0.001 {
		t.Fatalf("light load lost %.4f", web.LossProb)
	}
	if stats.RelativeError(web.Throughput, 100) > 0.05 {
		t.Fatalf("throughput %.1f, want ~100", web.Throughput)
	}
	// Bottleneck is disk (1/1420 s); the CPU leg is faster, so the
	// makespan is close to the disk demand inflated slightly by PS.
	mrt := web.ResponseTimes.Mean()
	if mrt < 1/1420.0 || mrt > 3/1420.0 {
		t.Fatalf("mean response %.6f s", mrt)
	}
	// Utilization ≈ rho on disk = 100/1420.
	if stats.RelativeError(res.MeanUtilization(workload.DiskIO), 100/1420.0) > 0.15 {
		t.Fatalf("disk utilization %.4f", res.MeanUtilization(workload.DiskIO))
	}
	// Percentile estimates are ordered: mean <= p95 <= p99 <= max.
	if web.RespP95 < mrt || web.RespP99 < web.RespP95 ||
		web.RespP99 > web.ResponseTimes.Max()+1e-9 {
		t.Fatalf("percentiles disordered: mean=%.5f p95=%.5f p99=%.5f max=%.5f",
			mrt, web.RespP95, web.RespP99, web.ResponseTimes.Max())
	}
}

func TestSaturationThroughputNative(t *testing.T) {
	// Overdriving one dedicated server: throughput caps at ~μ_wi = 1420.
	res, err := Run(Config{
		Mode:     Dedicated,
		Services: []ServiceSpec{webSpec(3000, 1)},
		Horizon:  60,
		Warmup:   10,
		Seed:     2,
	})
	if err != nil {
		t.Fatal(err)
	}
	web := res.Services[0]
	if stats.RelativeError(web.Throughput, 1420) > 0.08 {
		t.Fatalf("saturated throughput %.1f, want ~1420", web.Throughput)
	}
	if web.LossProb < 0.4 {
		t.Fatalf("overload loss %.3f too low", web.LossProb)
	}
	// Disk pegged.
	if res.MeanUtilization(workload.DiskIO) < 0.95 {
		t.Fatalf("disk utilization %.3f under overload", res.MeanUtilization(workload.DiskIO))
	}
}

func TestConsolidatedOverheadReducesWebCapacity(t *testing.T) {
	// One consolidated host with v identical Web VMs: capacity scales by
	// a_wi(v) (Fig. 5's shape). v = 4 → 1.082-0.408 = 0.674.
	v := 4
	specs := make([]ServiceSpec, v)
	for i := range specs {
		specs[i] = webSpec(3000/float64(v), 0)
	}
	res, err := Run(Config{
		Mode:                Consolidated,
		Services:            specs,
		ConsolidatedServers: 1,
		Horizon:             60,
		Warmup:              10,
		Seed:                3,
	})
	if err != nil {
		t.Fatal(err)
	}
	total := res.TotalThroughput()
	want := 1420 * virt.WebDiskIOCurve.At(v)
	if stats.RelativeError(total, want) > 0.10 {
		t.Fatalf("consolidated throughput %.1f, want ~%.1f", total, want)
	}
}

func TestDBMultiVMBeatsNative(t *testing.T) {
	// Fig. 8: one host, native vs 2 DB VMs. Native caps at ~100 WIPS (OS
	// ceiling); two VMs reach ~148 (a_dc(2) = 1.48).
	native, err := Run(Config{
		Mode:     Dedicated,
		Services: []ServiceSpec{dbSpec(3000, 1)},
		Horizon:  120,
		Warmup:   20,
		Seed:     4,
	})
	if err != nil {
		t.Fatal(err)
	}
	nWIPS := native.Services[0].Throughput
	if stats.RelativeError(nWIPS, 100) > 0.08 {
		t.Fatalf("native WIPS %.1f, want ~100", nWIPS)
	}

	twoVMs, err := Run(Config{
		Mode:                Consolidated,
		Services:            []ServiceSpec{dbSpec(1500, 0), dbSpec(1500, 0)},
		ConsolidatedServers: 1,
		Horizon:             120,
		Warmup:              20,
		Seed:                5,
	})
	if err != nil {
		t.Fatal(err)
	}
	vWIPS := twoVMs.TotalThroughput()
	if stats.RelativeError(vWIPS, 148) > 0.08 {
		t.Fatalf("2-VM WIPS %.1f, want ~148", vWIPS)
	}
	if vWIPS <= nWIPS {
		t.Fatal("multi-VM DB did not beat native (Fig. 8 shape)")
	}
}

func TestClosedLoopLittlesLaw(t *testing.T) {
	// 100 EBs with 7 s mean think time on an unloaded pool: WIPS ≈
	// clients/(think+resp) ≈ 100/7.
	res, err := Run(Config{
		Mode:     Dedicated,
		Services: []ServiceSpec{dbSpec(100, 2)},
		Horizon:  400,
		Warmup:   50,
		Seed:     6,
	})
	if err != nil {
		t.Fatal(err)
	}
	db := res.Services[0]
	want := 100.0 / (7 + db.ResponseTimes.Mean())
	if stats.RelativeError(db.Throughput, want) > 0.08 {
		t.Fatalf("WIPS %.2f, Little's law predicts %.2f", db.Throughput, want)
	}
}

func TestGroupOneCaseStudyShape(t *testing.T) {
	// Fig. 10's qualitative claim: with the group-1 workloads, three
	// consolidated hosts keep losses near the dedicated 3+3 deployment,
	// while two consolidated hosts overload and the DB experiment
	// collapses. The experimental operating point is the knee of Fig. 9 —
	// ≈70 % of the dedicated pools' capacity (see DESIGN.md): λ_w =
	// 0.7·3·1420 = 2982 req/s, λ_d = 0.7·3·100 = 210 WIPS offered. At that
	// point 3 consolidated hosts run their CPUs at ≈0.94 (stable) while 2
	// hosts would need 1.4 CPUs' worth of work per host.
	mk := func(mode Mode, consolidated int, seed uint64) *Result {
		cfg := Config{
			Mode: mode,
			Services: []ServiceSpec{
				webSpec(2982, 3),
				{
					Profile:          workload.TPCWEbook(),
					Overhead:         virt.DBHostOverhead(),
					Arrivals:         workload.NewPoisson(210),
					DedicatedServers: 3,
				},
			},
			ConsolidatedServers: consolidated,
			Horizon:             120,
			Warmup:              20,
			Seed:                seed,
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	dedicated := mk(Dedicated, 0, 10)
	cons3 := mk(Consolidated, 3, 11)
	cons2 := mk(Consolidated, 2, 12)

	for i, name := range []string{"web", "db"} {
		d := dedicated.Services[i].LossProb
		c3 := cons3.Services[i].LossProb
		c2 := cons2.Services[i].LossProb
		if c3 > d+0.10 {
			t.Errorf("%s: 3 consolidated lose %.3f vs dedicated %.3f", name, c3, d)
		}
		if c2 < c3+0.05 {
			t.Errorf("%s: 2 consolidated (%.3f) should clearly exceed 3 consolidated (%.3f)", name, c2, c3)
		}
	}
	// 2 consolidated hosts are overloaded: DB throughput collapses below
	// the offered rate by a wide margin (the paper's "failure" bar).
	if cons2.Services[1].Throughput > 0.8*210 {
		t.Errorf("2-host DB throughput %.1f did not collapse", cons2.Services[1].Throughput)
	}
}

func TestStaticPartitionWorseThanFlowing(t *testing.T) {
	// Asymmetric load: web heavy, db light. Ideal flowing serves both;
	// static 50/50 partitioning starves the web VM.
	services := func() []ServiceSpec {
		return []ServiceSpec{
			webSpec(1200, 0),
			{
				Profile:  workload.TPCWEbook(),
				Overhead: virt.DBHostOverhead(),
				Arrivals: workload.NewPoisson(5),
			},
		}
	}
	flowing, err := Run(Config{
		Mode:                Consolidated,
		Services:            services(),
		ConsolidatedServers: 1,
		Horizon:             60,
		Warmup:              10,
		Seed:                20,
	})
	if err != nil {
		t.Fatal(err)
	}
	static, err := Run(Config{
		Mode:                Consolidated,
		Services:            services(),
		ConsolidatedServers: 1,
		Alloc:               rainbow.Static{},
		Horizon:             60,
		Warmup:              10,
		Seed:                20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if static.Services[0].Throughput >= flowing.Services[0].Throughput {
		t.Fatalf("static web %.1f >= flowing web %.1f",
			static.Services[0].Throughput, flowing.Services[0].Throughput)
	}
}

func TestProportionalPolicyApproachesFlowing(t *testing.T) {
	// Rainbow's demand-proportional reallocation with a short period and
	// tiny cost should land between static and ideal flowing.
	services := func() []ServiceSpec {
		return []ServiceSpec{
			webSpec(1200, 0),
			{
				Profile:  workload.TPCWEbook(),
				Overhead: virt.DBHostOverhead(),
				Arrivals: workload.NewPoisson(5),
			},
		}
	}
	run := func(alloc Partition, seed uint64) float64 {
		res, err := Run(Config{
			Mode:                Consolidated,
			Services:            services(),
			ConsolidatedServers: 1,
			Alloc:               alloc,
			Horizon:             60,
			Warmup:              10,
			Seed:                seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Services[0].Throughput
	}
	static := run(rainbow.Static{}, 30)
	prop := run(rainbow.Proportional{RebalancePeriod: 0.1, MinShare: 0.05, Cost: 0.01}, 30)
	if prop <= static {
		t.Fatalf("proportional %.1f <= static %.1f", prop, static)
	}
}

func TestFailureInjection(t *testing.T) {
	res, err := Run(Config{
		Mode:     Dedicated,
		Services: []ServiceSpec{webSpec(500, 2)},
		Horizon:  200,
		Warmup:   10,
		Seed:     7,
		MTBF:     30,
		MTTR:     10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures == 0 {
		t.Fatal("no failures injected")
	}
	web := res.Services[0]
	// Conservation: arrivals = served + lost (+ small in-flight tail).
	diff := web.Arrivals - web.Served - web.Lost
	if diff < 0 || diff > 600 {
		t.Fatalf("conservation: arrivals=%d served=%d lost=%d",
			web.Arrivals, web.Served, web.Lost)
	}
	if web.Lost == 0 {
		t.Fatal("failures lost no requests")
	}
}

func TestRoundRobinBalances(t *testing.T) {
	res, err := Run(Config{
		Mode:     Dedicated,
		Services: []ServiceSpec{webSpec(2000, 4)},
		Horizon:  60,
		Warmup:   10,
		Seed:     8,
	})
	if err != nil {
		t.Fatal(err)
	}
	// All four hosts should see nearly identical disk utilization.
	var min, max float64 = 2, -1
	for _, h := range res.Hosts {
		u := h.Utilization[workload.DiskIO]
		if u < min {
			min = u
		}
		if u > max {
			max = u
		}
	}
	if max-min > 0.05 {
		t.Fatalf("unbalanced utilizations: min=%.3f max=%.3f", min, max)
	}
}

func TestDeterminism(t *testing.T) {
	run := func(seed uint64) *Result {
		res, err := Run(Config{
			Mode:     Dedicated,
			Services: []ServiceSpec{webSpec(800, 2)},
			Horizon:  30,
			Warmup:   5,
			Seed:     seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(42), run(42)
	if a.Services[0].Arrivals != b.Services[0].Arrivals ||
		a.Services[0].Served != b.Services[0].Served ||
		a.Services[0].Lost != b.Services[0].Lost {
		t.Fatal("identical seeds diverged")
	}
	c := run(43)
	if a.Services[0].Served == c.Services[0].Served &&
		a.Services[0].Arrivals == c.Services[0].Arrivals {
		t.Fatal("different seeds suspiciously identical")
	}
}

func TestResultHelpers(t *testing.T) {
	res, err := Run(Config{
		Mode:     Dedicated,
		Services: []ServiceSpec{webSpec(100, 1)},
		Horizon:  20,
		Warmup:   2,
		Seed:     9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.String() == "" {
		t.Fatal("empty report")
	}
	if res.Mode.String() != "dedicated" || Consolidated.String() != "consolidated" {
		t.Fatal("mode names wrong")
	}
}

func TestAdmissionLimit(t *testing.T) {
	// A tiny admission limit converts overload into losses (loss-system
	// behaviour) instead of unbounded PS slowdown.
	res, err := Run(Config{
		Mode:             Dedicated,
		Services:         []ServiceSpec{webSpec(3000, 1)},
		AdmissionPerHost: 4,
		Horizon:          30,
		Warmup:           5,
		Seed:             10,
	})
	if err != nil {
		t.Fatal(err)
	}
	web := res.Services[0]
	if web.LossProb < 0.3 {
		t.Fatalf("tight admission lost only %.3f", web.LossProb)
	}
	// Response times stay bounded: with at most 4 jobs sharing the disk,
	// the makespan stays below ~4x a generous demand quantile.
	if web.ResponseTimes.Max() > 4*20.0/1420 {
		t.Fatalf("response max %.4f too large for MPL 4", web.ResponseTimes.Max())
	}
}

func TestConsolidatedHostsShareAllServices(t *testing.T) {
	res, err := Run(Config{
		Mode: Consolidated,
		Services: []ServiceSpec{
			webSpec(500, 0),
			{
				Profile:  workload.TPCWEbook(),
				Overhead: virt.DBHostOverhead(),
				Arrivals: workload.NewPoisson(40),
			},
		},
		ConsolidatedServers: 2,
		Horizon:             60,
		Warmup:              10,
		Seed:                11,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Both hosts carry CPU work from both services.
	for _, h := range res.Hosts {
		if h.Utilization[workload.CPU] <= 0 {
			t.Fatalf("host %d has no CPU work", h.ID)
		}
	}
	// No losses at this comfortable load.
	for _, s := range res.Services {
		if s.LossProb > 0.01 {
			t.Fatalf("%s loss %.3f", s.Name, s.LossProb)
		}
	}
}

func TestEnergyAccounting(t *testing.T) {
	res, err := Run(Config{
		Mode:     Dedicated,
		Services: []ServiceSpec{webSpec(700, 1)},
		Horizon:  60,
		Warmup:   10,
		Seed:     12,
	})
	if err != nil {
		t.Fatal(err)
	}
	total, idle := res.Energy(power.DefaultServer, power.NativeLinux)
	if total <= idle {
		t.Fatal("busy servers should exceed idle energy")
	}
	if math.IsNaN(total) || math.IsNaN(idle) {
		t.Fatal("NaN energy")
	}
}

func TestClusterServiceTimeInsensitivity(t *testing.T) {
	// The saturated throughput of a host depends on the demand MEAN, not
	// its distribution — the cluster-level echo of Erlang insensitivity.
	run := func(scv float64, seed uint64) float64 {
		profile := workload.SPECwebEcommerce().WithDemandSCV(scv)
		res, err := Run(Config{
			Mode: Dedicated,
			Services: []ServiceSpec{{
				Profile:          profile,
				Arrivals:         workload.NewPoisson(3000),
				DedicatedServers: 1,
			}},
			Horizon: 60,
			Warmup:  10,
			Seed:    seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Services[0].Throughput
	}
	det := run(0, 41)
	exp := run(1, 41)
	hyper := run(4, 41)
	if stats.RelativeError(det, exp) > 0.05 || stats.RelativeError(hyper, exp) > 0.05 {
		t.Fatalf("saturated throughput varies with SCV: det=%.0f exp=%.0f h2=%.0f",
			det, exp, hyper)
	}
}

func BenchmarkClusterRunGroupTwo(b *testing.B) {
	// Simulator throughput on the group-2 consolidated deployment.
	for i := 0; i < b.N; i++ {
		_, err := Run(Config{
			Mode: Consolidated,
			Services: []ServiceSpec{
				webSpec(3976, 0),
				{
					Profile:  workload.TPCWEbook(),
					Overhead: dbSpec(1, 1).Overhead,
					Arrivals: workload.NewPoisson(280),
				},
			},
			ConsolidatedServers: 4,
			Horizon:             10,
			Warmup:              2,
			Seed:                uint64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func TestClusterWithDiurnalNHPPArrivals(t *testing.T) {
	// The cluster accepts any ArrivalProcess: drive a dedicated pool with
	// a two-phase diurnal NHPP and verify the served volume matches the
	// trace's mean rate.
	day := workload.NewNHPP([]float64{200, 800}, 30, true) // mean 500/s
	res, err := Run(Config{
		Mode: Dedicated,
		Services: []ServiceSpec{{
			Profile:          workload.SPECwebEcommerce(),
			Arrivals:         day,
			DedicatedServers: 1,
		}},
		Horizon: 120,
		Warmup:  0,
		Seed:    91,
	})
	if err != nil {
		t.Fatal(err)
	}
	web := res.Services[0]
	if stats.RelativeError(web.Throughput, 500) > 0.08 {
		t.Fatalf("NHPP throughput %.1f, want ~500", web.Throughput)
	}
	if web.LossProb > 0.01 {
		t.Fatalf("unexpected losses %.4f at 56%% peak load", web.LossProb)
	}
}
