package cluster

import (
	"testing"

	"repro/internal/rainbow"
	"repro/internal/stats"
	"repro/internal/workload"
)

func TestHostClassValidate(t *testing.T) {
	good := HostClass{Name: "amd", Count: 2}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []HostClass{
		{Name: "", Count: 1},
		{Name: "x", Count: 0},
		{Name: "x", Count: 1, Capability: map[string]float64{"cpu": 0}},
		{Name: "x", Count: 1, Capability: map[string]float64{"cpu": -2}},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad class %d accepted", i)
		}
	}
}

func TestHostClassPoolSizing(t *testing.T) {
	cfg := Config{
		Mode:     Consolidated,
		Services: []ServiceSpec{webSpec(100, 0)},
		HostClasses: []HostClass{
			{Name: "a", Count: 2},
			{Name: "b", Count: 1},
		},
		Horizon: 5,
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	// Mismatched explicit pool size rejected.
	cfg.ConsolidatedServers = 5
	if err := cfg.Validate(); err == nil {
		t.Fatal("mismatched pool size accepted")
	}
	// Matching explicit pool size allowed.
	cfg.ConsolidatedServers = 3
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{
		Mode:     Consolidated,
		Services: []ServiceSpec{webSpec(100, 0)},
		HostClasses: []HostClass{
			{Name: "a", Count: 2},
			{Name: "b", Count: 1},
		},
		Horizon: 10,
		Warmup:  1,
		Seed:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hosts) != 3 {
		t.Fatalf("hosts = %d, want 3", len(res.Hosts))
	}
}

func TestHeterogeneousCapacityScalesThroughput(t *testing.T) {
	// One saturated host at capability 1 vs one at capability 1.2 (the
	// paper's AMD-vs-Intel Discussion observation): throughput scales by
	// the capability.
	run := func(capability float64) float64 {
		res, err := Run(Config{
			Mode:     Consolidated,
			Services: []ServiceSpec{webSpec(3000, 0)},
			HostClasses: []HostClass{{
				Name:       "class",
				Count:      1,
				Capability: map[string]float64{workload.DiskIO: capability, workload.CPU: capability},
			}},
			Horizon: 40,
			Warmup:  8,
			Seed:    3,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.TotalThroughput()
	}
	slow := run(1.0)
	fast := run(1.2)
	if stats.RelativeError(fast/slow, 1.2) > 0.05 {
		t.Fatalf("capability 1.2 gave %.1f vs %.1f (ratio %.3f, want 1.2)",
			fast, slow, fast/slow)
	}
}

func TestHeterogeneousUtilizationNormalized(t *testing.T) {
	// A fast host at light load shows *lower* utilization than a reference
	// host at the same load — the fraction-of-machine normalization.
	run := func(capability float64) float64 {
		res, err := Run(Config{
			Mode:     Consolidated,
			Services: []ServiceSpec{webSpec(500, 0)},
			HostClasses: []HostClass{{
				Name:       "class",
				Count:      1,
				Capability: map[string]float64{workload.DiskIO: capability, workload.CPU: capability},
			}},
			Horizon: 40,
			Warmup:  8,
			Seed:    4,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.MeanUtilization(workload.DiskIO)
	}
	ref := run(1.0)
	fast := run(1.5)
	if fast >= ref {
		t.Fatalf("fast host utilization %.3f >= reference %.3f", fast, ref)
	}
	if stats.RelativeError(fast, ref/1.5) > 0.1 {
		t.Fatalf("normalization off: %.3f vs %.3f/1.5", fast, ref)
	}
}

func TestHeterogeneousMixedPoolGroupTwo(t *testing.T) {
	// The group-2 case study on a mixed AMD/Intel pool: to carry the same
	// load as 4 reference (AMD) hosts, an Intel-heavy pool needs a fifth
	// machine — matching the planner's all-Intel placement in the hetero
	// experiment.
	lambdaW := 0.7 * 4 * workload.WebDiskRate
	lambdaD := 0.7 * 4 * workload.DBCPURate
	services := func() []ServiceSpec {
		return []ServiceSpec{
			webSpec(lambdaW, 4),
			{
				Profile:  workload.TPCWEbook(),
				Overhead: dbSpec(1, 4).Overhead,
				Arrivals: workload.NewPoisson(lambdaD),
			},
		}
	}
	intelCap := map[string]float64{workload.CPU: 1 / 1.2, workload.DiskIO: 1 / 1.2}
	fourIntel, err := Run(Config{
		Mode:        Consolidated,
		Services:    services(),
		HostClasses: []HostClass{{Name: "intel", Count: 4, Capability: intelCap}},
		Horizon:     60,
		Warmup:      10,
		Seed:        5,
	})
	if err != nil {
		t.Fatal(err)
	}
	fiveIntel, err := Run(Config{
		Mode:        Consolidated,
		Services:    services(),
		HostClasses: []HostClass{{Name: "intel", Count: 5, Capability: intelCap}},
		Horizon:     60,
		Warmup:      10,
		Seed:        5,
	})
	if err != nil {
		t.Fatal(err)
	}
	// 4 Intel machines = 3.33 reference units < the ~3.8 units of work:
	// overloaded (losses). 5 Intel = 4.17 units: fine.
	if fourIntel.Services[0].LossProb+fourIntel.Services[1].LossProb <
		fiveIntel.Services[0].LossProb+fiveIntel.Services[1].LossProb+0.01 {
		t.Fatalf("4 intel hosts (loss %.3f/%.3f) should lose more than 5 (%.3f/%.3f)",
			fourIntel.Services[0].LossProb, fourIntel.Services[1].LossProb,
			fiveIntel.Services[0].LossProb, fiveIntel.Services[1].LossProb)
	}
	if fiveIntel.Services[1].LossProb > 0.02 {
		t.Fatalf("5 intel hosts still losing %.3f", fiveIntel.Services[1].LossProb)
	}
}

func TestMemoryPlacementConstraint(t *testing.T) {
	// The Fig. 5/6/8 sweeps co-locate up to 9 VMs on an 8 GB host with
	// 1 GB Domain 0: 9 + 1 > 8 would reject the paper's own experiment, so
	// those sweeps set HostMemoryGB accordingly — here we verify both
	// sides of the constraint.
	services := []ServiceSpec{webSpec(100, 0), dbSpec(10, 0)}
	ok := Config{
		Mode:                Consolidated,
		Services:            services,
		ConsolidatedServers: 1,
		Horizon:             5,
	}
	if err := ok.Validate(); err != nil {
		t.Fatalf("2 VMs + dom0 on 8 GB rejected: %v", err)
	}
	// 2 fat VMs exceed the default host.
	fat := Config{
		Mode: Consolidated,
		Services: []ServiceSpec{
			func() ServiceSpec { s := webSpec(100, 0); s.MemoryGB = 4; return s }(),
			func() ServiceSpec { s := dbSpec(10, 0); s.MemoryGB = 4; return s }(),
		},
		ConsolidatedServers: 1,
		Horizon:             5,
	}
	if err := fat.Validate(); err == nil {
		t.Fatal("over-committed memory accepted")
	}
	// A bigger host fixes it.
	fat.HostMemoryGB = 16
	if err := fat.Validate(); err != nil {
		t.Fatalf("16 GB host rejected: %v", err)
	}
	// Negative memory rejected.
	bad := ok
	bad.Services = append([]ServiceSpec(nil), services...)
	bad.Services[0].MemoryGB = -1
	if err := bad.Validate(); err == nil {
		t.Fatal("negative VM memory accepted")
	}
	bad2 := ok
	bad2.HostMemoryGB = -8
	if err := bad2.Validate(); err == nil {
		t.Fatal("negative host memory accepted")
	}
	// Dedicated mode carries no VM memory constraint.
	ded := Config{
		Mode:     Dedicated,
		Services: []ServiceSpec{func() ServiceSpec { s := webSpec(100, 1); s.MemoryGB = 100; return s }()},
		Horizon:  5,
	}
	if err := ded.Validate(); err != nil {
		t.Fatalf("dedicated memory constraint misapplied: %v", err)
	}
}

func TestClassIndependentBlockingOnSharedPool(t *testing.T) {
	// PASTA corollary: on a saturated shared pool with arrival-time
	// admission drops, every Poisson class sees (approximately) the same
	// blocking probability, regardless of its per-request demand. Web
	// requests are ~14x lighter than DB interactions, yet their loss
	// probabilities agree under overload.
	res, err := Run(Config{
		Mode: Consolidated,
		Services: []ServiceSpec{
			webSpec(6000, 0), // heavy overload
			{
				Profile:  workload.TPCWEbook(),
				Overhead: dbSpec(1, 1).Overhead,
				Arrivals: workload.NewPoisson(400),
			},
		},
		ConsolidatedServers: 1,
		AdmissionPerHost:    32,
		Horizon:             60,
		Warmup:              10,
		Seed:                71,
	})
	if err != nil {
		t.Fatal(err)
	}
	web, db := res.Services[0], res.Services[1]
	if web.LossProb < 0.2 || db.LossProb < 0.2 {
		t.Fatalf("pool not saturated: web %.3f db %.3f", web.LossProb, db.LossProb)
	}
	if stats.RelativeError(web.LossProb, db.LossProb) > 0.15 {
		t.Fatalf("class-dependent blocking: web %.3f vs db %.3f",
			web.LossProb, db.LossProb)
	}
}

func TestCombinedHeterogeneousFailurePartitioned(t *testing.T) {
	// Integration stress: heterogeneous hosts + partitioned allocation +
	// failure injection together, checking conservation and sane metrics.
	res, err := Run(Config{
		Mode: Consolidated,
		Services: []ServiceSpec{
			webSpec(1500, 0),
			{
				Profile:  workload.TPCWEbook(),
				Overhead: dbSpec(1, 1).Overhead,
				Arrivals: workload.NewPoisson(100),
			},
		},
		HostClasses: []HostClass{
			{Name: "amd", Count: 2},
			{Name: "intel", Count: 2, Capability: map[string]float64{
				workload.CPU: 1 / 1.2, workload.DiskIO: 1 / 1.2}},
		},
		Alloc:   rainbow.Proportional{RebalancePeriod: 0.5, MinShare: 0.05, Cost: 0.01},
		Horizon: 120,
		Warmup:  20,
		Seed:    73,
		MTBF:    40,
		MTTR:    8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures == 0 {
		t.Fatal("no failures injected")
	}
	for _, s := range res.Services {
		diff := s.Arrivals - s.Served - s.Lost
		if diff < 0 || diff > 300 {
			t.Fatalf("%s conservation: arrivals=%d served=%d lost=%d",
				s.Name, s.Arrivals, s.Served, s.Lost)
		}
		if s.Served == 0 {
			t.Fatalf("%s served nothing", s.Name)
		}
	}
	for _, h := range res.Hosts {
		for r, u := range h.Utilization {
			if u < 0 || u > 1.0+1e-9 {
				t.Fatalf("host %d %s utilization %g", h.ID, r, u)
			}
		}
	}
}
