package eval_test

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/erlang"
	"repro/internal/eval"
	"repro/internal/experiments"
	"repro/internal/power"
	"repro/internal/scenario"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// The bridge must reproduce the hand-built case-study model exactly: same
// arrival rates, serving rates and impact factors (the impact factors are
// the overhead curves at v = co-located VMs demanding the resource, which
// is the convention CaseStudyModel hard-codes).
func TestModelFromScenarioMatchesCaseStudy(t *testing.T) {
	want, err := experiments.CaseStudyModel(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Drive the declarative services at the model's own operating point so
	// the two pipelines describe the same system.
	s := scenario.Scenario{
		Mode: "consolidated",
		Services: []scenario.Service{
			scenario.WebSpec(want.Services[0].ArrivalRate, 4),
			scenario.DBSpec(want.Services[1].ArrivalRate, 4),
		},
		Fleet: scenario.Fleet{Hosts: 4},
	}
	got, err := eval.ModelFromScenario(s, experiments.LossTarget)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Services) != len(want.Services) {
		t.Fatalf("services = %d, want %d", len(got.Services), len(want.Services))
	}
	for i, w := range want.Services {
		g := got.Services[i]
		if !almost(g.ArrivalRate, w.ArrivalRate, 1e-9) {
			t.Errorf("service %d arrival rate %g, want %g", i, g.ArrivalRate, w.ArrivalRate)
		}
		for j, mu := range w.ServingRates {
			if math.IsInf(mu, 1) {
				continue
			}
			if !almost(g.ServingRates[j], mu, 1e-9*mu) {
				t.Errorf("service %d serving rate[%s] %g, want %g", i, j, g.ServingRates[j], mu)
			}
		}
		for j, a := range w.ImpactFactors {
			if !almost(g.ImpactFactors[j], a, 1e-12) {
				t.Errorf("service %d impact[%s] %g, want %g", i, j, g.ImpactFactors[j], a)
			}
		}
	}
	// The bridged model sizes identically.
	wantRes, err := want.Solve()
	if err != nil {
		t.Fatal(err)
	}
	gotRes, err := got.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if gotRes.Consolidated.Servers != wantRes.Consolidated.Servers ||
		gotRes.Dedicated.Servers != wantRes.Dedicated.Servers {
		t.Errorf("sizing (M=%d, N=%d), want (M=%d, N=%d)",
			gotRes.Dedicated.Servers, gotRes.Consolidated.Servers,
			wantRes.Dedicated.Servers, wantRes.Consolidated.Servers)
	}
}

func TestModelFromScenarioRejectsClosedLoop(t *testing.T) {
	s := scenario.Scenario{
		Mode:     "consolidated",
		Services: []scenario.Service{scenario.DBClosedSpec(100, 0)},
	}
	if _, err := eval.ModelFromScenario(s, 0.05); !errors.Is(err, eval.ErrUnsupported) {
		t.Fatalf("err = %v, want ErrUnsupported", err)
	}
	if _, err := eval.NewAnalytic(nil).Evaluate(context.Background(), s); !errors.Is(err, eval.ErrUnsupported) {
		t.Fatalf("Evaluate err = %v, want ErrUnsupported", err)
	}
}

// A consolidated homogeneous fleet's analytic loss must equal the worst
// per-resource Erlang B of the bridged model's consolidated traffic, and
// watts must follow SteadyStateDraw at the Eq. (10) utilization.
func TestAnalyticConsolidatedMatchesCore(t *testing.T) {
	s := scenario.CaseStudy(4, 4, "consolidated", 4)
	res, err := eval.NewAnalytic(nil).Evaluate(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != "analytic" || res.Mode != "consolidated" {
		t.Fatalf("source/mode = %s/%s", res.Source, res.Mode)
	}
	if res.Hosts != 4 || res.CapabilityUnits != 4 {
		t.Fatalf("hosts=%d units=%g, want 4/4", res.Hosts, res.CapabilityUnits)
	}

	m, err := eval.ModelFromScenario(s, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	wantLoss, demand := 0.0, 0.0
	for _, j := range []core.Resource{core.CPU, core.DiskIO} {
		rho := m.ConsolidatedTraffic(j, m.Form)
		demand += rho
		b, err := erlang.B(4, rho)
		if err != nil {
			t.Fatal(err)
		}
		if b > wantLoss {
			wantLoss = b
		}
	}
	if !almost(res.Loss, wantLoss, 1e-12) {
		t.Errorf("loss %g, want %g", res.Loss, wantLoss)
	}
	wantUtil := demand / 4
	if !almost(res.Utilization, wantUtil, 1e-12) {
		t.Errorf("utilization %g, want %g", res.Utilization, wantUtil)
	}
	wantWatts := power.SteadyStateDraw(power.DefaultServer, 4, wantUtil, power.XenRainbow)
	if !almost(res.Watts, wantWatts, 1e-9) {
		t.Errorf("watts %g, want %g", res.Watts, wantWatts)
	}
	if len(res.Services) != 2 {
		t.Fatalf("services = %d", len(res.Services))
	}
}

// A dedicated scenario's per-service losses are plain Erlang B over each
// pool.
func TestAnalyticDedicated(t *testing.T) {
	s := scenario.CaseStudy(4, 4, "dedicated", 0)
	res, err := eval.NewAnalytic(nil).Evaluate(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Hosts != 8 {
		t.Fatalf("hosts = %d, want 8", res.Hosts)
	}
	m, err := eval.ModelFromScenario(s, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	for i, svc := range m.Services {
		worst := 0.0
		for _, mu := range svc.ServingRates {
			if math.IsInf(mu, 1) {
				continue
			}
			b, err := erlang.B(4, svc.ArrivalRate/mu)
			if err != nil {
				t.Fatal(err)
			}
			if b > worst {
				worst = b
			}
		}
		if !almost(res.Services[i].Loss, worst, 1e-12) {
			t.Errorf("service %d loss %g, want %g", i, res.Services[i].Loss, worst)
		}
	}
}

// Fractional capability units (heterogeneous fleets) go through the
// continuous Erlang B extension.
func TestAnalyticHeteroFractionalUnits(t *testing.T) {
	s := scenario.CaseStudy(4, 4, "consolidated", 0)
	s.Fleet.Hosts = 0
	s.Fleet.Classes = []scenario.HostClass{
		{Preset: "amd", Count: 2},
		{Preset: "intel", Count: 2},
	}
	res, err := eval.NewAnalytic(nil).Evaluate(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	wantUnits := 2 + 2/1.2
	if !almost(res.CapabilityUnits, wantUnits, 1e-12) || res.Hosts != 4 {
		t.Fatalf("hosts=%d units=%g, want 4/%g", res.Hosts, res.CapabilityUnits, wantUnits)
	}
	m, err := eval.ModelFromScenario(s, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	wantLoss := 0.0
	for _, j := range []core.Resource{core.CPU, core.DiskIO} {
		b, err := erlang.BContinuous(wantUnits, m.ConsolidatedTraffic(j, m.Form))
		if err != nil {
			t.Fatal(err)
		}
		if b > wantLoss {
			wantLoss = b
		}
	}
	if !almost(res.Loss, wantLoss, 1e-10) {
		t.Errorf("loss %g, want %g", res.Loss, wantLoss)
	}
}

// Per-class power overrides shift the watts accounting.
func TestAnalyticPerClassPower(t *testing.T) {
	s := scenario.CaseStudy(4, 4, "consolidated", 0)
	s.Fleet.Hosts = 0
	s.Fleet.Classes = []scenario.HostClass{
		{Preset: "amd", Count: 2},
		{Preset: "intel", Count: 2, Power: &scenario.Power{BaseW: 230, MaxW: 310}},
	}
	res, err := eval.NewAnalytic(nil).Evaluate(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	u := res.Utilization
	want := power.SteadyStateDraw(power.DefaultServer, 2, u, power.XenRainbow) +
		power.SteadyStateDraw(power.ServerModel{Base: 230, Max: 310}, 2, u, power.XenRainbow)
	if !almost(res.Watts, want, 1e-9) {
		t.Errorf("watts %g, want %g", res.Watts, want)
	}
}

// The sim evaluator is deterministic and reports the same fleet shape as
// the analytic one.
func TestSimEvaluator(t *testing.T) {
	s := scenario.CaseStudy(2, 2, "consolidated", 2)
	s.Horizon = 20
	ev := eval.NewSim(nil)
	res, err := ev.Evaluate(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != "sim" || res.Hosts != 2 || res.CapabilityUnits != 2 {
		t.Fatalf("source=%s hosts=%d units=%g", res.Source, res.Hosts, res.CapabilityUnits)
	}
	if res.Loss < 0 || res.Loss > 1 || math.IsNaN(res.Loss) {
		t.Fatalf("loss %g outside [0,1]", res.Loss)
	}
	if res.Watts <= 0 {
		t.Fatalf("watts %g", res.Watts)
	}
	again, err := ev.Evaluate(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	again.CacheHit = res.CacheHit
	if resultsDiffer(res, again) {
		t.Fatalf("sim evaluation not deterministic: %+v vs %+v", res, again)
	}
}

func resultsDiffer(a, b eval.Result) bool {
	if a.Source != b.Source || a.Mode != b.Mode || a.Hosts != b.Hosts ||
		a.CapabilityUnits != b.CapabilityUnits || a.Loss != b.Loss ||
		a.Utilization != b.Utilization || a.Watts != b.Watts ||
		len(a.Services) != len(b.Services) {
		return true
	}
	for i := range a.Services {
		if a.Services[i] != b.Services[i] {
			return true
		}
	}
	return false
}

func TestFleetUnits(t *testing.T) {
	s := scenario.Scenario{Fleet: scenario.Fleet{Hosts: 5}}
	if h, u := eval.FleetUnits(s, []string{"cpu"}); h != 5 || u != 5 {
		t.Fatalf("homogeneous: %d/%g", h, u)
	}
	s = scenario.Scenario{Fleet: scenario.Fleet{Classes: []scenario.HostClass{
		{Preset: "amd", Count: 1},
		{Name: "fast-disk", Count: 2, Capability: map[string]float64{"diskio": 1.5}},
	}}}
	// fast-disk binds on cpu (capability 1) across {cpu, diskio}.
	if h, u := eval.FleetUnits(s, []string{"cpu", "diskio"}); h != 3 || u != 3 {
		t.Fatalf("hetero: %d/%g", h, u)
	}
	if h, u := eval.FleetUnits(s, []string{"diskio"}); h != 3 || !almost(u, 4, 1e-12) {
		t.Fatalf("diskio-only: %d/%g", h, u)
	}
}
