package plan_test

import (
	"bytes"
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/erlang"
	"repro/internal/eval"
	"repro/internal/plan"
	"repro/internal/pool"
	"repro/internal/scenario"
)

const target = 0.05

func loadExamples(t *testing.T) map[string]scenario.Scenario {
	t.Helper()
	dir := filepath.Join("..", "..", "examples", "scenarios")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]scenario.Scenario{}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		s, err := scenario.ParseBytes(data)
		if err != nil {
			// Sweep grids (base + axes) live beside plain scenarios.
			t.Logf("skipping %s: %v", e.Name(), err)
			continue
		}
		out[e.Name()] = s
	}
	if len(out) == 0 {
		t.Fatal("no example scenarios found")
	}
	return out
}

func mustPlan(t *testing.T, s scenario.Scenario) plan.Plan {
	t.Helper()
	p, err := plan.Search(context.Background(), eval.NewAnalytic(nil), nil, plan.Spec{Scenario: s, Target: target})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// Over every analytically-tractable homogeneous consolidated example, the
// planner's host count must equal the paper's Eq. (5) sizing N: the
// smallest n with every resource's Erlang B of the merged traffic at or
// below the target.
func TestPlanHomogeneousMatchesAnalyticN(t *testing.T) {
	covered := 0
	for name, s := range loadExamples(t) {
		resolved := s.Clone()
		resolved.ApplyDefaults()
		if resolved.Mode != "consolidated" || len(resolved.Fleet.Classes) > 0 {
			continue
		}
		m, err := eval.ModelFromScenario(resolved, target)
		if errors.Is(err, eval.ErrUnsupported) {
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := 0
		for _, j := range m.Resources {
			n, err := erlang.Servers(m.ConsolidatedTraffic(j, m.Form), target, 0)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if n > want {
				want = n
			}
		}
		p := mustPlan(t, s)
		if p.Hosts != want {
			t.Errorf("%s: planned %d hosts, analytic N = %d", name, p.Hosts, want)
		}
		if p.Result.Loss > target {
			t.Errorf("%s: plan loss %g above target", name, p.Result.Loss)
		}
		covered++
	}
	if covered == 0 {
		t.Fatal("no homogeneous consolidated examples covered")
	}
}

// Dedicated-mode plans size each pool to the paper's per-service Mᵢ.
func TestPlanDedicatedMatchesAnalyticM(t *testing.T) {
	covered := 0
	for name, s := range loadExamples(t) {
		resolved := s.Clone()
		resolved.ApplyDefaults()
		if resolved.Mode != "dedicated" {
			continue
		}
		m, err := eval.ModelFromScenario(resolved, target)
		if errors.Is(err, eval.ErrUnsupported) {
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		p := mustPlan(t, s)
		if len(p.Dedicated) != len(m.Services) {
			t.Fatalf("%s: %d pools for %d services", name, len(p.Dedicated), len(m.Services))
		}
		totalWant := 0
		for i, svc := range m.Services {
			want := 0
			for _, mu := range svc.ServingRates {
				if math.IsInf(mu, 1) {
					continue
				}
				n, err := erlang.Servers(svc.ArrivalRate/mu, target, 0)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if n > want {
					want = n
				}
			}
			if p.Dedicated[i].Servers != want {
				t.Errorf("%s: service %d pool %d, analytic M = %d", name, i, p.Dedicated[i].Servers, want)
			}
			totalWant += want
		}
		if p.Hosts != totalWant {
			t.Errorf("%s: hosts %d, want %d", name, p.Hosts, totalWant)
		}
		covered++
	}
	if covered == 0 {
		t.Fatal("no dedicated examples covered")
	}
}

// The heterogeneous search returns a feasible assignment within supply,
// and a min-power plan never draws more watts than the min-servers plan
// for the same scenario.
func TestPlanHeteroFeasible(t *testing.T) {
	s := loadExamples(t)["plan-hetero.json"]
	minServers := mustPlan(t, s)
	if minServers.Result.Loss > target {
		t.Fatalf("loss %g above target", minServers.Result.Loss)
	}
	if len(minServers.Classes) != 3 {
		t.Fatalf("classes = %d, want 3 (stable assignment shape)", len(minServers.Classes))
	}
	supply := map[string]int{"amd": 4, "intel": 4, "fast-disk": 2}
	total := 0
	for _, cc := range minServers.Classes {
		if cc.Count < 0 || cc.Count > supply[cc.Name] {
			t.Errorf("class %s count %d outside supply %d", cc.Name, cc.Count, supply[cc.Name])
		}
		total += cc.Count
	}
	if total != minServers.Hosts || total == 0 {
		t.Fatalf("hosts %d vs class total %d", minServers.Hosts, total)
	}

	p, err := plan.Search(context.Background(), eval.NewAnalytic(nil), nil,
		plan.Spec{Scenario: s, Target: target, Objective: plan.MinPower})
	if err != nil {
		t.Fatal(err)
	}
	if p.Result.Loss > target {
		t.Fatalf("min-power loss %g above target", p.Result.Loss)
	}
	if p.Result.Watts > minServers.Result.Watts+1e-9 {
		t.Errorf("min-power watts %g exceed min-servers watts %g", p.Result.Watts, minServers.Result.Watts)
	}
}

// A heterogeneous fleet meeting the loss target must not beat the
// analytic homogeneous bound on hosts when its best class is no better
// than the reference server (capability <= 1 means each machine serves
// at most a reference server's share).
func TestPlanHeteroAtLeastContinuousBound(t *testing.T) {
	s := loadExamples(t)["plan-hetero.json"]
	p := mustPlan(t, s)
	m, err := eval.ModelFromScenario(s, target)
	if err != nil {
		t.Fatal(err)
	}
	bound := 0.0
	for _, j := range m.Resources {
		n, err := erlang.ServersContinuous(m.ConsolidatedTraffic(j, m.Form), target, 0)
		if err != nil {
			t.Fatal(err)
		}
		if n > bound {
			bound = n
		}
	}
	if units := p.Result.CapabilityUnits; units < bound-1e-6 {
		t.Errorf("plan capability units %g below continuous-B requirement %g", units, bound)
	}
}

// Same seed, any pool size: byte-identical plan JSON.
func TestPlanDeterminismAcrossPoolSizes(t *testing.T) {
	examples := loadExamples(t)
	for _, name := range []string{"plan-hetero.json", "casestudy.json", "sharded-fleet.json"} {
		s, ok := examples[name]
		if !ok {
			t.Fatalf("missing example %s", name)
		}
		var first []byte
		for _, workers := range []int{1, 2, 8} {
			pl, err := pool.New(workers)
			if err != nil {
				t.Fatal(err)
			}
			p, err := plan.Search(context.Background(), eval.NewAnalytic(nil), pl,
				plan.Spec{Scenario: s, Target: target, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			got, err := p.EncodeJSON()
			if err != nil {
				t.Fatal(err)
			}
			if first == nil {
				first = got
			} else if !bytes.Equal(first, got) {
				t.Errorf("%s: plan JSON differs between pool sizes (workers=%d)", name, workers)
			}
		}
	}
}

// An undersized class supply is an explicit ErrInfeasible, not a silent
// best-effort plan.
func TestPlanInfeasibleSupply(t *testing.T) {
	s := scenario.Scenario{
		Mode:     "consolidated",
		Services: []scenario.Service{scenario.WebSpec(20000, 1)},
		Fleet: scenario.Fleet{Classes: []scenario.HostClass{
			{Preset: "blade", Count: 1},
		}},
	}
	_, err := plan.Search(context.Background(), eval.NewAnalytic(nil), nil, plan.Spec{Scenario: s, Target: target})
	if !errors.Is(err, plan.ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

func TestSpecValidation(t *testing.T) {
	base := loadExamples(t)["casestudy.json"]
	// A class supply past the planner's bound is refused before the search
	// builds one candidate per supplied host.
	oversupplied := base.Clone()
	oversupplied.Fleet = scenario.Fleet{Classes: []scenario.HostClass{
		{Preset: "amd", Count: 1 << 12}, {Preset: "intel", Count: 1},
	}}
	cases := []plan.Spec{
		{Scenario: base, Target: 0},
		{Scenario: base, Target: 1},
		{Scenario: base, Target: math.NaN()},
		{Scenario: base, Target: 0.05, Objective: "max-profit"},
		{Scenario: base, Target: 0.05, MaxIters: -1},
		{Scenario: oversupplied, Target: 0.05},
	}
	for i, spec := range cases {
		if _, err := plan.Search(context.Background(), eval.NewAnalytic(nil), nil, spec); err == nil {
			t.Errorf("case %d: invalid spec accepted", i)
		}
	}
}

// The sim evaluator plugs into the same search: plan a small fleet by
// simulation and require a feasible, deterministic result.
func TestPlanWithSimEvaluator(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed planning")
	}
	s := scenario.CaseStudy(2, 2, "consolidated", 2)
	s.Horizon = 20
	ev := eval.NewSim(nil)
	p, err := plan.Search(context.Background(), ev, nil, plan.Spec{Scenario: s, Target: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if p.Hosts <= 0 || p.Result.Source != "sim" {
		t.Fatalf("hosts=%d source=%s", p.Hosts, p.Result.Source)
	}
	if p.Result.Loss > 0.2 {
		t.Fatalf("loss %g above target", p.Result.Loss)
	}
	again, err := plan.Search(context.Background(), ev, nil, plan.Spec{Scenario: s, Target: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := p.EncodeJSON()
	b, _ := again.EncodeJSON()
	if !bytes.Equal(a, b) {
		t.Fatal("sim-backed plan not deterministic")
	}
}
