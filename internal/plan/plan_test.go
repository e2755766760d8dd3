package plan_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
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
		n, err := serversContinuous(m.ConsolidatedTraffic(j, m.Form), target, 0)
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

// serversContinuous reports the smallest fractional server count x (to the
// given resolution, default 1e-6) with BContinuous(x, rho) <= target — the
// capability-units sizing bound a heterogeneous plan cannot beat.
func serversContinuous(rho, target, resolution float64) (float64, error) {
	if rho < 0 || math.IsNaN(rho) || math.IsInf(rho, 0) {
		return 0, fmt.Errorf("%w: serversContinuous(rho=%g)", erlang.ErrInvalidInput, rho)
	}
	if target <= 0 || target > 1 || math.IsNaN(target) {
		return 0, fmt.Errorf("%w: serversContinuous(target=%g)", erlang.ErrInvalidInput, target)
	}
	if math.IsNaN(resolution) || math.IsInf(resolution, 0) {
		return 0, fmt.Errorf("%w: serversContinuous(resolution=%g)", erlang.ErrInvalidInput, resolution)
	}
	if resolution <= 0 {
		resolution = 1e-6
	}
	if rho == 0 {
		return 0, nil
	}
	// Bracket with the integer search, then bisect the final unit.
	n, err := erlang.Servers(rho, target, 0)
	if err != nil {
		return 0, err
	}
	if n == 0 {
		return 0, nil
	}
	lo, hi := float64(n-1), float64(n)
	for hi-lo > resolution {
		mid := (lo + hi) / 2
		b, err := erlang.BContinuous(mid, rho)
		if err != nil {
			return 0, err
		}
		if b <= target {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, nil
}

func TestServersContinuous(t *testing.T) {
	rho, target := 1.52, 0.05
	x, err := serversContinuous(rho, target, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Must satisfy the target...
	b, _ := erlang.BContinuous(x, rho)
	if b > target+1e-9 {
		t.Fatalf("B(%g) = %g exceeds target", x, b)
	}
	// ...and be tight within the resolution.
	b2, _ := erlang.BContinuous(x-1e-3, rho)
	if b2 <= target {
		t.Fatalf("x = %g not minimal (B(x-0.001) = %g)", x, b2)
	}
	// The integer answer brackets the fractional one.
	n, _ := erlang.Servers(rho, target, 0)
	if x > float64(n) || x < float64(n-1) {
		t.Fatalf("x = %g outside (%d-1, %d]", x, n, n)
	}
}

func TestServersContinuousEdge(t *testing.T) {
	if x, err := serversContinuous(0, 0.01, 0); err != nil || x != 0 {
		t.Fatalf("zero traffic: x=%g err=%v", x, err)
	}
	if _, err := serversContinuous(-1, 0.01, 0); err == nil {
		t.Fatal("negative traffic accepted")
	}
	if _, err := serversContinuous(1, 0, 0); err == nil {
		t.Fatal("zero target accepted")
	}
	// A NaN or infinite resolution would skip the bisection and return
	// the integer bracket.
	for _, res := range []float64{math.NaN(), math.Inf(1)} {
		if x, err := serversContinuous(1.52, 0.05, res); !errors.Is(err, erlang.ErrInvalidInput) {
			t.Errorf("resolution %g: x=%g err=%v, want erlang.ErrInvalidInput", res, x, err)
		}
	}
}

// Any pool size: byte-identical plan JSON.
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
				plan.Spec{Scenario: s, Target: target})
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
	// prices a mix.
	oversupplied := base.Clone()
	oversupplied.Fleet = scenario.Fleet{Classes: []scenario.HostClass{
		{Preset: "amd", Count: 1 << 12}, {Preset: "intel", Count: 1},
	}}
	cases := []struct {
		spec plan.Spec
		want string // a substring of the error
	}{
		{plan.Spec{Scenario: base, Target: 0}, "target"},
		{plan.Spec{Scenario: base, Target: 1}, "target"},
		{plan.Spec{Scenario: base, Target: math.NaN()}, "target"},
		{plan.Spec{Scenario: base, Target: 0.05, Objective: "max-profit"}, "objective"},
		// The annealing search's knobs are gone: any non-zero value names
		// the removal.
		{plan.Spec{Scenario: base, Target: 0.05, Seed: 7}, "seed and max_iters were removed"},
		{plan.Spec{Scenario: base, Target: 0.05, Seed: -1}, "seed and max_iters were removed"},
		{plan.Spec{Scenario: base, Target: 0.05, MaxIters: 200}, "seed and max_iters were removed"},
		{plan.Spec{Scenario: base, Target: 0.05, MaxIters: -1}, "seed and max_iters were removed"},
		{plan.Spec{Scenario: oversupplied, Target: 0.05}, "supply above"},
	}
	for i, c := range cases {
		_, err := plan.Search(context.Background(), eval.NewAnalytic(nil), nil, c.spec)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("case %d: err = %v, want one naming %q", i, err, c.want)
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

// evaluateOnly hides the evaluator it wraps behind Evaluate alone, so the
// planner takes the stamping route even for eval.Analytic: each
// candidate stamped onto the scenario and evaluated through Evaluate.
type evaluateOnly struct{ ev eval.Evaluator }

func (e evaluateOnly) Evaluate(ctx context.Context, s scenario.Scenario) (eval.Result, error) {
	return e.ev.Evaluate(ctx, s)
}

// The compiled route (the analytic kernel scoring placements inline) and
// the stamping route (the same evaluator behind an Evaluate-only
// decorator, handed a 2-slot pool) plan byte-identically, evaluations
// included.
func TestSearchRoutesAgree(t *testing.T) {
	examples := loadExamples(t)
	pl, err := pool.New(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, file, objective string
	}{
		{"plan-hetero min-servers", "plan-hetero.json", plan.MinServers},
		{"plan-hetero min-power", "plan-hetero.json", plan.MinPower},
		{"sharded-fleet", "sharded-fleet.json", ""},
		{"casestudy-dedicated", "casestudy-dedicated.json", ""},
	} {
		s, ok := examples[tc.file]
		if !ok {
			t.Fatalf("missing example %s", tc.file)
		}
		spec := plan.Spec{Scenario: s, Target: target, Objective: tc.objective}
		compiled, err := plan.Search(context.Background(), eval.NewAnalytic(nil), nil, spec)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		stamped, err := plan.Search(context.Background(), evaluateOnly{eval.NewAnalytic(nil)}, pl, spec)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		a, err := compiled.EncodeJSON()
		if err != nil {
			t.Fatal(err)
		}
		b, err := stamped.EncodeJSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s: compiled and stamped plans differ:\n%s\n%s", tc.name, a, b)
		}
	}
}

// Three groups of two or three classes of equal capability units plan
// byte-identically on both routes, evaluations included. Each group's
// first-listed class draws the most, and the other classes follow in a
// shuffled order. The fill leaves such a first class empty, so the
// stamped scenario of a mix lists its group without it, in another
// position among the groups, and must sum the units and draws as the
// kernel does.
func TestSearchRoutesAgreeOnEmptyFirstClasses(t *testing.T) {
	pl, err := pool.New(2)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(30))
	presets := []string{"amd", "blade", "intel"}
	emptied := 0
	for trial := range 40 {
		rates := 1 + rng.Float64()*4
		s := scenario.Scenario{
			Mode:     "consolidated",
			Services: []scenario.Service{scenario.WebSpec(2800*rates, 3), scenario.DBSpec(200*rates, 3)},
		}
		var cool []scenario.HostClass
		for _, preset := range presets {
			s.Fleet.Classes = append(s.Fleet.Classes, scenario.HostClass{Name: preset + "-hot", Preset: preset,
				Count: 1 + rng.Intn(6), Power: &scenario.Power{BaseW: 400, MaxW: 500}})
			for c := range 1 + rng.Intn(2) {
				base := 100 + rng.Float64()*150
				cool = append(cool, scenario.HostClass{Name: fmt.Sprintf("%s%d", preset, c), Preset: preset,
					Count: 1 + rng.Intn(6), Power: &scenario.Power{BaseW: base, MaxW: base + rng.Float64()*100}})
			}
		}
		rng.Shuffle(len(cool), func(i, j int) { cool[i], cool[j] = cool[j], cool[i] })
		s.Fleet.Classes = append(s.Fleet.Classes, cool...)
		for _, objective := range []string{plan.MinServers, plan.MinPower} {
			spec := plan.Spec{Scenario: s, Target: target, Objective: objective}
			compiled, err := plan.Search(context.Background(), eval.NewAnalytic(nil), nil, spec)
			if errors.Is(err, plan.ErrInfeasible) {
				continue
			}
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, objective, err)
			}
			stamped, err := plan.Search(context.Background(), evaluateOnly{eval.NewAnalytic(nil)}, pl, spec)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, objective, err)
			}
			a, err := compiled.EncodeJSON()
			if err != nil {
				t.Fatal(err)
			}
			b, err := stamped.EncodeJSON()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a, b) {
				t.Fatalf("trial %d %s: compiled and stamped plans differ:\n%s\n%s", trial, objective, a, b)
			}
			for g, preset := range presets {
				for _, cc := range compiled.Classes[len(presets):] {
					if compiled.Classes[g].Count == 0 && cc.Count > 0 && strings.HasPrefix(cc.Name, preset) {
						emptied++
						break
					}
				}
			}
		}
	}
	if emptied < 20 {
		t.Fatalf("only %d plans leave a group's first class empty and place the group", emptied)
	}
	t.Logf("%d placed groups without their first class", emptied)
}

// memoryBound is a two-service workload whose 6 GB VMs plus Domain 0 fit
// a 16 GB host but not the 8 GB default, on the given fleet.
func memoryBound(fleet scenario.Fleet) scenario.Scenario {
	web, db := scenario.WebSpec(200, 0), scenario.DBSpec(20, 0)
	web.MemoryGB, db.MemoryGB = 6, 6
	fleet.HostMemoryGB = 16
	return scenario.Scenario{
		Name:     "memory-bound",
		Mode:     "consolidated",
		Services: []scenario.Service{web, db},
		Fleet:    fleet,
		Horizon:  10,
	}
}

// Apply stamps a placement without dropping the fleet's memory sizes,
// and leaves its input untouched.
func TestPlanApplyKeepsFleetMemory(t *testing.T) {
	homogeneous := memoryBound(scenario.Fleet{Hosts: 4, Dom0MemoryGB: 2})
	got := plan.Plan{Hosts: 2}.Apply(homogeneous)
	if want := (scenario.Fleet{Hosts: 2, HostMemoryGB: 16, Dom0MemoryGB: 2}); !reflect.DeepEqual(got.Fleet, want) {
		t.Errorf("homogeneous fleet %+v, want %+v", got.Fleet, want)
	}
	if homogeneous.Fleet.Hosts != 4 {
		t.Errorf("Apply changed its input: hosts %d", homogeneous.Fleet.Hosts)
	}

	hetero := memoryBound(scenario.Fleet{Dom0MemoryGB: 2, Classes: []scenario.HostClass{
		{Preset: "amd", Count: 2}, {Preset: "intel", Count: 2},
	}})
	got = plan.Plan{Hosts: 1, Classes: []plan.ClassCount{{Name: "amd", Count: 0}, {Name: "intel", Count: 1}}}.Apply(hetero)
	want := scenario.Fleet{HostMemoryGB: 16, Dom0MemoryGB: 2, Classes: []scenario.HostClass{{Preset: "intel", Count: 1}}}
	if !reflect.DeepEqual(got.Fleet, want) {
		t.Errorf("heterogeneous fleet %+v, want %+v", got.Fleet, want)
	}

	dedicated := scenario.CaseStudy(4, 4, "dedicated", 0)
	got = plan.Plan{Hosts: 5, Dedicated: []plan.PoolSize{{Name: "web", Servers: 3}, {Name: "db", Servers: 2}}}.Apply(dedicated)
	if got.Services[0].DedicatedServers != 3 || got.Services[1].DedicatedServers != 2 {
		t.Errorf("dedicated pools %d/%d, want 3/2", got.Services[0].DedicatedServers, got.Services[1].DedicatedServers)
	}
}

// A scenario whose declared fleet simulates plans under the sim
// evaluator too: the candidates keep the fleet's host memory.
func TestPlanWithSimEvaluatorKeepsMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed planning")
	}
	ev := eval.NewSim(nil)
	for _, fleet := range []scenario.Fleet{
		{Hosts: 2},
		{Classes: []scenario.HostClass{{Preset: "amd", Count: 2}, {Preset: "intel", Count: 2}}},
	} {
		s := memoryBound(fleet)
		if _, err := ev.Evaluate(context.Background(), s); err != nil {
			t.Fatalf("declared fleet %+v: %v", fleet, err)
		}
		p, err := plan.Search(context.Background(), ev, nil, plan.Spec{Scenario: s, Target: 0.2})
		if err != nil {
			t.Fatalf("fleet %+v: %v", fleet, err)
		}
		if p.Hosts <= 0 || p.Result.Loss > 0.2 {
			t.Fatalf("fleet %+v: hosts=%d loss=%g", fleet, p.Hosts, p.Result.Loss)
		}
	}
}
