package eval

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/power"
	"repro/internal/scenario"
	"repro/internal/stats"
	"repro/internal/virt"
	"repro/internal/workload"
)

// The test oracle for lower: Compile and ModelFromScenario as they were
// when both went through a map-based core.Model. bridge built the model,
// flatten read its maps into the kernel's slab, and compileByBridge is
// the Compile that called them. bridge and flatten are kept as they
// were, except that flatten no longer stores the model's TrafficForm: the
// kernel reads Eq. (5) in its restricted form, the zero TrafficForm the
// bridge left in m.Form.

// evalLossTarget is the placeholder sizing target Compile bridged with:
// a kernel never sizes, so any value in (0, 1) works.
const evalLossTarget = 0.5

// compileByBridge is Compile over the bridge.
func (a *Analytic) compileByBridge(resolved scenario.Scenario) (*Kernel, error) {
	m, err := bridge(resolved, evalLossTarget)
	if err != nil {
		return nil, err
	}
	k := &Kernel{compiled: &compiled{memo: a.memo, mode: resolved.Mode}}
	k.fleetPower, k.platform = scenarioPower(resolved)
	switch {
	case resolved.Mode == "dedicated":
		k.declared.Dedicated = make([]int, len(resolved.Services))
		for i := range resolved.Services {
			k.declared.Dedicated[i] = resolved.Services[i].DedicatedServers
		}
	case len(resolved.Fleet.Classes) == 0:
		k.declared.Hosts = resolved.Fleet.Hosts
	default:
		resources := make([]string, len(m.Resources))
		for j, r := range m.Resources {
			resources[j] = string(r)
		}
		n := len(resolved.Fleet.Classes)
		k.capability, k.classPower = make([]float64, n), make([]power.ServerModel, n)
		k.declared.Classes, k.order = make([]int, n), make([]int, n)
		for c, hc := range resolved.Fleet.Classes {
			k.classPower[c] = k.fleetPower
			if hc.Power != nil {
				k.classPower[c] = power.ServerModel{Base: hc.Power.BaseW, Max: hc.Power.MaxW}
			}
			k.capability[c] = ClassCapability(hc, resources)
			k.declared.Classes[c] = hc.Count
			// Insert c after every class that does not sort above it.
			i := c
			for ; i > 0 && k.above(k.order[i-1], c); i-- {
				k.order[i] = k.order[i-1]
			}
			k.order[i] = c
		}
	}
	k.flatten(m)
	for j, r := range m.Resources {
		k.resources = append(k.resources, string(r))
		// ρ′ⱼ from the model's own Eq. (5), in the model's form.
		k.rho[j] = m.ConsolidatedTraffic(r, m.Form)
	}
	return k, nil
}

// flatten reads the bridged model's maps once, into one slab: μᵢⱼ and
// aᵢⱼ per resource, in the model's sorted resource order so every sum
// runs in a fixed order, then the model's own level.
func (k *Kernel) flatten(m *core.Model) {
	S, R := len(m.Services), len(m.Resources)
	k.names = make([]string, S)
	slab := make([]float64, 2*R*S+levelSize(S, R))
	k.mu, k.impact = slab[:R*S:R*S], slab[R*S:2*R*S:2*R*S]
	k.level = carve(slab[2*R*S:], S, R)
	for i, svc := range m.Services {
		k.names[i] = svc.Name
		k.lambda[i] = svc.ArrivalRate
		for j, r := range m.Resources {
			mu, ok := svc.ServingRates[r]
			if !ok {
				mu = math.Inf(1)
			}
			a, ok := svc.ImpactFactors[r]
			if !ok {
				a = 1
			}
			k.mu[j*S+i], k.impact[j*S+i] = mu, a
		}
	}
	k.derive()
}

// bridge is ModelFromScenario on a resolved scenario.
func bridge(resolved scenario.Scenario, lossTarget float64) (*core.Model, error) {
	if resolved.Periods != nil {
		return nil, fmt.Errorf("%w: a periods scenario is time-varying; plan it bin by bin (plan.SearchPeriods)", ErrUnsupported)
	}
	if resolved.Failures != nil {
		return nil, fmt.Errorf("%w: failure injection has no analytic form", ErrUnsupported)
	}
	if resolved.Alloc != nil {
		return nil, fmt.Errorf("%w: explicit allocator policies have no analytic form (the model assumes ideal flowing)", ErrUnsupported)
	}

	// vms[r] counts the services demanding resource r: the number of
	// co-located VMs actively using r on a consolidated host, which is the
	// v the impact curves a(v) are evaluated at. Its keys are the
	// scenario's resources (ScenarioResources).
	vms := make(map[string]int)
	profiles := make([]profileInfo, len(resolved.Services))
	for i := range resolved.Services {
		svc := resolved.Services[i]
		profile, err := svc.CompileProfile()
		if err != nil {
			return nil, fmt.Errorf("eval: service %d: %w", i, err)
		}
		overhead, err := svc.CompileOverhead()
		if err != nil {
			return nil, fmt.Errorf("eval: service %d: %w", i, err)
		}
		profiles[i] = profileInfo{name: profile.Name, profile: profile, overhead: overhead}
		for r := range profile.Demands {
			vms[r]++
		}
	}

	m := &core.Model{LossTarget: lossTarget}
	for r := range vms {
		m.Resources = append(m.Resources, core.Resource(r))
	}
	slices.Sort(m.Resources)
	seen := map[string]int{}
	for i := range resolved.Services {
		svc := resolved.Services[i]
		if svc.Clients > 0 || svc.Arrivals == nil {
			return nil, fmt.Errorf("%w: service %q is closed-loop (no open-loop arrival rate; use the sim evaluator)", ErrUnsupported, profiles[i].name)
		}
		proc, err := svc.Arrivals.Build()
		if err != nil {
			return nil, fmt.Errorf("eval: service %d arrivals: %w", i, err)
		}
		name := profiles[i].name
		// The analytic model requires unique service names; disambiguate
		// duplicates positionally like reports do.
		if n := seen[name]; n > 0 {
			name = fmt.Sprintf("%s#%d", name, n+1)
		}
		seen[profiles[i].name]++

		cs := core.Service{
			Name:          name,
			ArrivalRate:   proc.Rate(),
			ServingRates:  map[core.Resource]float64{},
			ImpactFactors: map[core.Resource]float64{},
		}
		for r := range profiles[i].profile.Demands {
			mu := profiles[i].profile.ServingRate(r)
			// The OS software ceiling caps a single OS image's completion
			// rate regardless of spare hardware (Fig. 8): the paper's
			// Table I uses the capped rate as the DB service's μ.
			if ceil := profiles[i].profile.OSCeiling; ceil > 0 && mu > ceil {
				mu = ceil
			}
			cs.ServingRates[core.Resource(r)] = mu
			a, err := profiles[i].overhead.Factor(r, vms[r])
			if err != nil {
				return nil, fmt.Errorf("eval: service %d overhead on %q: %w", i, r, err)
			}
			cs.ImpactFactors[core.Resource(r)] = a
		}
		m.Services = append(m.Services, cs)
	}
	if resolved.Power != nil {
		m.Power = core.PowerParams{Base: resolved.Power.BaseW, Max: resolved.Power.MaxW}
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

type profileInfo struct {
	name     string
	profile  workload.ServiceProfile
	overhead virt.HostOverhead
}

// sameFloats reports whether two slices agree bit for bit.
func sameFloats(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// kernelDiff names the first part in which kernel got differs from want,
// floats compared bit for bit, or returns "".
func kernelDiff(got, want *Kernel) string {
	for _, c := range []struct {
		part string
		same bool
	}{
		{"mode", got.mode == want.mode && got.memo == want.memo},
		{"names", slices.Equal(got.names, want.names)},
		{"resources", slices.Equal(got.resources, want.resources)},
		{"λ", sameFloats(got.lambda, want.lambda)},
		{"μ", sameFloats(got.mu, want.mu)},
		{"a", sameFloats(got.impact, want.impact)},
		{"ρ′", sameFloats(got.rho, want.rho)},
		{"dedicated ρ", sameFloats(got.offered, want.offered)},
		{"demand", math.Float64bits(got.demand) == math.Float64bits(want.demand)},
		{"class capability", sameFloats(got.capability, want.capability)},
		{"class power", slices.Equal(got.classPower, want.classPower)},
		{"class order", slices.Equal(got.order, want.order)},
		{"fleet power", got.fleetPower == want.fleetPower && got.platform == want.platform},
		{"declared placement", reflect.DeepEqual(got.declared, want.declared)},
	} {
		if !c.same {
			return c.part
		}
	}
	return ""
}

// sameError reports whether two errors read alike and wrap the same
// sentinels.
func sameError(a, b error) bool {
	return fmt.Sprint(a) == fmt.Sprint(b) &&
		errors.Is(a, ErrUnsupported) == errors.Is(b, ErrUnsupported) &&
		errors.Is(a, core.ErrInvalidModel) == errors.Is(b, core.ErrInvalidModel)
}

// checkAgainstBridge compiles and bridges s both ways. The kernels must
// agree bit for bit; ModelFromScenario's model must equal the bridge's
// but for the entries of a demand of mean 0 (μ = +Inf), which it leaves
// out; and every error must read alike. It returns Compile's error.
func checkAgainstBridge(t *testing.T, label string, s scenario.Scenario) error {
	t.Helper()
	resolved, err := s.Resolve()
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	a := NewAnalytic(nil)
	got, err := a.Compile(resolved)
	want, wantErr := a.compileByBridge(resolved)
	if !sameError(err, wantErr) {
		t.Errorf("%s: Compile err = %v, bridge err = %v", label, err, wantErr)
	} else if err == nil {
		if part := kernelDiff(got, want); part != "" {
			t.Errorf("%s: kernel %s differs from the bridge's", label, part)
		}
	}
	m, mErr := ModelFromScenario(s, 0.05)
	wantM, wantMErr := bridge(resolved, 0.05)
	if !sameError(mErr, wantMErr) {
		t.Errorf("%s: ModelFromScenario err = %v, bridge err = %v", label, mErr, wantMErr)
	} else if mErr == nil {
		for _, svc := range wantM.Services {
			for r, mu := range svc.ServingRates {
				if math.IsInf(mu, 1) {
					delete(svc.ServingRates, r)
					delete(svc.ImpactFactors, r)
				}
			}
		}
		if !reflect.DeepEqual(m, wantM) {
			t.Errorf("%s: ModelFromScenario = %+v, bridge = %+v", label, m, wantM)
		}
	}
	return err
}

// Compile and ModelFromScenario lower a scenario as the bridge did: every
// shipped scenario (with its periods and without), a seeded corpus and
// the inputs the model refuses.
func TestCompileMatchesBridge(t *testing.T) {
	var files []string
	for _, glob := range []string{"../../examples/scenarios/*.json", "../../cmd/consolidate/testdata/*.json"} {
		matches, err := filepath.Glob(glob)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, matches...)
	}
	compiled := 0
	for _, path := range files {
		if strings.HasPrefix(filepath.Base(path), "sweep-") {
			continue // a sweep spec, not a scenario
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		s, err := scenario.ParseBytes(data)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if checkAgainstBridge(t, path, s) == nil {
			compiled++
		}
		if s.Periods != nil {
			s.Periods = nil
			if checkAgainstBridge(t, path+" without periods", s) == nil {
				compiled++
			}
		}
	}
	if compiled < 8 {
		t.Errorf("only %d shipped scenarios compiled", compiled)
	}

	rng := rand.New(rand.NewSource(31))
	compiled = 0
	const corpus = 300
	for n := 0; n < corpus; n++ {
		if checkAgainstBridge(t, fmt.Sprintf("corpus scenario %d", n), randomScenario(rng)) == nil {
			compiled++
		}
	}
	if compiled < corpus/2 || compiled == corpus {
		t.Errorf("%d of %d corpus scenarios compiled: the corpus must mostly compile and sometimes fail", compiled, corpus)
	}

	for _, c := range refusedScenarios() {
		if checkAgainstBridge(t, c.name, c.s) == nil {
			t.Errorf("%s: compiled", c.name)
		}
	}
}

// refusedScenarios are inputs the analytic model refuses, one per check
// and in the order the bridge made them.
func refusedScenarios() []struct {
	name string
	s    scenario.Scenario
} {
	inline := func(name string, demands map[string]stats.DistSpec) scenario.Service {
		return scenario.Service{
			Profile:  scenario.Profile{Name: name, Demands: demands},
			Arrivals: workload.PoissonSpec(100),
		}
	}
	exp := stats.DistSpec{Kind: "exponential", Rate: 500}
	infinite := stats.DistSpec{Kind: "pareto", Xm: 0.001, Alpha: 1}
	zero := stats.DistSpec{Kind: "deterministic"}
	base := func(services ...scenario.Service) scenario.Scenario {
		return scenario.Scenario{Mode: "consolidated", Services: services, Fleet: scenario.Fleet{Hosts: 4}, Horizon: 60}
	}
	failures := base(inline("w", map[string]stats.DistSpec{"cpu": exp}))
	failures.Failures = &scenario.Failures{MTBF: 100, MTTR: 10}
	alloc := base(inline("w", map[string]stats.DistSpec{"cpu": exp}))
	alloc.Alloc = &scenario.Alloc{Policy: "static"}
	named := func(name string) scenario.Service {
		svc := inline("p", map[string]stats.DistSpec{"cpu": exp})
		svc.Name = name
		return svc
	}
	arrivals := func(spec *workload.ArrivalSpec) scenario.Service {
		svc := inline("r", map[string]stats.DistSpec{"cpu": exp})
		svc.Arrivals = spec
		return svc
	}
	return []struct {
		name string
		s    scenario.Scenario
	}{
		{"closed loop", scenario.Scenario{Mode: "consolidated", Services: []scenario.Service{scenario.DBClosedSpec(100, 0)}, Fleet: scenario.Fleet{Hosts: 4}}},
		{"failures", failures},
		{"allocator", alloc},
		{"infinite mean", base(inline("p", map[string]stats.DistSpec{"cpu": infinite, "diskio": exp}))},
		{"zero means only", base(inline("z", map[string]stats.DistSpec{"cpu": zero, "net": zero}))},
		{"repeated #n name", base(named("x"), named("x"), named("x#2"))},
		{"arrival rate 0", base(arrivals(&workload.ArrivalSpec{Kind: "renewal", Inter: &stats.DistSpec{Kind: "pareto", Xm: 1, Alpha: 0.5}}))},
		{"arrival rate +Inf", base(arrivals(&workload.ArrivalSpec{Kind: "sessions", SessionRate: 1e308, MeanRequests: 10}))},
		// A build error of a later service comes before a check of an
		// earlier one.
		{"infinite mean, then closed loop", base(inline("p", map[string]stats.DistSpec{"cpu": infinite}), scenario.DBClosedSpec(100, 0))},
		{"zero means, then infinite mean", base(inline("z", map[string]stats.DistSpec{"cpu": zero}), inline("p", map[string]stats.DistSpec{"cpu": infinite}))},
	}
}

// randomScenario draws a scenario over up to four of five resources: one
// to four services, three in four with inline profiles over one to four
// resources — some demands of mean 0, at most one of infinite mean, some
// OS ceilings, names that repeat or read as another's #2 — and the rest
// presets; overhead presets, inline curves and xen-scheduled pinning; and
// a homogeneous, heterogeneous or dedicated fleet.
func randomScenario(rng *rand.Rand) scenario.Scenario {
	resources := []string{"cpu", "diskio", "gpu", "mem", "net"}
	pick := func(options ...string) string { return options[rng.Intn(len(options))] }
	s := scenario.Scenario{Mode: "consolidated", Horizon: 60}
	if rng.Intn(4) == 0 {
		s.Mode = "dedicated"
	}
	infinite := rng.Intn(8) == 0
	for n := 1 + rng.Intn(4); len(s.Services) < n; {
		svc := scenario.Service{
			Arrivals:         workload.PoissonSpec(1 + 3000*rng.Float64()),
			DedicatedServers: 1 + rng.Intn(8),
		}
		if rng.Intn(4) == 0 {
			svc.Profile.Preset = pick("specweb-ecommerce", "specweb-cpubound", "tpcw-ebook")
		} else {
			svc.Profile.Name = pick("a", "b", "a#2")
			svc.Profile.Demands = map[string]stats.DistSpec{}
			for _, j := range rng.Perm(len(resources))[:1+rng.Intn(4)] {
				d := stats.DistSpec{Kind: "exponential", Rate: 50 + 5000*rng.Float64()}
				switch {
				case infinite:
					d, infinite = stats.DistSpec{Kind: "pareto", Xm: 0.001, Alpha: 0.5 + rng.Float64()/2}, false
				case rng.Intn(6) == 0:
					d = stats.DistSpec{Kind: "deterministic"}
				case rng.Intn(3) == 0:
					lo := 0.001 * rng.Float64()
					d = stats.DistSpec{Kind: "uniform", Lo: lo, Hi: lo + 0.002*rng.Float64()}
				}
				svc.Profile.Demands[resources[j]] = d
			}
			if rng.Intn(4) == 0 {
				svc.Profile.OSCeiling = 50 + 2000*rng.Float64()
			}
		}
		if rng.Intn(5) == 0 {
			svc.Name = "s"
		}
		switch rng.Intn(3) {
		case 1:
			svc.Overhead = &scenario.Overhead{Preset: pick("web", "db", "none")}
		case 2:
			svc.Overhead = &scenario.Overhead{Curves: map[string]scenario.Curve{}}
			for _, j := range rng.Perm(len(resources))[:rng.Intn(4)] {
				svc.Overhead.Curves[resources[j]] = []scenario.Curve{
					{Kind: "linear", Intercept: 1.2 * rng.Float64(), Slope: rng.Float64() - 0.5},
					{Kind: "rational", C: 0.5 + rng.Float64()},
					{Kind: "constant", Value: 0.2 + rng.Float64()},
				}[rng.Intn(3)]
			}
		}
		if svc.Overhead != nil && rng.Intn(3) == 0 {
			svc.Overhead.Pinning = "xen-scheduled"
			if rng.Intn(2) == 0 {
				svc.Overhead.CPUResources = []string{"cpu", "gpu"}
			}
		}
		s.Services = append(s.Services, svc)
	}
	switch {
	case s.Mode == "dedicated":
	case rng.Intn(2) == 0:
		s.Fleet.Hosts = 1 + rng.Intn(10)
	default:
		for c := 1 + rng.Intn(3); c > 0; c-- {
			hc := scenario.HostClass{Name: fmt.Sprintf("class-%d", c), Count: 1 + rng.Intn(6)}
			if rng.Intn(2) == 0 {
				hc.Preset = pick("amd", "intel", "blade")
			} else {
				hc.Capability = map[string]float64{resources[rng.Intn(len(resources))]: 0.25 + 1.5*rng.Float64()}
			}
			if rng.Intn(3) == 0 {
				hc.Power = &scenario.Power{BaseW: 100 + 100*rng.Float64(), MaxW: 250 + 100*rng.Float64()}
			}
			s.Fleet.Classes = append(s.Fleet.Classes, hc)
		}
	}
	if rng.Intn(3) == 0 {
		s.Power = &scenario.Power{BaseW: 100 + 100*rng.Float64(), MaxW: 250 + 100*rng.Float64(), Platform: pick("", "linux", "xen")}
	}
	return s
}
