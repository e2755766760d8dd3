package eval

import (
	"context"
	"fmt"
	"math"
	"slices"

	"repro/internal/core"
	"repro/internal/erlang"
	"repro/internal/power"
	"repro/internal/scenario"
	"repro/internal/virt"
	"repro/internal/workload"
)

// Analytic scores candidates with the paper's utility analytic model. A
// scenario is compiled once (Compile) into a Kernel, and the kernel scores
// placements of its fleet: the fleet's capability units size an Erlang B
// loss per resource, and utilization and watts follow Eq. (9)–(14) with
// the platform factors of internal/power. Evaluate is Compile plus one
// Score of the scenario's declared fleet, so the analytic side has one
// scoring routine.
//
// Integer-unit fleets are answered from the shared copy-on-write
// erlang.Memo tables (lock-free reads, so concurrent plans share one
// growing table set); fractional capability units fall back to the
// continuous Erlang B extension.
type Analytic struct {
	memo *erlang.Memo
}

// NewAnalytic builds an analytic evaluator over the given memo; nil
// builds a private unbounded memo.
func NewAnalytic(memo *erlang.Memo) *Analytic {
	if memo == nil {
		memo = erlang.NewMemo(0, 0)
	}
	return &Analytic{memo: memo}
}

// Memo exposes the evaluator's Erlang tables, so a host process (the HTTP
// service) can share one memo between its hot single-query path and the
// planner.
func (a *Analytic) Memo() *erlang.Memo { return a.memo }

// evalLossTarget is the placeholder sizing target used when bridging a
// scenario for fixed-fleet evaluation: Evaluate never sizes, it only reads
// traffic, so any value in (0, 1) works.
const evalLossTarget = 0.5

// Evaluate scores the candidate analytically. It accepts raw or resolved
// scenarios (it compiles a private resolved copy) and returns
// ErrUnsupported for scenarios outside the analytic model's domain —
// closed-loop services, failure injection, or non-flowing allocators.
func (a *Analytic) Evaluate(ctx context.Context, s scenario.Scenario) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	resolved, err := s.Resolve()
	if err != nil {
		return Result{}, err
	}
	k, err := a.Compile(resolved)
	if err != nil {
		return Result{}, err
	}
	return k.Score(k.declared)
}

// Placement is one candidate fleet for a compiled scenario, in the shape
// of its mode: a homogeneous consolidated host count, per-class host
// counts for a heterogeneous consolidated fleet, or per-service pool
// sizes in dedicated mode.
type Placement struct {
	// Hosts is a homogeneous consolidated fleet's host count.
	Hosts int

	// Classes holds per-class host counts in scenario class order; a
	// zero count places no host of that class.
	Classes []int

	// Dedicated holds per-service pool sizes in scenario service order.
	Dedicated []int
}

// Kernel is a scenario compiled for the analytic model. Between the
// candidates a sizing search tries only the fleet changes — λᵢ, μᵢⱼ, aᵢⱼ
// and the merged traffic ρ′ⱼ of Eq. (5) stay fixed — so validation and
// the bridge to core.Model run once, in Compile, and Score prices a
// Placement with one Erlang B read per resource (per pool and resource in
// dedicated mode) plus the Eq. (9)–(14) arithmetic, with no scenario
// clone and no map. A Kernel is immutable and safe for concurrent use.
type Kernel struct {
	memo     *erlang.Memo
	model    *core.Model // the bridged model; Scale rescales its arrival rates
	mode     string
	declared Placement // the compiled scenario's own fleet

	services []kernelService
	rho      []float64 // ρ′ⱼ per resource, in sorted resource order
	demand   float64   // Σⱼ ρ′ⱼ, the Eq. (10) numerator

	capability []float64           // per host class: ClassCapability
	classPower []power.ServerModel // per host class: its power model
	twin       []int               // per host class: the first class of the same hardware
	nextTwin   []int               // per host class: the next class of its hardware, or -1
	fleetPower power.ServerModel
	platform   power.Platform
}

// kernelService is one service's share of a Kernel.
type kernelService struct {
	name    string
	demands []kernelDemand // resources with finite μᵢⱼ, in sorted resource order
}

// kernelDemand is one resource a service demands.
type kernelDemand struct {
	res int     // index into the kernel's resources
	rho float64 // ρᵢⱼ = λᵢ/μᵢⱼ (Eq. 3), a dedicated pool's offered traffic
}

// Compile bridges a resolved scenario to the analytic model once
// (ModelFromScenario), returning the kernel that scores placements of its
// fleet. The scenario must come from scenario.Scenario.Resolve, which
// copied, defaulted and validated it; Compile reads it without doing any
// of the three again, and fails where Evaluate does past validation, with
// ErrUnsupported outside the model's domain.
func (a *Analytic) Compile(resolved scenario.Scenario) (*Kernel, error) {
	m, err := bridge(resolved, evalLossTarget)
	if err != nil {
		return nil, err
	}
	k := &Kernel{memo: a.memo, mode: resolved.Mode}
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
		classes := resolved.Fleet.Classes
		for c, hc := range classes {
			model := k.fleetPower
			if hc.Power != nil {
				model = power.ServerModel{Base: hc.Power.BaseW, Max: hc.Power.MaxW}
			}
			k.capability = append(k.capability, ClassCapability(hc, resources))
			k.classPower = append(k.classPower, model)
			k.declared.Classes = append(k.declared.Classes, hc.Count)
			k.twin = append(k.twin, c)
			k.nextTwin = append(k.nextTwin, -1)
			for d := range c {
				if k.twin[d] == d && k.classPower[d] == model && sameCapability(classes[d], hc) {
					k.twin[c] = d
					last := d
					for k.nextTwin[last] >= 0 {
						last = k.nextTwin[last]
					}
					k.nextTwin[last] = c
					break
				}
			}
		}
	}
	k.flatten(m)
	return k, nil
}

// flatten derives the kernel's traffic from the bridged model: ρ′ⱼ per
// resource under the model's TrafficForm, and each service's ρᵢⱼ in the
// model's sorted resource order, so every sum runs in a fixed order.
func (k *Kernel) flatten(m *core.Model) {
	k.model = m
	k.rho = make([]float64, len(m.Resources))
	k.demand = 0
	for j, r := range m.Resources {
		k.rho[j] = m.ConsolidatedTraffic(r, m.Form)
		k.demand += k.rho[j]
	}
	k.services = make([]kernelService, len(m.Services))
	for i, svc := range m.Services {
		ks := kernelService{name: svc.Name}
		for j, r := range m.Resources {
			if mu, ok := svc.ServingRates[r]; ok && !math.IsInf(mu, 1) {
				ks.demands = append(ks.demands, kernelDemand{res: j, rho: svc.ArrivalRate / mu})
			}
		}
		k.services[i] = ks
	}
}

// Scale returns the kernel of the same scenario with service i's arrival
// rate multiplied by mults[i]: the stationary operating point
// scenario.Stationary builds for a periods bin or segment peak, whose
// Poisson rates are the same rate·mult products, so scoring a placement
// on the scaled kernel matches compiling that stationary scenario bit for
// bit. Fleet, classes and power are shared with k.
func (k *Kernel) Scale(mults []float64) (*Kernel, error) {
	if len(mults) != len(k.model.Services) {
		return nil, fmt.Errorf("%w: %d multipliers for %d services", scenario.ErrInvalid, len(mults), len(k.model.Services))
	}
	m := *k.model
	m.Services = make([]core.Service, len(k.model.Services))
	for i, svc := range k.model.Services {
		svc.ArrivalRate *= mults[i]
		// The check validating the stationary scenario's Poisson arrivals;
		// it also refuses a multiplier that is not positive and finite.
		if err := workload.PoissonSpec(svc.ArrivalRate).Validate(); err != nil {
			return nil, fmt.Errorf("service %d: %w", i, err)
		}
		m.Services[i] = svc
	}
	out := *k
	out.flatten(&m)
	return &out, nil
}

// Score prices placement p, which must have the compiled scenario's
// shape: per-service pool sizes in dedicated mode, one count per host
// class for a heterogeneous fleet, else a host count.
func (k *Kernel) Score(p Placement) (Result, error) {
	if k.mode == "dedicated" {
		return k.scoreDedicated(p)
	}
	return k.scoreConsolidated(p)
}

// sameCapability reports whether two host classes list the same
// capability multipliers once presets are expanded.
func sameCapability(a, b scenario.HostClass) bool {
	ca, cb := a.ResolvedCapability(), b.ResolvedCapability()
	if len(ca) != len(cb) {
		return false
	}
	for r, v := range ca {
		if w, ok := cb[r]; !ok || w != v {
			return false
		}
	}
	return true
}

// Price is consolidated placement p's score without its losses: the host
// count, the capability units summed in class order, the Eq. (10)
// utilization and the per-class draws summed in class order. Twins —
// classes listing the same capability and power, which no evaluator
// tells apart — are summed as one class where the first of them is
// listed, so a count prices alike however it is split among them. Score
// runs the same arithmetic, so a placement's price and its score agree
// bit for bit; Price reads no Erlang B and does not check p's shape.
func (k *Kernel) Price(p Placement) Result {
	pr := Result{Source: "analytic", Mode: k.mode}
	if len(k.capability) == 0 {
		pr.Hosts, pr.CapabilityUnits = p.Hosts, float64(p.Hosts)
	}
	for c, n := range p.Classes {
		pr.Hosts += n
		if k.twin[c] == c {
			pr.CapabilityUnits += float64(k.twinHosts(p.Classes, c)) * k.capability[c]
		}
	}
	if pr.CapabilityUnits > 0 {
		pr.Utilization = k.demand / pr.CapabilityUnits
	}
	if len(k.capability) == 0 {
		pr.Watts = power.SteadyStateDraw(k.fleetPower, pr.Hosts, pr.Utilization, k.platform)
	}
	for c := range p.Classes {
		if k.twin[c] == c {
			pr.Watts += power.SteadyStateDraw(k.classPower[c], k.twinHosts(p.Classes, c), pr.Utilization, k.platform)
		}
	}
	return pr
}

// twinHosts reports the hosts counts places on class c and its later twins.
func (k *Kernel) twinHosts(counts []int, c int) int {
	n := counts[c]
	for d := k.nextTwin[c]; d >= 0 && d < len(counts); d = k.nextTwin[d] {
		n += counts[d]
	}
	return n
}

// ClassCost is one host class as Price sees it: a host's capability units,
// its idle draw, the draw it adds at full utilization on the kernel's
// platform, and Twin, the first class of the same hardware (the class
// itself when no earlier class is its twin).
type ClassCost struct {
	Units, IdleW, ActiveW float64
	Twin                  int
}

// ClassCosts reports the compiled fleet's host classes in class order.
func (k *Kernel) ClassCosts() []ClassCost {
	out := make([]ClassCost, len(k.capability))
	for c, m := range k.classPower {
		idle := m.IdleDraw(k.platform)
		out[c] = ClassCost{Units: k.capability[c], IdleW: idle, ActiveW: m.Draw(1, k.platform) - idle, Twin: k.twin[c]}
	}
	return out
}

// Demand reports Σⱼ ρ′ⱼ, the offered work whose ratio to a fleet's
// capability units is its Eq. (10) utilization.
func (k *Kernel) Demand() float64 { return k.demand }

// UnitsFloor reports the largest whole number of capability units that
// cannot meet loss target: maxⱼ n*ⱼ − 1, where n*ⱼ is the smallest integer
// with B(n*ⱼ, ρ′ⱼ) <= target in the kernel's memo. Erlang B falls as the
// units grow, so a fleet of at most that many units misses the target on
// some resource. The search for n*ⱼ starts where B(n, ρ) >= 1 − n/ρ
// still rules n out and stops at ceil(maxUnits): a resource that needs
// more reports that ceiling.
func (k *Kernel) UnitsFloor(target, maxUnits float64) (float64, error) {
	top := math.Ceil(maxUnits)
	floor := 0.0
	for _, rho := range k.rho {
		if !(rho >= 0 && rho < math.Inf(1)) {
			return 0, fmt.Errorf("eval: capability bound at traffic %g", rho)
		}
		// Every n <= ρ(1 − target) − 1 misses the target by the bound.
		n := math.Max(0, math.Floor(rho*(1-target))-1)
		for ; n < top; n++ {
			b, err := k.loss(n+1, rho)
			if err != nil {
				return 0, err
			}
			if b <= target {
				break
			}
		}
		floor = math.Max(floor, math.Min(n, top))
	}
	return floor, nil
}

// scoreConsolidated scores a consolidated fleet: loss per resource is
// Erlang B of the merged traffic ρ′ⱼ (Eq. 5) over the fleet's capability
// units, a service's loss is the worst over the resources it demands, and
// watts sum per-class draws at the Eq. (10) utilization (Price).
func (k *Kernel) scoreConsolidated(p Placement) (Result, error) {
	if len(p.Dedicated) > 0 || len(p.Classes) != len(k.capability) {
		return Result{}, fmt.Errorf("eval: placement does not fit a consolidated fleet of %d host classes", len(k.capability))
	}
	res := k.Price(p)
	// A stack buffer holds the per-resource losses for the usual few
	// resources, so a score allocates only its Services slice.
	var buf [8]float64
	lossByResource := buf[:0]
	if len(k.rho) > len(buf) {
		lossByResource = make([]float64, 0, len(k.rho))
	}
	for _, rho := range k.rho {
		b, err := k.loss(res.CapabilityUnits, rho)
		if err != nil {
			return Result{}, err
		}
		lossByResource = append(lossByResource, b)
		if b > res.Loss {
			res.Loss = b
		}
	}
	res.Services = make([]ServiceLoss, len(k.services))
	for i, svc := range k.services {
		worst := 0.0
		for _, d := range svc.demands {
			if b := lossByResource[d.res]; b > worst {
				worst = b
			}
		}
		res.Services[i] = ServiceLoss{Name: svc.name, Loss: worst}
	}
	return res, nil
}

// scoreDedicated scores per-service dedicated pools: each service's pool
// of reference servers sees its own offered traffic ρᵢⱼ = λᵢ/μᵢⱼ
// (Eq. 3), and watts sum per-pool draws at each pool's Eq. (9)
// utilization.
func (k *Kernel) scoreDedicated(p Placement) (Result, error) {
	if len(p.Dedicated) != len(k.services) {
		return Result{}, fmt.Errorf("eval: placement has %d dedicated pools for %d services", len(p.Dedicated), len(k.services))
	}
	res := Result{Source: "analytic", Mode: k.mode, Services: make([]ServiceLoss, len(k.services))}
	totalDemand := 0.0
	for i, svc := range k.services {
		n := p.Dedicated[i]
		res.Hosts += n
		worst := 0.0
		demand := 0.0
		for _, d := range svc.demands {
			demand += d.rho
			b, err := k.loss(float64(n), d.rho)
			if err != nil {
				return Result{}, err
			}
			if b > worst {
				worst = b
			}
		}
		res.Services[i] = ServiceLoss{Name: svc.name, Loss: worst}
		if worst > res.Loss {
			res.Loss = worst
		}
		totalDemand += demand
		if n > 0 {
			res.Watts += power.SteadyStateDraw(k.fleetPower, n, demand/float64(n), k.platform)
		}
	}
	res.CapabilityUnits = float64(res.Hosts)
	if res.Hosts > 0 {
		res.Utilization = totalDemand / float64(res.Hosts)
	}
	return res, nil
}

// loss evaluates Erlang B over a possibly fractional server count: the
// memoized integer tables when units is whole, the continuous extension
// otherwise.
func (k *Kernel) loss(units, rho float64) (float64, error) {
	if rho == 0 {
		if units == 0 {
			return 1, nil
		}
		return 0, nil
	}
	if n := math.Round(units); math.Abs(units-n) < 1e-9 && n >= 0 {
		return k.memo.B(int(n), rho)
	}
	return erlang.BContinuous(units, rho)
}

// scenarioPower reads the resolved scenario's power model and platform.
func scenarioPower(s scenario.Scenario) (power.ServerModel, power.Platform) {
	model := power.DefaultServer
	platform := power.XenRainbow
	if s.Power != nil {
		if s.Power.BaseW != 0 || s.Power.MaxW != 0 {
			model = power.ServerModel{Base: s.Power.BaseW, Max: s.Power.MaxW}
		}
		if s.Power.Platform == "linux" {
			platform = power.NativeLinux
		}
	} else if s.Mode == "dedicated" {
		platform = power.NativeLinux
	}
	return model, platform
}

// ModelFromScenario bridges a declarative scenario to the paper's analytic
// model: per-service arrival rates come from the built arrival process's
// mean rate, serving rates from the compiled demand profile (μ = 1/mean
// demand, Eq. 3), and impact factors from the overhead curves evaluated at
// the number of co-located VMs actively demanding each resource — exactly
// the case-study convention (disk at v = 1, CPU at v = 2 for the Web+DB
// pair).
//
// The scenario must be analytic-model shaped: every service open-loop, no
// failure injection, and no explicit allocator (the model assumes ideal
// on-demand resource flowing). Anything else returns ErrUnsupported; the
// sim evaluator handles those scenarios.
func ModelFromScenario(s scenario.Scenario, lossTarget float64) (*core.Model, error) {
	resolved, err := s.Resolve()
	if err != nil {
		return nil, err
	}
	return bridge(resolved, lossTarget)
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
