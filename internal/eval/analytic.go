package eval

import (
	"cmp"
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
// the scenario's lowering run once, in Compile, which writes them
// straight into flat per-(service, resource) arrays. ScoreInto prices a
// Placement with one Erlang B read per resource (per pool and resource
// in dedicated mode) plus the Eq. (9)–(14) arithmetic, with no scenario
// clone, no map and no allocation. A level — the same scenario at other
// arrival rates (Levels) — is another λ vector over the same
// arrays. A Kernel is immutable and safe for concurrent use.
type Kernel struct {
	*compiled
	level
}

// compiled is what the levels of one compiled scenario share.
type compiled struct {
	memo     *erlang.Memo
	mode     string
	declared Placement // the compiled scenario's own fleet

	names     []string // service names, in scenario order
	resources []string // the resources the services declare demands on, sorted
	// The traffic, per resource j in resources order and within it
	// per service i: mu[j·S+i] is μᵢⱼ (+Inf where service i places no
	// demand on j) and impact[j·S+i] is aᵢⱼ, S the service count.
	mu, impact []float64

	capability []float64           // per host class: ClassCapability
	classPower []power.ServerModel // per host class: its power model
	order      []int               // host classes by ascending (capability, power), ties in class order
	fleetPower power.ServerModel
	platform   power.Platform
}

// level is a kernel's arrival rates and the traffic they offer, in one
// slab of S + R + S·R floats for S services and R resources.
type level struct {
	lambda  []float64 // λᵢ
	rho     []float64 // ρ′ⱼ per resource (Eq. 5)
	offered []float64 // ρᵢⱼ = λᵢ/μᵢⱼ (Eq. 3) at i·R+j, a dedicated pool's traffic; unset where μᵢⱼ = +Inf
	demand  float64   // Σⱼ ρ′ⱼ, the Eq. (10) numerator
}

// Compile lowers a resolved scenario to the analytic model's inputs once
// (lower), returning the kernel that scores placements of its fleet. The
// scenario must come from scenario.Scenario.Resolve, which copied,
// defaulted and validated it; Compile reads it without doing any of the
// three again, and fails where Evaluate does past validation, with
// ErrUnsupported outside the model's domain.
func (a *Analytic) Compile(resolved scenario.Scenario) (*Kernel, error) {
	k, err := lower(resolved)
	if err != nil {
		return nil, err
	}
	// Refuse what the model cannot size, in core.Model.Validate's words: a
	// repeated name (one service's positional #n can be another's name),
	// an arrival rate that is not positive and finite, a serving rate of 0
	// (a demand of infinite mean) and no demand of positive mean. Impact
	// factors need no check, as virt.HostOverhead.Factor clamps them to
	// (0, 1].
	S := len(k.names)
	seen := map[string]bool{}
	for i, name := range k.names {
		if seen[name] {
			return nil, fmt.Errorf("%w: duplicate service name %q", core.ErrInvalidModel, name)
		}
		seen[name] = true
		if l := k.lambda[i]; !(l > 0) || math.IsInf(l, 1) {
			return nil, fmt.Errorf("%w: service %q arrival rate %g", core.ErrInvalidModel, name, l)
		}
		demand := false
		for j, r := range k.resources {
			mu := k.mu[j*S+i]
			if !(mu > 0) {
				return nil, fmt.Errorf("%w: service %q resource %q serving rate %g", core.ErrInvalidModel, name, r, mu)
			}
			demand = demand || !math.IsInf(mu, 1)
		}
		if !demand {
			return nil, fmt.Errorf("%w: service %q demands no resource", core.ErrInvalidModel, name)
		}
	}
	k.memo, k.mode = a.memo, resolved.Mode
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
		n := len(resolved.Fleet.Classes)
		k.capability, k.classPower = make([]float64, n), make([]power.ServerModel, n)
		k.declared.Classes, k.order = make([]int, n), make([]int, n)
		for c, hc := range resolved.Fleet.Classes {
			k.classPower[c] = k.fleetPower
			if hc.Power != nil {
				k.classPower[c] = power.ServerModel{Base: hc.Power.BaseW, Max: hc.Power.MaxW}
			}
			k.capability[c] = ClassCapability(hc, k.resources)
			k.declared.Classes[c] = hc.Count
			// Insert c after every class that does not sort above it.
			i := c
			for ; i > 0 && k.above(k.order[i-1], c); i-- {
				k.order[i] = k.order[i-1]
			}
			k.order[i] = c
		}
	}
	k.derive()
	return k, nil
}

// levelSize is the floats a level of S services on R resources holds.
func levelSize(S, R int) int { return S + R + S*R }

// carve lays a level of S services on R resources out on slab.
func carve(slab []float64, S, R int) level {
	return level{
		lambda:  slab[:S:S],
		rho:     slab[S : S+R : S+R],
		offered: slab[S+R : S+R+S*R : S+R+S*R],
	}
}

// derive computes the level's traffic from its λ: ρ′ⱼ by Eq. (5) in its
// canonical reading (core.TrafficEq5Restricted), their sum, and each
// service's ρᵢⱼ.
func (k *Kernel) derive() {
	S, R := len(k.lambda), len(k.rho)
	k.demand = 0
	for j := range k.rho {
		mu := k.mu[j*S : (j+1)*S]
		k.rho[j] = core.MergedTraffic(core.TrafficEq5Restricted, k.lambda, mu, k.impact[j*S:(j+1)*S])
		k.demand += k.rho[j]
		for i, m := range mu {
			if !math.IsInf(m, 1) {
				k.offered[i*R+j] = k.lambda[i] / m
			}
		}
	}
}

// Levels returns the kernels at every arrival-rate level of mults, which
// holds S multipliers per level for S services: level l is the kernel of
// the same scenario with service i's arrival rate multiplied by
// mults[l·S+i]. That is the stationary operating point
// scenario.Stationary builds for a periods bin or segment peak, whose
// Poisson rates are the same rate·mult products, so scoring a placement
// on a level matches compiling that stationary scenario bit for bit.
// The levels share k's compiled μᵢⱼ, aᵢⱼ and fleet,
// and take their rates and traffic from one slab, so a whole day's levels
// cost two allocations and read no model and no map. A rate·mult that is
// not a positive finite Poisson rate (the product can overflow) is
// refused with validation's message, as scenario.Stationary refuses it.
func (k *Kernel) Levels(mults []float64) ([]Kernel, error) {
	S, R := len(k.names), len(k.rho)
	if len(mults)%S != 0 {
		return nil, fmt.Errorf("%w: %d multipliers for %d services", scenario.ErrInvalid, len(mults), S)
	}
	out := make([]Kernel, len(mults)/S)
	size := levelSize(S, R)
	slab := make([]float64, len(out)*size)
	for l := range out {
		out[l] = Kernel{k.compiled, carve(slab[l*size:], S, R)}
		for i, m := range mults[l*S : (l+1)*S] {
			rate := k.lambda[i] * m
			if !(rate > 0) || math.IsInf(rate, 1) {
				// The check validating the stationary scenario's Poisson
				// arrivals, for its message.
				return nil, fmt.Errorf("service %d: %w", i, workload.PoissonSpec(rate).Validate())
			}
			out[l].lambda[i] = rate
		}
		out[l].derive()
	}
	return out, nil
}

// Score prices placement p, which must have the compiled scenario's
// shape: per-service pool sizes in dedicated mode, one count per host
// class for a heterogeneous fleet, else a host count. It is ScoreInto
// with storage of its own.
func (k *Kernel) Score(p Placement) (Result, error) {
	var res Result
	if err := k.ScoreInto(&res, make([]ServiceLoss, len(k.names)), p); err != nil {
		return Result{}, err
	}
	return res, nil
}

// ScoreInto prices placement p as Score does into the caller's storage:
// the score into res, and its per-service losses into services, which
// must hold one per service and becomes res.Services. It allocates
// nothing, so a search that keeps its buffers scores for free.
func (k *Kernel) ScoreInto(res *Result, services []ServiceLoss, p Placement) error {
	services = services[:len(k.names)]
	if k.mode == "dedicated" {
		return k.scoreDedicated(res, services, p)
	}
	return k.scoreConsolidated(res, services, p)
}

// above reports whether host class a sorts above class b in the kernel's
// sum order: by capability units, then by power model.
func (k *Kernel) above(a, b int) bool {
	pa, pb := k.classPower[a], k.classPower[b]
	return cmp.Or(cmp.Compare(k.capability[a], k.capability[b]), cmp.Compare(pa.Base, pb.Base), cmp.Compare(pa.Max, pb.Max)) > 0
}

// Price sets *pr to consolidated placement p's score without its losses:
// the host count, the capability units, the Eq. (10) utilization and the
// draws. A group — the classes of equal capability units, which the model
// tells apart only by power — adds its hosts' units as one term, and a
// twin — the classes of a group with equal power models — adds its hosts'
// draw as one term. Groups are summed by ascending units and twins by
// ascending (units, power), so a placement prices alike however its
// counts are split within a twin, its units and utilization however they
// are split within a group, and neither depends on which classes are
// empty: a stamped scenario, which lists only the placed classes, prices
// bit for bit alike. ScoreInto starts from the price, so a placement's
// price and its score agree bit for bit; Price reads no Erlang B, and p
// must hold a count per class of a heterogeneous fleet.
func (k *Kernel) Price(pr *Result, p Placement) {
	*pr = Result{Source: "analytic", Mode: k.mode}
	if len(k.capability) == 0 {
		pr.Hosts, pr.CapabilityUnits = p.Hosts, float64(p.Hosts)
	}
	n := 0
	for i, c := range k.order {
		pr.Hosts += p.Classes[c]
		if n += p.Classes[c]; k.runEnds(i, false) {
			pr.CapabilityUnits += float64(n) * k.capability[c]
			n = 0
		}
	}
	if pr.CapabilityUnits > 0 {
		pr.Utilization = k.demand / pr.CapabilityUnits
	}
	if len(k.capability) == 0 {
		pr.Watts = power.SteadyStateDraw(k.fleetPower, pr.Hosts, pr.Utilization, k.platform)
	}
	for i, c := range k.order {
		if n += p.Classes[c]; k.runEnds(i, true) {
			pr.Watts += power.SteadyStateDraw(k.classPower[c], n, pr.Utilization, k.platform)
			n = 0
		}
	}
}

// runEnds reports whether a group, or with twins a twin, ends at
// position i of the sum order.
func (k *Kernel) runEnds(i int, twins bool) bool {
	if i+1 == len(k.order) {
		return true
	}
	c, d := k.order[i], k.order[i+1]
	return k.capability[c] != k.capability[d] || twins && k.classPower[c] != k.classPower[d]
}

// ClassCost is one host class as Price sees it: a host's capability units,
// its idle draw and the draw it adds at full utilization on the kernel's
// platform. Classes of equal Units form a group.
type ClassCost struct {
	Units, IdleW, ActiveW float64
}

// ClassCosts reports the compiled fleet's host classes in class order.
func (k *Kernel) ClassCosts() []ClassCost {
	out := make([]ClassCost, len(k.capability))
	for c, m := range k.classPower {
		idle := m.IdleDraw(k.platform)
		out[c] = ClassCost{Units: k.capability[c], IdleW: idle, ActiveW: m.Draw(1, k.platform) - idle}
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
func (k *Kernel) scoreConsolidated(res *Result, services []ServiceLoss, p Placement) error {
	if len(p.Dedicated) > 0 || len(p.Classes) != len(k.capability) {
		return fmt.Errorf("eval: placement does not fit a consolidated fleet of %d host classes", len(k.capability))
	}
	k.Price(res, p)
	// A stack buffer holds the per-resource losses for the usual few
	// resources.
	var buf [8]float64
	lossByResource := buf[:0]
	if len(k.rho) > len(buf) {
		lossByResource = make([]float64, 0, len(k.rho))
	}
	for _, rho := range k.rho {
		b, err := k.loss(res.CapabilityUnits, rho)
		if err != nil {
			return err
		}
		lossByResource = append(lossByResource, b)
		if b > res.Loss {
			res.Loss = b
		}
	}
	S := len(services)
	for i := range services {
		worst := 0.0
		for j, b := range lossByResource {
			if !math.IsInf(k.mu[j*S+i], 1) && b > worst {
				worst = b
			}
		}
		services[i] = ServiceLoss{Name: k.names[i], Loss: worst}
	}
	res.Services = services
	return nil
}

// scoreDedicated scores per-service dedicated pools: each service's pool
// of reference servers sees its own offered traffic ρᵢⱼ = λᵢ/μᵢⱼ
// (Eq. 3), and watts sum per-pool draws at each pool's Eq. (9)
// utilization.
func (k *Kernel) scoreDedicated(res *Result, services []ServiceLoss, p Placement) error {
	if len(p.Dedicated) != len(services) {
		return fmt.Errorf("eval: placement has %d dedicated pools for %d services", len(p.Dedicated), len(services))
	}
	*res = Result{Source: "analytic", Mode: k.mode, Services: services}
	S, R := len(services), len(k.rho)
	totalDemand := 0.0
	for i := range services {
		n := p.Dedicated[i]
		res.Hosts += n
		worst := 0.0
		demand := 0.0
		for j, rho := range k.offered[i*R : (i+1)*R] {
			if math.IsInf(k.mu[j*S+i], 1) {
				continue
			}
			demand += rho
			b, err := k.loss(float64(n), rho)
			if err != nil {
				return err
			}
			if b > worst {
				worst = b
			}
		}
		services[i] = ServiceLoss{Name: k.names[i], Loss: worst}
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
	return nil
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
// model: it reads the kernel's lowering (lower) into the model's maps, so
// the solve takes the kernel's λᵢ, μᵢⱼ and aᵢⱼ. A demand of mean 0 places
// no load: its resource gets no entry in either map, which the model reads
// as no demand. The scenario must be analytic-model shaped, as for
// Compile; anything else returns ErrUnsupported, and the sim evaluator
// handles it.
func ModelFromScenario(s scenario.Scenario, lossTarget float64) (*core.Model, error) {
	resolved, err := s.Resolve()
	if err != nil {
		return nil, err
	}
	k, err := lower(resolved)
	if err != nil {
		return nil, err
	}
	m := &core.Model{
		LossTarget: lossTarget,
		Power:      core.PowerParams{Base: resolved.Power.BaseW, Max: resolved.Power.MaxW},
	}
	for _, r := range k.resources {
		m.Resources = append(m.Resources, core.Resource(r))
	}
	S := len(k.names)
	for i, name := range k.names {
		rates, factors := map[core.Resource]float64{}, map[core.Resource]float64{}
		for j, r := range m.Resources {
			if mu := k.mu[j*S+i]; !math.IsInf(mu, 1) {
				rates[r], factors[r] = mu, k.impact[j*S+i]
			}
		}
		m.Services = append(m.Services, core.Service{Name: name, ArrivalRate: k.lambda[i], ServingRates: rates, ImpactFactors: factors})
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// lower writes a resolved scenario straight into a kernel's slab: the
// service names (a repeated one gets its positional #n, as reports number
// them), each λᵢ, the built arrival process's rate, and per resource — the
// sorted union of the declared demands — μᵢⱼ and aᵢⱼ. μᵢⱼ is the demand
// profile's serving rate (Eq. 3) capped at its OS ceiling, +Inf where
// service i declares no demand on j. aᵢⱼ is the overhead curve at v, the
// number of services declaring a demand on j, which is the case-study
// convention (disk at v = 1, CPU at v = 2 for the Web+DB pair), and 1
// where service i declares none. Closed-loop services, failure injection
// and explicit allocators (the model assumes ideal flowing) return
// ErrUnsupported.
func lower(resolved scenario.Scenario) (*Kernel, error) {
	if resolved.Periods != nil {
		return nil, fmt.Errorf("%w: a periods scenario is time-varying; plan it bin by bin (plan.SearchPeriods)", ErrUnsupported)
	}
	if resolved.Failures != nil {
		return nil, fmt.Errorf("%w: failure injection has no analytic form", ErrUnsupported)
	}
	if resolved.Alloc != nil {
		return nil, fmt.Errorf("%w: explicit allocator policies have no analytic form (the model assumes ideal flowing)", ErrUnsupported)
	}
	S := len(resolved.Services)
	profiles, overheads := make([]workload.ServiceProfile, S), make([]virt.HostOverhead, S)
	vms := map[string]int{} // per resource, the services declaring a demand on it
	for i := range resolved.Services {
		var err error
		if profiles[i], err = resolved.Services[i].CompileProfile(); err != nil {
			return nil, fmt.Errorf("eval: service %d: %w", i, err)
		}
		if overheads[i], err = resolved.Services[i].CompileOverhead(); err != nil {
			return nil, fmt.Errorf("eval: service %d: %w", i, err)
		}
		for r := range profiles[i].Demands {
			vms[r]++
		}
	}
	k := &Kernel{compiled: &compiled{names: make([]string, S), resources: make([]string, 0, len(vms))}}
	for r := range vms {
		k.resources = append(k.resources, r)
	}
	slices.Sort(k.resources)
	R := len(k.resources)
	slab := make([]float64, 2*R*S+levelSize(S, R))
	k.mu, k.impact = slab[:R*S:R*S], slab[R*S:2*R*S:2*R*S]
	k.level = carve(slab[2*R*S:], S, R)
	seen := map[string]int{}
	for i := range resolved.Services {
		svc, p := &resolved.Services[i], &profiles[i]
		if svc.Clients > 0 || svc.Arrivals == nil {
			return nil, fmt.Errorf("%w: service %q is closed-loop (no open-loop arrival rate; use the sim evaluator)", ErrUnsupported, p.Name)
		}
		proc, err := svc.Arrivals.Build()
		if err != nil {
			return nil, fmt.Errorf("eval: service %d arrivals: %w", i, err)
		}
		k.names[i], k.lambda[i] = p.Name, proc.Rate()
		if n := seen[p.Name]; n > 0 {
			k.names[i] = fmt.Sprintf("%s#%d", p.Name, n+1)
		}
		seen[p.Name]++
		for j, r := range k.resources {
			mu, a := math.Inf(1), 1.0
			if _, ok := p.Demands[r]; ok {
				// The OS software ceiling caps a single OS image's
				// completion rate regardless of spare hardware (Fig. 8):
				// the paper's Table I uses the capped rate as the DB
				// service's μ.
				if mu = p.ServingRate(r); p.OSCeiling > 0 && mu > p.OSCeiling {
					mu = p.OSCeiling
				}
				if a, err = overheads[i].Factor(r, vms[r]); err != nil {
					return nil, fmt.Errorf("eval: service %d overhead on %q: %w", i, r, err)
				}
			}
			k.mu[j*S+i], k.impact[j*S+i] = mu, a
		}
	}
	return k, nil
}
