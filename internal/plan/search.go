package plan

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"

	"repro/internal/eval"
	"repro/internal/pool"
	"repro/internal/scenario"
)

// Search finds the cheapest placement of spec.Scenario's workload that
// meets the loss target, scoring candidates with ev one at a time on the
// calling goroutine: inline on a compiled kernel for the analytic
// evaluator, stamped onto the scenario for any other. The search fans
// nothing out, so it takes no slot of p; an evaluator that does, such as
// eval.Sim, budgets its own work.
func Search(ctx context.Context, ev eval.Evaluator, p *pool.Pool, spec Spec) (Plan, error) {
	spec, err := spec.normalized()
	if err != nil {
		return Plan{}, err
	}
	resolved, err := spec.Scenario.Resolve()
	if err != nil {
		return Plan{}, err
	}
	if resolved.Periods != nil {
		return Plan{}, fmt.Errorf("%w: a periods scenario is time-varying; plan it bin by bin (SearchPeriods)", eval.ErrUnsupported)
	}
	k, err := compile(ev, resolved)
	if err != nil {
		return Plan{}, err
	}
	return search(ctx, ev, spec, resolved, k)
}

// compile builds the kernel of a resolved scenario when ev is the
// analytic evaluator, and returns nil (the stamping route) for any other
// evaluator, a decorator around the analytic one included.
func compile(ev eval.Evaluator, resolved scenario.Scenario) (*eval.Kernel, error) {
	an, ok := ev.(*eval.Analytic)
	if !ok {
		return nil, nil
	}
	return an.Compile(resolved)
}

// search places a normalized spec's workload on its resolved scenario,
// scoring candidates on k when it is non-nil and through ev otherwise.
func search(ctx context.Context, ev eval.Evaluator, spec Spec, resolved scenario.Scenario, k *eval.Kernel) (Plan, error) {
	s := &searcher{ctx: ctx, ev: ev, spec: spec, resolved: resolved, kernel: k}
	var plan Plan
	var err error
	switch {
	case resolved.Mode == "dedicated":
		plan, err = s.searchDedicated()
	case len(resolved.Fleet.Classes) == 0:
		plan, err = s.searchHomogeneous()
	default:
		plan, err = s.searchHetero()
	}
	if err != nil {
		return Plan{}, err
	}
	plan.Objective = spec.Objective
	plan.Target = spec.Target
	plan.Mode = resolved.Mode
	plan.Evaluations = s.evaluations
	return plan, nil
}

type searcher struct {
	ctx         context.Context
	ev          eval.Evaluator
	spec        Spec
	resolved    scenario.Scenario
	kernel      *eval.Kernel // nil: stamp candidates and call ev
	evaluations int
}

// score evaluates one candidate placement: on the kernel, or stamped onto
// the scenario and evaluated by ev.
func (s *searcher) score(pl eval.Placement) (eval.Result, error) {
	if err := s.ctx.Err(); err != nil {
		return eval.Result{}, err
	}
	s.evaluations++
	if s.kernel != nil {
		return s.kernel.Score(pl)
	}
	return s.ev.Evaluate(s.ctx, stamp(s.resolved, pl))
}

func (s *searcher) feasible(r eval.Result) bool {
	return !math.IsNaN(r.Loss) && r.Loss <= s.spec.Target
}

// --- homogeneous consolidated ---------------------------------------

// searchHomogeneous sizes a single-class consolidated fleet: loss is
// monotone non-increasing in the host count, so a doubling probe plus
// binary search finds the minimal feasible n — the analytic N of the
// paper's Eq. (5) sizing. Fewer hosts also means fewer idle watts at
// fixed offered work, so the same n wins both objectives.
func (s *searcher) searchHomogeneous() (Plan, error) {
	lo, hi := 0, 1 // invariant: lo infeasible (0 hosts serve nothing), hi the probe
	var hiRes eval.Result
	for {
		res, err := s.score(eval.Placement{Hosts: hi})
		if err != nil {
			return Plan{}, err
		}
		if s.feasible(res) {
			hiRes = res
			break
		}
		lo = hi
		hi *= 2
		if hi > maxPoolServers {
			return Plan{}, fmt.Errorf("%w: no fleet up to %d hosts reaches loss <= %g", ErrInfeasible, maxPoolServers, s.spec.Target)
		}
	}
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		res, err := s.score(eval.Placement{Hosts: mid})
		if err != nil {
			return Plan{}, err
		}
		if s.feasible(res) {
			hi, hiRes = mid, res
		} else {
			lo = mid
		}
	}
	return Plan{Hosts: hi, Result: hiRes}, nil
}

// --- dedicated --------------------------------------------------------

// searchDedicated sizes each service's pool independently: a service's
// loss depends only on its own pool, so per-service doubling plus binary
// search is exact (the paper's per-service Mᵢ of Eq. 3/4).
func (s *searcher) searchDedicated() (Plan, error) {
	n := len(s.resolved.Services)
	sizes := make([]int, n)
	for i := range sizes {
		sizes[i] = 1
	}
	for i := 0; i < n; i++ {
		lo, hi := 0, 1
		for {
			sizes[i] = hi
			res, err := s.score(eval.Placement{Dedicated: sizes})
			if err != nil {
				return Plan{}, err
			}
			if res.Services[i].Loss <= s.spec.Target {
				break
			}
			lo = hi
			hi *= 2
			if hi > maxPoolServers {
				return Plan{}, fmt.Errorf("%w: service %d needs more than %d dedicated servers for loss <= %g", ErrInfeasible, i, maxPoolServers, s.spec.Target)
			}
		}
		for hi-lo > 1 {
			mid := lo + (hi-lo)/2
			sizes[i] = mid
			res, err := s.score(eval.Placement{Dedicated: sizes})
			if err != nil {
				return Plan{}, err
			}
			if res.Services[i].Loss <= s.spec.Target {
				hi = mid
			} else {
				lo = mid
			}
		}
		sizes[i] = hi
	}
	final, err := s.score(eval.Placement{Dedicated: sizes})
	if err != nil {
		return Plan{}, err
	}
	plan := Plan{Result: final}
	for i, sz := range sizes {
		plan.Hosts += sz
		plan.Dedicated = append(plan.Dedicated, PoolSize{Name: final.Services[i].Name, Servers: sz})
	}
	return plan, nil
}

// --- heterogeneous consolidated --------------------------------------

// searchHetero places hosts across the scenario's class supply exactly.
// A mix reaches the analytic loss only through its capability units
// U = Σₖ nₖ·cₖ, and Erlang B falls as the units grow, so no mix at or below
// the capability bound (eval.Kernel.UnitsFloor) is scored. Prices and the
// bound come from an analytic kernel, compiled for pricing on the
// stamping route, where ev's Evaluate decides feasibility: a simulator
// certifies the cheapest analytically admissible mix it accepts.
func (s *searcher) searchHetero() (Plan, error) {
	k := s.kernel
	if k == nil {
		var err error
		if k, err = eval.NewAnalytic(nil).Compile(s.resolved); err != nil {
			return Plan{}, err
		}
	}
	w := newWalker(s, k)
	if err := w.seed(); err != nil {
		return Plan{}, err
	}
	if err := w.visit(0, prefix{}); err != nil {
		return Plan{}, err
	}
	if w.best == nil {
		return Plan{}, fmt.Errorf("%w: the full class supply (%d hosts) stays above loss %g", ErrInfeasible, w.hosts, s.spec.Target)
	}
	plan := Plan{Result: w.bestRes}
	for c, hc := range s.resolved.Fleet.Classes {
		plan.Hosts += w.best[c]
		plan.Classes = append(plan.Classes, ClassCount{Name: className(hc), Count: w.best[c]})
	}
	return plan, nil
}

// maxWalkSteps bounds the walk's work: every count a prefix tries and
// every mix it prices costs one step per host class. The walk is exact,
// so it cannot stop early with a guess; a supply whose mixes the bounds
// cannot tell apart reaches the limit, and Search refuses it with
// eval.ErrUnsupported instead of running on: after 0.1–0.3 s on a 2-vCPU
// VM, or up to about 1 s where most steps are scores at thousands of
// servers. Such supplies hold groups of different units whose draws are
// proportional to their units, so that mixes of different groups tie in
// watts, offered in large counts.
const maxWalkSteps = 1 << 24

// scoreSteps is what a score costs against maxWalkSteps: an analytic
// score reads Erlang B, which at a few thousand servers takes about a
// thousand times as long as a step.
const scoreSteps = 1 << 10

// roundoff is the relative allowance the walk's real-valued bounds give
// the rounding of the exact sums Price computes, so a bound never cuts a
// mix that ties or beats the one it is compared with.
const roundoff = 1e-9

// walker enumerates a class supply's mixes as a branch and bound over
// groups, the classes of equal capability units that Price sums as one.
// A mix's units, hence its losses and utilization u, depend on its group
// counts alone, and within a group the split that draws least at u fills
// the group's classes cheapest first (fill). So the walk tries group
// counts, groups in order of first listing and each count ascending, and
// prices that split of each. It cuts a prefix when the capability bound
// is out of reach even with every remaining host, or when a lower bound
// on its completions' rank loses to the best feasible mix found: hosts,
// then watts, under min-servers and watts under min-power. The bounds
// floor a prefix's draws by its groups' cheapest hosts and cover the rest
// of the units gap fractionally with the remaining classes, cheapest per
// unit first, so along one group's count each is convex: once a bound
// that loses stops falling, the group's loop ends.
type walker struct {
	s        *searcher
	k        *eval.Kernel
	minPower bool
	hosts    int // the full supply's host count

	// Per host class: its supply, its cost, its group, and its count in
	// the mix being priced.
	supply []int
	cost   []eval.ClassCost
	group  []int
	counts []int
	best   []int // the best feasible mix found; nil before the first

	// Per group g: its classes sit at start[g]:start[g+1] of byIdle,
	// byActive and byDraw, by ascending idle draw, active draw and draw at
	// the utilization of the last fill; units is a host's capability
	// units, size the group's hosts and take the count the walk is trying.
	start, byIdle, byActive, byDraw []int
	units                           []float64
	size, take                      []int

	floor     float64   // no mix of at most floor units meets the target
	reach     float64   // floor less a rounding allowance on sums of units
	restUnits []float64 // restUnits[g]: the most units groups g.. can add
	byUnits   []int     // classes by descending units: the hosts cover
	byRatio   []int     // classes by ascending ActiveW per unit
	steps     int       // work done, bounded by maxWalkSteps

	// Refreshed whenever the best mix changes (version counts the
	// changes): kappa is a floor under the utilization of every mix that
	// can rank ahead of the best, so price[c] = IdleW + kappa·ActiveW is a
	// floor under a class-c host's draw in such a mix, and byPrice orders
	// the classes by ascending price per capability unit: the watts cover.
	kappa   float64
	price   []float64
	byPrice []int
	version int

	bestPr  eval.Result
	bestRes eval.Result
}

func newWalker(s *searcher, k *eval.Kernel) *walker {
	classes := s.resolved.Fleet.Classes
	n := len(classes)
	w := &walker{s: s, k: k, minPower: s.spec.Objective == MinPower, cost: k.ClassCosts()}
	ints, floats := make([]int, 12*n+1), make([]float64, 3*n+1)
	next := func(m int) []int {
		out := ints[:m:m]
		ints = ints[m:]
		return out
	}
	w.supply, w.group, w.counts, w.byUnits, w.byRatio, w.byPrice = next(n), next(n), next(n), next(n), next(n), next(n)
	w.byIdle, w.byActive, w.byDraw = next(n), next(n), next(n)[:0]
	w.units, w.price = floats[:0:n], floats[n:2*n]
	for c, cc := range w.cost {
		w.supply[c] = classes[c].Count
		w.hosts += classes[c].Count
		w.byUnits[c], w.byRatio[c], w.byPrice[c] = c, c, c
		w.group[c] = slices.Index(w.units, cc.Units)
		if w.group[c] < 0 {
			w.group[c] = len(w.units)
			w.units = append(w.units, cc.Units)
		}
	}
	groups := len(w.units)
	w.start, w.size, w.take, w.restUnits = next(groups+1), next(groups), next(groups), floats[2*n:2*n+groups+1]
	for g := range groups {
		w.start[g] = len(w.byDraw)
		for c := range n {
			if w.group[c] == g {
				w.byDraw = append(w.byDraw, c)
				w.size[g] += w.supply[c]
			}
		}
	}
	w.start[groups] = n
	copy(w.byIdle, w.byDraw)
	copy(w.byActive, w.byDraw)
	for g := range groups {
		slices.SortStableFunc(w.byIdle[w.start[g]:w.start[g+1]], func(a, b int) int {
			return cmp.Compare(w.cost[a].IdleW, w.cost[b].IdleW)
		})
		slices.SortStableFunc(w.byActive[w.start[g]:w.start[g+1]], func(a, b int) int {
			return cmp.Compare(w.cost[a].ActiveW, w.cost[b].ActiveW)
		})
	}
	// A bound that cannot be computed prunes nothing: floor stays 0.
	if floor, err := k.UnitsFloor(s.spec.Target, k.Price(eval.Placement{Classes: w.supply}).CapabilityUnits); err == nil {
		w.floor = floor
	}
	w.reach = w.floor - roundoff*math.Max(1, w.floor)
	for g := groups - 1; g >= 0; g-- {
		w.restUnits[g] = w.restUnits[g+1] + float64(w.size[g])*w.units[g]
	}
	slices.SortStableFunc(w.byUnits, func(a, b int) int {
		return cmp.Compare(w.cost[b].Units, w.cost[a].Units)
	})
	slices.SortStableFunc(w.byRatio, func(a, b int) int {
		return cmp.Compare(w.cost[a].ActiveW*w.cost[b].Units, w.cost[b].ActiveW*w.cost[a].Units)
	})
	return w
}

// exactUnits reports whether sums of hosts of u capability units round
// nothing: units on a 2⁻²⁰ grid below 2¹² sum exactly over at most
// maxHeteroSupply hosts, so mixes of such classes need no rounding
// allowance on the bound.
func exactUnits(u float64) bool {
	g := u * (1 << 20)
	return g == math.Trunc(g) && u < 1<<12
}

// seed scores one greedy mix before the walk, so the bounds cut from its
// first prefix: the classes in the order the bounds price them — most
// units per host under min-servers, least draw per unit at the bound's
// utilization under min-power — each filled until the mix holds a whole
// unit more than the capability bound, which meets the target wherever
// Erlang B falls with the units.
func (w *walker) seed() error {
	order := w.byUnits
	if w.minPower {
		w.setKappa(w.floor + 1)
		order = w.byPrice
	}
	need := w.floor + 1 // the units the mix still lacks
	for _, c := range order {
		if need <= 0 {
			break
		}
		if units := w.cost[c].Units; units > 0 {
			t := min(w.supply[c], int(math.Ceil(need/units)))
			w.take[w.group[c]] += t
			need -= float64(t) * units
		}
	}
	err := w.leaf()
	clear(w.take)
	return err
}

// prefix is a partial mix: its hosts, capability units, and floors under
// its draws at idle and at the full-utilization increment (active);
// inexact when its units may carry rounding.
type prefix struct {
	hosts               int
	units, idle, active float64
	inexact             bool
}

// add returns prefix p with n hosts of group g added, their idle and
// active draws each floored by the group's n cheapest hosts in that draw,
// and the active draw of the group's next host.
func (w *walker) add(p prefix, g, n int) (prefix, float64) {
	idle, _ := w.cheapest(w.byIdle, g, n, false)
	active, next := w.cheapest(w.byActive, g, n, true)
	return prefix{p.hosts + n, p.units + float64(n)*w.units[g], p.idle + idle, p.active + active,
		p.inexact || n > 0 && !exactUnits(w.units[g])}, next
}

// cheapest sums the idle or the active draw of group g's n cheapest hosts,
// taking its classes in order, and reports that draw of the host after
// them (+Inf past the group's last).
func (w *walker) cheapest(order []int, g, n int, active bool) (sum, next float64) {
	for _, c := range order[w.start[g]:w.start[g+1]] {
		d := w.cost[c].IdleW
		if active {
			d = w.cost[c].ActiveW
		}
		t := min(n, w.supply[c])
		sum += float64(t) * d
		if n -= t; t < w.supply[c] {
			return sum, d
		}
	}
	return sum, math.Inf(1)
}

// visit walks the counts of group g after prefix p, fewest first; past
// the last group it is at a complete mix. The primary bound is convex in
// the count, so the loop ends at the first count whose primary bound
// loses and has stopped falling, or whose active floor loses for good.
func (w *walker) visit(g int, p prefix) error {
	if g == len(w.take) {
		return w.leaf()
	}
	if err := w.s.ctx.Err(); err != nil {
		return err
	}
	n := 0
	if gap := w.reach - p.units - w.restUnits[g+1]; gap > 0 {
		n = max(int(math.Min(gap/w.units[g], float64(w.size[g]+1)))-1, 0)
	}
	prev, version := math.Inf(1), w.version
	for ; n <= w.size[g]; n++ {
		if err := w.step(len(w.supply)); err != nil {
			return err
		}
		q, more := w.add(p, g, n)
		if q.units+w.restUnits[g+1] < w.reach {
			continue // the bound is out of reach even with every remaining host
		}
		if w.best != nil {
			if version != w.version {
				prev, version = math.Inf(1), w.version
			}
			lb, over, cut, stays := w.bound(g+1, q, more)
			if over && lb >= prev || stays {
				break
			}
			if prev = lb; cut {
				continue
			}
		}
		w.take[g] = n
		if err := w.visit(g+1, q); err != nil {
			return err
		}
	}
	w.take[g] = 0
	return nil
}

// step charges n steps of work and refuses a supply past the limit.
func (w *walker) step(n int) error {
	if w.steps += n; w.steps > maxWalkSteps {
		return fmt.Errorf("%w: the exact search over %d host classes needs more than %d steps on this supply; offer fewer classes or fewer hosts",
			eval.ErrUnsupported, len(w.supply), maxWalkSteps)
	}
	return nil
}

// bound reports a lower bound on the primary rank key of every admissible
// completion of prefix p through group next−1 — hosts under min-servers,
// watts under min-power — whether that bound alone loses to the best mix,
// whether the prefix loses on either key, and whether it loses in a way
// that more hosts of group next−1, the next of which adds an active draw
// of more, cannot mend.
func (w *walker) bound(next int, p prefix, more float64) (lb float64, over, cut, stays bool) {
	if w.minPower {
		lb = w.watts(next, p)
		if over = w.loses(lb); over {
			return lb, true, true, false
		}
		// The active floor's ratio never falls below the ratio of a host
		// it adds, and a group adds its hosts by ascending active draw, so
		// once the next one's ratio reaches the floor's, more hosts of the
		// group only raise the floor.
		floor, ratio := w.activeFloor(next, p)
		cut = w.loses(p.idle + floor)
		return lb, false, cut, cut && more >= ratio*w.units[next-1]
	}
	lb = float64(p.hosts) + w.cover(next, w.reach-p.units, w.byUnits, nil)
	if lb > float64(w.bestPr.Hosts)+roundoff {
		return lb, true, true, false
	}
	switch hosts := p.hosts + w.hostsNeeded(next, p); {
	case hosts > w.bestPr.Hosts:
		return lb, false, true, false
	case hosts == w.bestPr.Hosts: // no completion has fewer hosts than the best
		floor, _ := w.activeFloor(next, p)
		return lb, false, w.loses(w.watts(next, p)) || w.loses(p.idle+floor), false
	}
	return lb, false, false, false
}

// hostsNeeded is the fewest hosts groups next.. can add to prefix p to
// clear the capability bound: most units per host first, whole hosts,
// and strictly above the bound while the sum of units stays exact.
func (w *walker) hostsNeeded(next int, p prefix) int {
	exact := !p.inexact
	need, hosts := w.floor-p.units, 0
	if !exact {
		need = w.reach - p.units
	}
	for _, c := range w.byUnits {
		u := w.cost[c].Units
		if w.group[c] < next || u <= 0 {
			continue
		}
		if exact && !exactUnits(u) {
			exact, need = false, need-(w.floor-w.reach)
		}
		if need < 0 || need == 0 && !exact {
			return hosts
		}
		t := int(need / u)
		for t > 0 && clears(float64(t-1)*u, need, exact) {
			t--
		}
		for !clears(float64(t)*u, need, exact) {
			t++
		}
		if t <= w.supply[c] {
			return hosts + t
		}
		hosts += w.supply[c]
		need -= float64(w.supply[c]) * u
	}
	if need < 0 || need == 0 && !exact {
		return hosts
	}
	return math.MaxInt32 // the bound is out of reach
}

// clears reports whether added units meet a units gap of need: strictly
// when the sums are exact.
func clears(added, need float64, exact bool) bool {
	return added > need || added == need && !exact
}

// loses reports whether a lower bound on a mix's watts exceeds the best's.
func (w *walker) loses(watts float64) bool { return watts > w.bestPr.Watts*(1+roundoff) }

// watts bounds from below the draw of every admissible completion of
// prefix p by groups next.. .
func (w *walker) watts(next int, p prefix) float64 {
	return p.idle + w.kappa*p.active + w.cover(next, w.reach-p.units, w.byPrice, w.price)
}

// activeFloor bounds from below the active draw of every admissible
// completion of prefix p by groups next.., and reports the lowest ratio
// of full-utilization increment to units such a completion can have. The
// draw is min(U, demand) times the mix's ratio, and a class lowers the
// ratio only while its own is below it, so the lowest ratio adds whole
// classes, lowest ratio first, while each lowers it. Unlike the covers
// this bound holds however many hosts a mix has, so it cuts where idle
// draws are near zero.
func (w *walker) activeFloor(next int, p prefix) (floor, ratio float64) {
	a, units := p.active, p.units
	for _, c := range w.byRatio {
		cc := w.cost[c]
		if w.group[c] < next || cc.Units <= 0 {
			continue
		}
		if units > 0 && cc.ActiveW*units >= a*cc.Units {
			break
		}
		a += float64(w.supply[c]) * cc.ActiveW
		units += float64(w.supply[c]) * cc.Units
	}
	if units <= 0 {
		return 0, 0
	}
	ratio = a / units
	return math.Min(math.Max(p.units, w.reach), w.k.Demand()) * ratio, ratio
}

// cover is the least cost of adding need capability units from the
// classes of groups next.. when hosts may be taken fractionally, taking
// the classes in order (cheapest per unit first); a class-c host costs
// price[c], or one when price is nil.
func (w *walker) cover(next int, need float64, order []int, price []float64) float64 {
	total := 0.0
	for _, c := range order {
		if need <= 0 {
			break
		}
		if w.group[c] < next || w.cost[c].Units <= 0 {
			continue
		}
		t := math.Min(float64(w.supply[c]), need/w.cost[c].Units)
		if price == nil {
			total += t
		} else {
			total += t * price[c]
		}
		need -= t * w.cost[c].Units
	}
	return total
}

// maxUnits is the most capability units hosts of total cost at most
// budget can hold when they may be taken fractionally, taking the classes
// in order (most units per cost first); price is as for cover.
func (w *walker) maxUnits(budget float64, order []int, price []float64) float64 {
	units := 0.0
	for _, c := range order {
		if budget <= 0 {
			break
		}
		if w.cost[c].Units <= 0 {
			continue
		}
		p := 1.0
		if price != nil {
			p = price[c]
		}
		t := float64(w.supply[c])
		if p > 0 {
			t = math.Min(t, budget/p)
		}
		units += t * w.cost[c].Units
		budget -= t * p
	}
	return units
}

// refresh re-derives the watts cover from a new best mix. A mix ranks
// ahead of it only with at most its hosts under min-servers, or at most
// its watts under min-power; either caps the mix's capability units at
// some uHi, so the mix runs at utilization at least
// kappa = min(1, demand/uHi). Under min-power the watts cap covers the
// hosts' idle draw and then kappa times their active draw, so each pass
// raises kappa, until it settles.
func (w *walker) refresh() {
	w.version++
	w.kappa = 0
	w.setPrices()
	if !w.minPower {
		w.setKappa(w.maxUnits(float64(w.bestPr.Hosts), w.byUnits, nil))
		return
	}
	for range 64 {
		kappa := w.kappa
		if w.setKappa(w.maxUnits(w.bestPr.Watts*(1+roundoff), w.byPrice, w.price)); w.kappa <= kappa*(1+1e-6) {
			break
		}
	}
}

// setKappa sets the utilization floor of mixes of at most uHi units and
// the prices it implies.
func (w *walker) setKappa(uHi float64) {
	w.kappa = 1
	if d := w.k.Demand(); uHi > d {
		w.kappa = d / uHi
	}
	w.setPrices()
}

func (w *walker) setPrices() {
	for c, cc := range w.cost {
		w.price[c] = cc.IdleW + w.kappa*cc.ActiveW
	}
	slices.SortStableFunc(w.byPrice, func(a, b int) int {
		return cmp.Compare(w.price[a]*w.cost[b].Units, w.price[b]*w.cost[a].Units)
	})
}

// leaf prices the mix of the walk's group counts, filled, and scores it
// when it is admissible and ranks ahead of the best mix; it keeps the
// mix when it meets the target.
func (w *walker) leaf() error {
	if err := w.step(len(w.supply)); err != nil {
		return err
	}
	w.fill(0) // any split prices the units, which set the utilization
	pr := w.k.Price(eval.Placement{Classes: w.counts})
	if pr.CapabilityUnits <= w.floor {
		return nil
	}
	if w.fill(pr.Utilization) {
		pr = w.k.Price(eval.Placement{Classes: w.counts})
	}
	if w.best != nil && !w.ahead(pr, w.counts) {
		return nil
	}
	if err := w.step(scoreSteps); err != nil {
		return err
	}
	res, err := w.s.score(eval.Placement{Classes: w.counts})
	if err != nil || !w.s.feasible(res) {
		return err
	}
	w.best, w.bestPr, w.bestRes = append(w.best[:0], w.counts...), pr, res
	w.refresh()
	return nil
}

// fill spreads each group's count over its classes, the cheapest per-host
// draw IdleW + u·ActiveW first (u capped at 1, as a host's draw is) and
// ties in class order. The splits of a group's count share its units,
// hence the mix's losses and utilization u, and a split's draw at u is
// linear in its per-class counts, so the fill draws least; among splits
// that draw alike it is the lexicographically largest. It reports whether
// a count moved.
func (w *walker) fill(u float64) (moved bool) {
	u = math.Min(u, 1)
	for g, n := range w.take {
		order := w.byDraw[w.start[g]:w.start[g+1]]
		slices.SortFunc(order, func(a, b int) int {
			return cmp.Or(cmp.Compare(w.cost[a].IdleW+u*w.cost[a].ActiveW, w.cost[b].IdleW+u*w.cost[b].ActiveW), a-b)
		})
		for _, c := range order {
			t := min(n, w.supply[c])
			moved = moved || t != w.counts[c]
			w.counts[c], n = t, n-t
		}
	}
	return moved
}

// ahead reports whether mix counts at price pr ranks ahead of the best:
// by (watts, hosts) under min-power and (hosts, watts) under min-servers,
// then by more capability units, then by the lexicographically larger
// count vector in class order.
func (w *walker) ahead(pr eval.Result, counts []int) bool {
	b := w.bestPr
	if w.minPower && pr.Watts != b.Watts {
		return pr.Watts < b.Watts
	}
	if pr.Hosts != b.Hosts {
		return pr.Hosts < b.Hosts
	}
	if pr.Watts != b.Watts {
		return pr.Watts < b.Watts
	}
	if pr.CapabilityUnits != b.CapabilityUnits {
		return pr.CapabilityUnits > b.CapabilityUnits
	}
	for c := range counts {
		if counts[c] != w.best[c] {
			return counts[c] > w.best[c]
		}
	}
	return false
}
