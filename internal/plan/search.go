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
// cannot tell apart — classes that differ in hardware but price within
// rounding of each other, offered in large counts — reaches the limit,
// and Search refuses it with eval.ErrUnsupported instead of running on:
// after 0.2–0.3 s on a 2-vCPU VM, or up to about 1 s where most steps are
// scores at thousands of servers.
const maxWalkSteps = 1 << 24

// scoreSteps is what a score costs against maxWalkSteps: an analytic
// score reads Erlang B, which at a few thousand servers takes about a
// thousand times as long as a step.
const scoreSteps = 1 << 10

// roundoff is the relative allowance the walk's real-valued bounds give
// the rounding of the exact sums Price computes, so a bound never cuts a
// mix that ties or beats the one it is compared with.
const roundoff = 1e-9

// walker enumerates a class supply's count vectors as a branch and bound,
// one walked class per hardware (twins, which Price counts together, are
// walked as one class whose count fills them in class order: of the
// splits that price alike, the lexicographically largest), walked
// classes in order and each count ascending. It cuts a prefix when the
// capability bound is out of reach even with every remaining host, or
// when a lower bound on its completions' rank loses to the best feasible
// mix found: hosts, then watts, under min-servers and watts under
// min-power. The bounds cover the rest of the units gap fractionally
// with the remaining classes, cheapest per unit first, so along one
// class's count each is convex: once a bound that loses stops falling,
// the class's loop ends.
type walker struct {
	s        *searcher
	k        *eval.Kernel
	minPower bool
	hosts    int // the full supply's host count

	// Per walked class: its hosts (twins included), its cost, the
	// scenario classes it stands for in class order, and the count the
	// walk is trying.
	supply  []int
	cost    []eval.ClassCost
	members [][]int
	take    []int

	floor     float64   // no mix of at most floor units meets the target
	reach     float64   // floor less a rounding allowance on sums of units
	exact     []bool    // exact[c]: sums of class-c units round nothing
	restUnits []float64 // restUnits[c]: the most units classes c.. can add
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

	classSupply []int // per scenario class: its Count
	counts      []int // per scenario class: take spread over the twins
	best        []int // the best feasible mix found; nil before the first
	bestPr      eval.Result
	bestRes     eval.Result
}

func newWalker(s *searcher, k *eval.Kernel) *walker {
	classes := s.resolved.Fleet.Classes
	w := &walker{
		s:           s,
		k:           k,
		minPower:    s.spec.Objective == MinPower,
		classSupply: make([]int, len(classes)),
		counts:      make([]int, len(classes)),
	}
	walked := make([]int, len(classes)) // per scenario class: its walked class
	for c, cc := range k.ClassCosts() {
		w.classSupply[c] = classes[c].Count
		w.hosts += classes[c].Count
		g := len(w.supply)
		if cc.Twin == c {
			w.supply = append(w.supply, 0)
			w.cost = append(w.cost, cc)
			w.members = append(w.members, nil)
		} else {
			g = walked[cc.Twin]
		}
		walked[c] = g
		w.supply[g] += classes[c].Count
		w.members[g] = append(w.members[g], c)
	}
	n := len(w.supply)
	ints, floats := make([]int, 4*n), make([]float64, 2*n+1)
	w.take, w.byUnits, w.byRatio, w.byPrice = ints[:n], ints[n:2*n], ints[2*n:3*n], ints[3*n:]
	w.price, w.restUnits = floats[:n], floats[n:]
	for c := range n {
		w.byUnits[c], w.byRatio[c], w.byPrice[c] = c, c, c
	}
	// A bound that cannot be computed prunes nothing: floor stays 0.
	if floor, err := k.UnitsFloor(s.spec.Target, k.Price(eval.Placement{Classes: w.classSupply}).CapabilityUnits); err == nil {
		w.floor = floor
	}
	w.reach = w.floor - roundoff*math.Max(1, w.floor)
	// Units on a 2⁻²⁰ grid below 2¹² sum exactly over at most
	// maxHeteroSupply hosts: mixes of such classes need no rounding
	// allowance on the bound.
	w.exact = make([]bool, n)
	for c, cc := range w.cost {
		g := cc.Units * (1 << 20)
		w.exact[c] = g == math.Trunc(g) && cc.Units < 1<<12
	}
	for c := n - 1; c >= 0; c-- {
		w.restUnits[c] = w.restUnits[c+1] + float64(w.supply[c])*w.cost[c].Units
	}
	slices.SortStableFunc(w.byUnits, func(a, b int) int {
		return cmp.Compare(w.cost[b].Units, w.cost[a].Units)
	})
	slices.SortStableFunc(w.byRatio, func(a, b int) int {
		return cmp.Compare(w.cost[a].ActiveW*w.cost[b].Units, w.cost[b].ActiveW*w.cost[a].Units)
	})
	return w
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
			w.take[c] = min(w.supply[c], int(math.Ceil(need/units)))
			need -= float64(w.take[c]) * units
		}
	}
	err := w.leaf()
	clear(w.take)
	return err
}

// prefix is a partial mix: its hosts, capability units, and draws at
// idle and at the full-utilization increment (active); inexact when its
// units may carry rounding.
type prefix struct {
	hosts               int
	units, idle, active float64
	inexact             bool
}

// add returns prefix p with n hosts of walked class c added.
func (w *walker) add(p prefix, c, n int) prefix {
	cc, f := w.cost[c], float64(n)
	return prefix{p.hosts + n, p.units + f*cc.Units, p.idle + f*cc.IdleW, p.active + f*cc.ActiveW,
		p.inexact || n > 0 && !w.exact[c]}
}

// visit walks the counts of class c after prefix p, fewest first; past
// the last class it is at a complete count vector. The primary bound is
// convex in the count, so the loop ends at the first count whose primary
// bound loses and has stopped falling, or whose active floor loses for
// good.
func (w *walker) visit(c int, p prefix) error {
	if c == len(w.supply) {
		return w.leaf()
	}
	if err := w.s.ctx.Err(); err != nil {
		return err
	}
	n := 0
	if gap := w.reach - p.units - w.restUnits[c+1]; gap > 0 {
		n = max(int(math.Min(gap/w.cost[c].Units, float64(w.supply[c]+1)))-1, 0)
	}
	prev, version := math.Inf(1), w.version
	for ; n <= w.supply[c]; n++ {
		if err := w.step(len(w.counts)); err != nil {
			return err
		}
		q := w.add(p, c, n)
		if q.units+w.restUnits[c+1] < w.reach {
			continue // the bound is out of reach even with every remaining host
		}
		if w.best != nil {
			if version != w.version {
				prev, version = math.Inf(1), w.version
			}
			lb, over, cut, stays := w.bound(c+1, q)
			if over && lb >= prev || stays {
				break
			}
			if prev = lb; cut {
				continue
			}
		}
		w.take[c] = n
		if err := w.visit(c+1, q); err != nil {
			return err
		}
	}
	w.take[c] = 0
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
// completion of prefix p through class next−1 — hosts under min-servers,
// watts under min-power — whether that bound alone loses to the best mix,
// whether the prefix loses on either key, and whether it loses in a way
// that more hosts of class next−1 cannot mend.
func (w *walker) bound(next int, p prefix) (lb float64, over, cut, stays bool) {
	if w.minPower {
		lb = w.watts(next, p)
		if over = w.loses(lb); over {
			return lb, true, true, false
		}
		// The active floor's ratio never falls below a class's own, so
		// once it reaches class next−1's, more of that class only raises
		// the floor.
		floor, ratio := w.activeFloor(next, p)
		cc := w.cost[next-1]
		cut = w.loses(p.idle + floor)
		return lb, false, cut, cut && cc.ActiveW >= ratio*cc.Units
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

// hostsNeeded is the fewest hosts classes next.. can add to prefix p to
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
		if c < next || u <= 0 {
			continue
		}
		if exact && !w.exact[c] {
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
// prefix p by classes next.. .
func (w *walker) watts(next int, p prefix) float64 {
	return p.idle + w.kappa*p.active + w.cover(next, w.reach-p.units, w.byPrice, w.price)
}

// activeFloor bounds from below the active draw of every admissible
// completion of prefix p by classes next.., and reports the lowest ratio
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
		if c < next || cc.Units <= 0 {
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

// cover is the least cost of adding need capability units from classes
// next.. when hosts may be taken fractionally, taking the classes in
// order (cheapest per unit first); a class-c host costs price[c], or one
// when price is nil.
func (w *walker) cover(next int, need float64, order []int, price []float64) float64 {
	total := 0.0
	for _, c := range order {
		if need <= 0 {
			break
		}
		if c < next || w.cost[c].Units <= 0 {
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

// leaf scores the complete count vector when it is admissible and ranks
// ahead of the best mix, and keeps it when it meets the target.
func (w *walker) leaf() error {
	if err := w.step(len(w.counts)); err != nil {
		return err
	}
	for c, m := range w.members {
		left := w.take[c]
		for _, d := range m {
			w.counts[d] = min(left, w.classSupply[d])
			left -= w.counts[d]
		}
	}
	pr := w.k.Price(eval.Placement{Classes: w.counts})
	if pr.CapabilityUnits <= w.floor || w.best != nil && !w.ahead(pr, w.counts) {
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
