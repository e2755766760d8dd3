package plan

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"

	"repro/internal/eval"
	"repro/internal/pool"
	"repro/internal/power"
	"repro/internal/scenario"
)

// Search finds the cheapest placement of spec.Scenario's workload that
// meets the loss target, scoring candidates with ev. The analytic
// evaluator compiles the scenario once and scores every candidate inline
// on the calling goroutine. Any other evaluator sees each candidate
// stamped onto the scenario, and candidate batches run in parallel: p
// bounds that fan-out unless ev already budgets itself against a shared
// pool (eval.SelfBudgeted), in which case wrapping would risk a
// slot-holder waiting on a slot.
func Search(ctx context.Context, ev eval.Evaluator, p *pool.Pool, spec Spec) (Plan, error) {
	spec, err := spec.normalized()
	if err != nil {
		return Plan{}, err
	}
	resolved := spec.Scenario.Clone()
	resolved.ApplyDefaults()
	if err := resolved.Validate(); err != nil {
		return Plan{}, err
	}
	if resolved.Periods != nil {
		return Plan{}, fmt.Errorf("%w: a periods scenario is time-varying; plan it bin by bin (SearchPeriods)", eval.ErrUnsupported)
	}
	if spec.Seed == 0 {
		spec.Seed = int64(resolved.Seed)
	}
	k, err := compile(ev, resolved)
	if err != nil {
		return Plan{}, err
	}
	return search(ctx, ev, p, spec, resolved, k)
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
func search(ctx context.Context, ev eval.Evaluator, p *pool.Pool, spec Spec, resolved scenario.Scenario, k *eval.Kernel) (Plan, error) {
	s := &searcher{ctx: ctx, ev: ev, pool: p, spec: spec, resolved: resolved, kernel: k}
	if sb, ok := ev.(eval.SelfBudgeted); ok && sb.SelfBudgeted() {
		s.selfBudgeted = true
	}

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
	plan.Seed = spec.Seed
	return plan, nil
}

type searcher struct {
	ctx          context.Context
	ev           eval.Evaluator
	pool         *pool.Pool
	spec         Spec
	resolved     scenario.Scenario
	kernel       *eval.Kernel // nil: stamp candidates and call ev
	selfBudgeted bool
	evaluations  int
}

// batch scores candidate placements, index-addressed. On the kernel they
// are scored in order on the calling goroutine; otherwise each is stamped
// onto the scenario and evaluated concurrently, and the results (and the
// first error, by index) are reduced sequentially. Either way the outcome
// is independent of worker count and scheduling.
func (s *searcher) batch(cands []eval.Placement) ([]eval.Result, error) {
	s.evaluations += len(cands)
	results := make([]eval.Result, len(cands))
	if s.kernel != nil {
		for i, c := range cands {
			if err := s.ctx.Err(); err != nil {
				return nil, err
			}
			var err error
			if results[i], err = s.kernel.Score(c); err != nil {
				return nil, err
			}
		}
		return results, nil
	}
	errs := make([]error, len(cands))
	var wg sync.WaitGroup
	for i := range cands {
		cand := stamp(s.resolved, cands[i])
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			run := func() error {
				var err error
				results[i], err = s.ev.Evaluate(s.ctx, cand)
				return err
			}
			if s.selfBudgeted {
				errs[i] = run()
			} else {
				errs[i] = s.pool.Run(s.ctx, run)
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

func (s *searcher) eval1(cand eval.Placement) (eval.Result, error) {
	res, err := s.batch([]eval.Placement{cand})
	if err != nil {
		return eval.Result{}, err
	}
	return res[0], nil
}

func (s *searcher) feasible(r eval.Result) bool {
	return !math.IsNaN(r.Loss) && r.Loss <= s.spec.Target
}

// better reports whether a beats b under the spec's objective.
func (s *searcher) better(a, b eval.Result) bool {
	if s.spec.Objective == MinPower {
		if a.Watts != b.Watts {
			return a.Watts < b.Watts
		}
		return a.Hosts < b.Hosts
	}
	if a.Hosts != b.Hosts {
		return a.Hosts < b.Hosts
	}
	return a.Watts < b.Watts
}

// objValue scalarizes a result for the annealing acceptance test.
func (s *searcher) objValue(r eval.Result) float64 {
	if s.spec.Objective == MinPower {
		return r.Watts
	}
	return float64(r.Hosts)
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
		res, err := s.eval1(eval.Placement{Hosts: hi})
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
		res, err := s.eval1(eval.Placement{Hosts: mid})
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
			res, err := s.eval1(eval.Placement{Dedicated: sizes})
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
			res, err := s.eval1(eval.Placement{Dedicated: sizes})
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
	final, err := s.eval1(eval.Placement{Dedicated: sizes})
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

// classBaseWatts reports a class's idle-cost proxy for the min-power
// ranking: its power override's base draw, else the fleet model's.
func (s *searcher) classBaseWatts(hc scenario.HostClass) float64 {
	if hc.Power != nil {
		return hc.Power.BaseW
	}
	if s.resolved.Power != nil && (s.resolved.Power.BaseW != 0 || s.resolved.Power.MaxW != 0) {
		return s.resolved.Power.BaseW
	}
	return power.DefaultServer.Base
}

// ffdOrder ranks classes for the first-fit-decreasing seed: best
// capability first (min-servers) or best capability per idle watt
// (min-power); ties keep scenario order.
func (s *searcher) ffdOrder(resources []string) []int {
	classes := s.resolved.Fleet.Classes
	keys := make([]float64, len(classes))
	for k, hc := range classes {
		cap := eval.ClassCapability(hc, resources)
		if s.spec.Objective == MinPower {
			keys[k] = cap / s.classBaseWatts(hc)
		} else {
			keys[k] = cap
		}
	}
	order := make([]int, len(classes))
	for k := range order {
		order[k] = k
	}
	// Insertion sort keeps equal keys in scenario order (stable).
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && keys[order[j]] > keys[order[j-1]]; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	return order
}

// searchHetero places hosts across the scenario's class supply: an FFD
// seed fills best-ranked classes first until feasible, then local search
// (remove one host; swap one host across classes) descends under the
// objective, with a seeded simulated-annealing kick accepting bounded
// uphill moves out of stalls. Heterogeneous loss is not monotone in any
// single class count, so this is a heuristic; the homogeneous and
// dedicated paths stay exact.
func (s *searcher) searchHetero() (Plan, error) {
	classes := s.resolved.Fleet.Classes
	resources, err := eval.ScenarioResources(s.resolved)
	if err != nil {
		return Plan{}, err
	}
	order := s.ffdOrder(resources)

	// FFD seed: all add-one-host prefixes, evaluated as one batch; the
	// first feasible prefix is the seed.
	var prefixes [][]int
	counts := make([]int, len(classes))
	for _, k := range order {
		for c := 0; c < classes[k].Count; c++ {
			counts[k]++
			prefixes = append(prefixes, append([]int(nil), counts...))
		}
	}
	cands := make([]eval.Placement, len(prefixes))
	for i, p := range prefixes {
		cands[i] = eval.Placement{Classes: p}
	}
	results, err := s.batch(cands)
	if err != nil {
		return Plan{}, err
	}
	seed := -1
	for i, r := range results {
		if s.feasible(r) {
			seed = i
			break
		}
	}
	if seed < 0 {
		return Plan{}, fmt.Errorf("%w: the full class supply (%d hosts) stays above loss %g", ErrInfeasible, len(prefixes), s.spec.Target)
	}
	cur := append([]int(nil), prefixes[seed]...)
	curRes := results[seed]
	best := append([]int(nil), cur...)
	bestRes := curRes

	rng := rand.New(rand.NewSource(s.spec.Seed))
	temp := math.Max(1, s.objValue(curRes)) * 0.05
	for iter := 0; iter < s.spec.MaxIters; iter++ {
		moves := s.moves(cur)
		if len(moves) == 0 {
			break
		}
		cands := make([]eval.Placement, len(moves))
		for i, m := range moves {
			cands[i] = eval.Placement{Classes: m}
		}
		results, err := s.batch(cands)
		if err != nil {
			return Plan{}, err
		}
		pick := -1
		for i, r := range results {
			if !s.feasible(r) || !s.better(r, curRes) {
				continue
			}
			if pick < 0 || s.better(r, results[pick]) {
				pick = i
			}
		}
		if pick < 0 {
			// Stalled: annealing kick — accept one random feasible
			// worsening move with Boltzmann probability, else stop.
			feas := make([]int, 0, len(results))
			for i, r := range results {
				if s.feasible(r) {
					feas = append(feas, i)
				}
			}
			if len(feas) == 0 {
				break
			}
			i := feas[rng.Intn(len(feas))]
			delta := s.objValue(results[i]) - s.objValue(curRes)
			if rng.Float64() >= math.Exp(-delta/temp) {
				break
			}
			pick = i
			temp *= 0.8
		}
		cur = moves[pick]
		curRes = results[pick]
		if s.better(curRes, bestRes) {
			best = append([]int(nil), cur...)
			bestRes = curRes
		}
	}

	plan := Plan{Result: bestRes}
	for k, hc := range classes {
		plan.Hosts += best[k]
		plan.Classes = append(plan.Classes, ClassCount{Name: className(hc), Count: best[k]})
	}
	return plan, nil
}

// moves generates the local-search neighborhood of a class assignment:
// remove one host from each occupied class, then swap one host from each
// occupied class to each class with spare supply. Order is
// deterministic (class-index major).
func (s *searcher) moves(counts []int) [][]int {
	classes := s.resolved.Fleet.Classes
	total := 0
	for _, c := range counts {
		total += c
	}
	var out [][]int
	for a := range counts {
		if counts[a] == 0 || total == 1 {
			continue
		}
		m := append([]int(nil), counts...)
		m[a]--
		out = append(out, m)
	}
	for a := range counts {
		if counts[a] == 0 {
			continue
		}
		for b := range counts {
			if b == a || counts[b] >= classes[b].Count {
				continue
			}
			m := append([]int(nil), counts...)
			m[a]--
			m[b]++
			out = append(out, m)
		}
	}
	return out
}
