package plan

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"

	"repro/internal/eval"
	"repro/internal/pool"
	"repro/internal/scenario"
)

// BinPlan is one time bin of a multi-period plan: the placement its
// segment runs, and the bin's evaluation under that placement.
type BinPlan struct {
	// Name and Seconds echo the bin from the scenario's periods spec.
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`

	// Segment indexes the contiguous run of bins sharing this placement
	// (0-based, in time order); bins with equal Segment never migrate
	// between each other.
	Segment int `json:"segment"`

	// Hosts, Classes and Dedicated describe the segment's placement in
	// the same shape Plan uses.
	Hosts     int          `json:"hosts"`
	Classes   []ClassCount `json:"classes,omitempty"`
	Dedicated []PoolSize   `json:"dedicated,omitempty"`

	// Result is the bin's stationary sub-scenario evaluated under the
	// segment's placement (not at the segment's sizing peak).
	Result eval.Result `json:"result"`

	// EnergyWh is the bin's energy at that draw: Watts × Seconds / 3600.
	EnergyWh float64 `json:"energy_wh"`
}

// Migration is one reconfiguration boundary in a multi-period plan.
type Migration struct {
	// From and To name the bins on either side of the boundary.
	From string `json:"from"`
	To   string `json:"to"`

	// Moves counts VM migrations the reconfiguration implies: the
	// dedicated pool-size deltas, or the host-count delta times the
	// co-located service count for consolidated fleets.
	Moves int `json:"moves"`

	// CostWh is Moves × the plan's per-migration cost.
	CostWh float64 `json:"cost_wh"`
}

// PeriodPlan is a full multi-period placement: per-bin plans, the
// migration schedule between them, and the day's energy accounting.
type PeriodPlan struct {
	Objective string  `json:"objective"`
	Target    float64 `json:"target"`
	Mode      string  `json:"mode"`

	// MigrationCostWh is the per-VM-move charge the smoothing pass ran
	// with. +Inf (a static plan was forced) cannot be JSON-encoded;
	// callers that encode must pass a finite cost.
	MigrationCostWh float64 `json:"migration_cost_wh"`

	// Bins holds one entry per period bin, in time order.
	Bins []BinPlan `json:"bins"`

	// Migrations lists the boundaries whose placements actually differ
	// (zero-move boundaries between segments are omitted).
	Migrations []Migration `json:"migrations,omitempty"`

	// EnergyWh sums the bins' energies; MigrationWh sums the migration
	// charges; TotalWh (and TotalKWh) is their sum — the objective the
	// smoothing pass minimized.
	EnergyWh    float64 `json:"energy_wh"`
	MigrationWh float64 `json:"migration_wh"`
	TotalWh     float64 `json:"total_wh"`
	TotalKWh    float64 `json:"total_kwh"`

	// Evaluations counts candidate evaluations across every segment
	// search and bin scoring; Seed echoes the search seed.
	Evaluations int   `json:"evaluations"`
	Seed        int64 `json:"seed"`
}

// EncodeJSON renders the period plan as stable, newline-terminated
// indented JSON, the byte-diffable form CI goldens pin.
func (p PeriodPlan) EncodeJSON() ([]byte, error) {
	b, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("plan: encode: %w", err)
	}
	return append(b, '\n'), nil
}

// SearchPeriods plans a periods scenario bin by bin and then smooths the
// bin plans against a per-migration charge.
//
// Every contiguous bin segment is sized once by Search at the segment's
// peak demand (the element-wise maximum of its bins' rate multipliers),
// deduplicated by peak vector, and each bin is scored under its
// segment's placement. A dynamic program over contiguous segmentations
// then picks the partition minimizing total energy plus migrationCostWh
// per VM move at each segment boundary — exact over partitions, so a
// zero cost degenerates to independent per-bin plans and an infinite
// cost collapses to the static peak placement. Ties on cost prefer more
// segments (the finest equivalent schedule). The planning day is linear:
// the wrap-around boundary back to the first bin is not charged.
//
// Like Search, every decision is sequential over deterministic inputs,
// so the same inputs yield a byte-identical PeriodPlan for any pool
// worker count.
func SearchPeriods(ctx context.Context, ev eval.Evaluator, p *pool.Pool, spec Spec, migrationCostWh float64) (PeriodPlan, error) {
	spec, err := spec.normalized()
	if err != nil {
		return PeriodPlan{}, err
	}
	if math.IsNaN(migrationCostWh) || migrationCostWh < 0 {
		return PeriodPlan{}, fmt.Errorf("plan: migration cost %g Wh per move (want >= 0; +Inf forces a static plan)", migrationCostWh)
	}
	resolved := spec.Scenario.Clone()
	resolved.ApplyDefaults()
	if err := resolved.Validate(); err != nil {
		return PeriodPlan{}, err
	}
	bins, err := resolved.ResolvePeriods()
	if err != nil {
		return PeriodPlan{}, err
	}
	if spec.Seed == 0 {
		spec.Seed = int64(resolved.Seed)
	}
	n := len(bins)
	services := len(resolved.Services)

	// Under the analytic evaluator the base scenario (periods stripped) is
	// compiled once, and every segment peak and bin below is a rescaled
	// kernel: scenario.Stationary's rate·mult products without the
	// scenario.
	flat := resolved
	flat.Periods = nil
	base, err := compile(ev, flat)
	if err != nil {
		return PeriodPlan{}, err
	}

	// Enumerate every contiguous segment's peak-demand vector,
	// deduplicated on the multipliers' bit patterns: the day shape
	// revisits levels, so far fewer than n(n+1)/2 distinct peaks need a
	// search.
	type peakEntry struct {
		mults    []float64
		feasible bool
		plan     Plan
		place    eval.Placement
		binRes   []eval.Result
		binOK    []bool
	}
	peakIdx := make(map[string]int)
	var peaks []*peakEntry
	segPeak := make([][]int, n) // segPeak[i][j-i] = peak index of segment [i..j]
	key := make([]byte, 0, 8*services)
	for i := 0; i < n; i++ {
		cur := append([]float64(nil), bins[i].Multipliers...)
		segPeak[i] = make([]int, n-i)
		for j := i; j < n; j++ {
			if j > i {
				for t, v := range bins[j].Multipliers {
					if v > cur[t] {
						cur[t] = v
					}
				}
			}
			key = key[:0]
			for _, v := range cur {
				key = binary.LittleEndian.AppendUint64(key, math.Float64bits(v))
			}
			idx, ok := peakIdx[string(key)]
			if !ok {
				idx = len(peaks)
				peakIdx[string(key)] = idx
				peaks = append(peaks, &peakEntry{mults: append([]float64(nil), cur...)})
			}
			segPeak[i][j-i] = idx
		}
	}

	// Size each distinct peak with the single-point planner. A peak the
	// supply cannot serve makes its segments invalid, not the whole
	// plan: with per-service peaks in different bins, splitting can be
	// feasible where the static peak is not.
	evaluations := 0
	for pi, pe := range peaks {
		pl, err := searchPeak(ctx, ev, p, spec, flat, base, pi, pe.mults)
		if err != nil {
			if errors.Is(err, ErrInfeasible) {
				continue
			}
			return PeriodPlan{}, err
		}
		pe.feasible = true
		pe.plan = pl
		pe.place = pl.placement()
		evaluations += pl.Evaluations
	}

	// Score each bin under every placement some segment would run it on,
	// in deterministic peak-major bin-minor order: on the bins' rescaled
	// kernels, or as one batch of stamped bin scenarios, so the sim
	// evaluator lowers the whole grid onto a single engine run.
	type pairKey struct{ peak, bin int }
	needed := make(map[pairKey]bool)
	for i := range segPeak {
		for dj, idx := range segPeak[i] {
			if !peaks[idx].feasible {
				continue
			}
			for b := i; b <= i+dj; b++ {
				needed[pairKey{idx, b}] = true
			}
		}
	}
	var order []pairKey
	for pi, pe := range peaks {
		if !pe.feasible {
			continue
		}
		pe.binRes = make([]eval.Result, n)
		pe.binOK = make([]bool, n)
		for b := 0; b < n; b++ {
			if needed[pairKey{pi, b}] {
				order = append(order, pairKey{pi, b})
			}
		}
	}
	var results []eval.Result
	if base != nil {
		results = make([]eval.Result, len(order))
		binKernels := make([]*eval.Kernel, n)
		for t, pk := range order {
			if err := ctx.Err(); err != nil {
				return PeriodPlan{}, err
			}
			if binKernels[pk.bin] == nil {
				if binKernels[pk.bin], err = base.Scale(bins[pk.bin].Multipliers); err != nil {
					return PeriodPlan{}, err
				}
			}
			if results[t], err = binKernels[pk.bin].Score(peaks[pk.peak].place); err != nil {
				return PeriodPlan{}, err
			}
		}
	} else {
		cands := make([]scenario.Scenario, len(order))
		for t, pk := range order {
			cands[t] = stamp(bins[pk.bin].Scenario, peaks[pk.peak].place)
		}
		if results, err = eval.EvaluateBatch(ctx, ev, cands); err != nil {
			return PeriodPlan{}, err
		}
	}
	evaluations += len(order)
	for t, pk := range order {
		pe := peaks[pk.peak]
		pe.binRes[pk.bin] = results[t]
		pe.binOK[pk.bin] = !math.IsNaN(results[t].Loss) && results[t].Loss <= spec.Target
	}

	// Segment validity: a segment stands only if its peak sizing
	// succeeded and every bin stays under the target when run on that
	// placement. (Energies are not pre-summed per segment: the dynamic
	// program accumulates them bin by bin in time order, so partitions
	// whose per-bin placements coincide get bitwise-equal costs and the
	// tie-break below can see the tie.)
	segOK := make([][]bool, n)
	for i := 0; i < n; i++ {
		segOK[i] = make([]bool, n-i)
		pePrev, ok := -1, true
		for j := i; j < n; j++ {
			idx := segPeak[i][j-i]
			pe := peaks[idx]
			if idx != pePrev {
				// The peak grew: re-check earlier bins under the new
				// placement.
				pePrev = idx
				ok = pe.feasible
				for b := i; ok && b < j; b++ {
					ok = pe.binOK[b]
				}
			}
			ok = ok && pe.binOK[j]
			segOK[i][j-i] = ok
		}
	}
	binEnergy := func(peak, b int) float64 {
		return peaks[peak].binRes[b].Watts * bins[b].Seconds / 3600
	}

	// Dynamic program over contiguous segmentations. dp[k][j] is the
	// best partition of bins [0..j-1] whose last segment is [k..j-1];
	// transitions charge the boundary between the previous segment's
	// placement and this one's. Ties on cost keep more segments, then
	// the earliest previous start — all deterministic.
	type cell struct {
		cost float64
		segs int
		prev int
		ok   bool
	}
	better := func(a, b cell) bool {
		if a.cost != b.cost {
			return a.cost < b.cost
		}
		return a.segs > b.segs
	}
	charge := func(a, b Plan) (int, float64) {
		mv := planMoves(a, b, services)
		if mv == 0 {
			return 0, 0
		}
		return mv, float64(mv) * migrationCostWh
	}
	dp := make([][]cell, n)
	for k := range dp {
		dp[k] = make([]cell, n+1)
	}
	for j := 1; j <= n; j++ {
		for k := 0; k < j; k++ {
			if !segOK[k][j-1-k] {
				continue
			}
			idx := segPeak[k][j-1-k]
			if k == 0 {
				cost := 0.0
				for b := 0; b < j; b++ {
					cost += binEnergy(idx, b)
				}
				dp[0][j] = cell{cost: cost, segs: 1, prev: -1, ok: true}
				continue
			}
			var best cell
			for m := 0; m < k; m++ {
				pc := dp[m][k]
				if !pc.ok {
					continue
				}
				_, ch := charge(peaks[segPeak[m][k-1-m]].plan, peaks[idx].plan)
				cost := pc.cost + ch
				for b := k; b < j; b++ {
					cost += binEnergy(idx, b)
				}
				c := cell{cost: cost, segs: pc.segs + 1, prev: m, ok: true}
				if !best.ok || better(c, best) {
					best = c
				}
			}
			dp[k][j] = best
		}
	}
	bestK := -1
	for k := 0; k < n; k++ {
		if !dp[k][n].ok {
			continue
		}
		if bestK < 0 || better(dp[k][n], dp[bestK][n]) {
			bestK = k
		}
	}
	if bestK < 0 {
		return PeriodPlan{}, fmt.Errorf("%w: some period bin exceeds the supply at every segmentation", ErrInfeasible)
	}
	var starts []int
	for k, j := bestK, n; ; {
		starts = append(starts, k)
		prev := dp[k][j].prev
		if prev < 0 {
			break
		}
		k, j = prev, k
	}
	for l, r := 0, len(starts)-1; l < r; l, r = l+1, r-1 {
		starts[l], starts[r] = starts[r], starts[l]
	}

	out := PeriodPlan{
		Objective:       spec.Objective,
		Target:          spec.Target,
		Mode:            resolved.Mode,
		MigrationCostWh: migrationCostWh,
		Evaluations:     evaluations,
		Seed:            spec.Seed,
	}
	for si, start := range starts {
		end := n - 1
		if si+1 < len(starts) {
			end = starts[si+1] - 1
		}
		pe := peaks[segPeak[start][end-start]]
		for b := start; b <= end; b++ {
			e := pe.binRes[b].Watts * bins[b].Seconds / 3600
			out.Bins = append(out.Bins, BinPlan{
				Name:      bins[b].Name,
				Seconds:   bins[b].Seconds,
				Segment:   si,
				Hosts:     pe.plan.Hosts,
				Classes:   pe.plan.Classes,
				Dedicated: pe.plan.Dedicated,
				Result:    pe.binRes[b],
				EnergyWh:  e,
			})
			out.EnergyWh += e
		}
		if si > 0 {
			prev := peaks[segPeak[starts[si-1]][start-1-starts[si-1]]]
			if mv, ch := charge(prev.plan, pe.plan); mv > 0 {
				out.Migrations = append(out.Migrations, Migration{
					From:   bins[start-1].Name,
					To:     bins[start].Name,
					Moves:  mv,
					CostWh: ch,
				})
				out.MigrationWh += ch
			}
		}
	}
	out.TotalWh = out.EnergyWh + out.MigrationWh
	out.TotalKWh = out.TotalWh / 1000
	return out, nil
}

// searchPeak sizes segment peak idx of the periods-free scenario flat:
// on the base kernel rescaled to the peak under the analytic evaluator,
// else by Search over the peak's stationary scenario.
func searchPeak(ctx context.Context, ev eval.Evaluator, p *pool.Pool, spec Spec, flat scenario.Scenario, base *eval.Kernel, idx int, mults []float64) (Plan, error) {
	if base != nil {
		k, err := base.Scale(mults)
		if err != nil {
			return Plan{}, err
		}
		return search(ctx, ev, p, spec, flat, k)
	}
	stat, err := flat.Stationary(fmt.Sprintf("peak%02d", idx), mults)
	if err != nil {
		return Plan{}, err
	}
	spec.Scenario = stat
	return Search(ctx, ev, p, spec)
}

// planMoves counts the VM migrations turning placement a into placement
// b: dedicated pools move one VM per server resized; consolidated
// fleets move every co-located service VM of every added or removed
// host. Plans from the same spec share a mode, so exactly one shape
// matches.
func planMoves(a, b Plan, services int) int {
	moves := 0
	switch {
	case len(a.Dedicated) > 0 || len(b.Dedicated) > 0:
		for i := 0; i < len(a.Dedicated) && i < len(b.Dedicated); i++ {
			moves += intAbs(a.Dedicated[i].Servers - b.Dedicated[i].Servers)
		}
	case len(a.Classes) > 0 || len(b.Classes) > 0:
		for i := 0; i < len(a.Classes) && i < len(b.Classes); i++ {
			moves += intAbs(a.Classes[i].Count - b.Classes[i].Count)
		}
		moves *= services
	default:
		moves = intAbs(a.Hosts-b.Hosts) * services
	}
	return moves
}

func intAbs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
