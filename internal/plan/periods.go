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
	// search and bin scoring.
	Evaluations int `json:"evaluations"`
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
// Like Search, it takes no slot of p, and every decision is sequential
// over deterministic inputs, so the same inputs yield a byte-identical
// PeriodPlan for any pool worker count. A cancelled ctx stops it between
// scores and between rows of the segment enumeration and of the dynamic
// program.
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
	bins, err := resolved.PeriodBins()
	if err != nil {
		return PeriodPlan{}, err
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
	// search. need[pi*n+b] marks the bins some segment at peak pi covers
	// — the (peak, bin) pairs to score.
	type peakEntry struct {
		mults []float64
		plan  *Plan // nil: the supply cannot serve this peak
		place eval.Placement
	}
	peakIdx := make(map[string]int)
	var peaks []peakEntry
	var need []bool
	segPeak := make([]int, n*n) // segPeak[i*n+j] = peak index of segment [i..j]
	key := make([]byte, 0, 8*services)
	cur := make([]float64, services)
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return PeriodPlan{}, err
		}
		copy(cur, bins[i].Multipliers)
		for j := i; j < n; j++ {
			for t, v := range bins[j].Multipliers {
				cur[t] = max(cur[t], v)
			}
			key = key[:0]
			for _, v := range cur {
				key = binary.LittleEndian.AppendUint64(key, math.Float64bits(v))
			}
			idx, ok := peakIdx[string(key)]
			if !ok {
				idx = len(peaks)
				peakIdx[string(key)] = idx
				peaks = append(peaks, peakEntry{mults: append([]float64(nil), cur...)})
				need = append(need, make([]bool, n)...)
			}
			segPeak[i*n+j] = idx
			for b := i; b <= j; b++ {
				need[idx*n+b] = true
			}
		}
	}

	// Size each distinct peak with the single-point planner. A peak the
	// supply cannot serve makes its segments invalid, not the whole
	// plan: with per-service peaks in different bins, splitting can be
	// feasible where the static peak is not.
	evaluations := 0
	for pi := range peaks {
		pl, err := searchPeak(ctx, ev, spec, flat, base, pi, peaks[pi].mults)
		if err != nil {
			if errors.Is(err, ErrInfeasible) {
				continue
			}
			return PeriodPlan{}, err
		}
		peaks[pi].plan, peaks[pi].place = &pl, pl.placement()
		evaluations += pl.Evaluations
	}

	// Score each bin under every placement some segment would run it on,
	// in deterministic peak-major bin-minor order: on the bins' rescaled
	// kernels, or as one batch of stamped bin scenarios, so the sim
	// evaluator lowers the whole grid onto a single engine run. Only the
	// stamping route builds a bin's stationary scenario, once per bin it
	// scores.
	var order []int // pi*n + b
	for at, ok := range need {
		if ok && peaks[at/n].plan != nil {
			order = append(order, at)
		}
	}
	res := make([]eval.Result, len(need))
	if base != nil {
		binKernels := make([]*eval.Kernel, n)
		for _, at := range order {
			if err := ctx.Err(); err != nil {
				return PeriodPlan{}, err
			}
			b := at % n
			if binKernels[b] == nil {
				if binKernels[b], err = base.Scale(bins[b].Multipliers); err != nil {
					return PeriodPlan{}, err
				}
			}
			if res[at], err = binKernels[b].Score(peaks[at/n].place); err != nil {
				return PeriodPlan{}, err
			}
		}
	} else {
		stat := make([]scenario.Scenario, n) // Services stays nil until built
		cands := make([]scenario.Scenario, len(order))
		for t, at := range order {
			b := at % n
			if stat[b].Services == nil {
				if stat[b], err = resolved.Stationary(bins[b].Name, bins[b].Multipliers); err != nil {
					return PeriodPlan{}, fmt.Errorf("periods bin %d: %w", b, err)
				}
			}
			cands[t] = stamp(stat[b], peaks[at/n].place)
		}
		results, err := eval.EvaluateBatch(ctx, ev, cands)
		if err != nil {
			return PeriodPlan{}, err
		}
		for t, at := range order {
			res[at] = results[t]
		}
	}
	evaluations += len(order)
	binOK := make([]bool, len(need))
	energy := make([]float64, len(need))
	for _, at := range order {
		binOK[at] = !math.IsNaN(res[at].Loss) && res[at].Loss <= spec.Target
		energy[at] = res[at].Watts * bins[at%n].Seconds / 3600
	}

	// Segment validity: a segment stands only if its peak sizing
	// succeeded and every bin stays under the target when run on that
	// placement (an infeasible peak scored no bin, so none is OK). Its
	// energy is not pre-summed: the dynamic program accumulates it bin by
	// bin in time order, so partitions whose per-bin placements coincide
	// get bitwise-equal costs and the tie-break below can see the tie.
	segOK := make([]bool, n*n)
	for i := 0; i < n; i++ {
		pePrev, ok := -1, true
		for j := i; j < n; j++ {
			idx := segPeak[i*n+j]
			if idx != pePrev {
				// The peak grew: re-check earlier bins under the new
				// placement.
				pePrev, ok = idx, true
				for b := i; ok && b < j; b++ {
					ok = binOK[idx*n+b]
				}
			}
			ok = ok && binOK[idx*n+j]
			segOK[i*n+j] = ok
		}
	}

	// Dynamic program over contiguous segmentations. dp[k*(n+1)+j] is
	// the best partition of bins [0..j-1] whose last segment is
	// [k..j-1]; transitions charge the boundary between the previous
	// segment's placement and this one's, read through the peaks' plan
	// pointers. Ties on cost keep more segments, then the earliest
	// previous start — all deterministic.
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
	charge := func(a, b *Plan) (int, float64) {
		mv := planMoves(a, b, services)
		if mv == 0 {
			return 0, 0
		}
		return mv, float64(mv) * migrationCostWh
	}
	w := n + 1
	dp := make([]cell, n*w)
	for j := 1; j <= n; j++ {
		if err := ctx.Err(); err != nil {
			return PeriodPlan{}, err
		}
		for k := 0; k < j; k++ {
			if !segOK[k*n+j-1] {
				continue
			}
			idx := segPeak[k*n+j-1]
			if k == 0 {
				cost := 0.0
				for b := 0; b < j; b++ {
					cost += energy[idx*n+b]
				}
				dp[j] = cell{cost: cost, segs: 1, prev: -1, ok: true}
				continue
			}
			var best cell
			for m := 0; m < k; m++ {
				pc := dp[m*w+k]
				if !pc.ok {
					continue
				}
				_, ch := charge(peaks[segPeak[m*n+k-1]].plan, peaks[idx].plan)
				cost := pc.cost + ch
				for b := k; b < j; b++ {
					cost += energy[idx*n+b]
				}
				c := cell{cost: cost, segs: pc.segs + 1, prev: m, ok: true}
				if !best.ok || better(c, best) {
					best = c
				}
			}
			dp[k*w+j] = best
		}
	}
	bestK := -1
	for k := 0; k < n; k++ {
		if !dp[k*w+n].ok {
			continue
		}
		if bestK < 0 || better(dp[k*w+n], dp[bestK*w+n]) {
			bestK = k
		}
	}
	if bestK < 0 {
		return PeriodPlan{}, fmt.Errorf("%w: some period bin exceeds the supply at every segmentation", ErrInfeasible)
	}
	var starts []int
	for k, j := bestK, n; ; {
		starts = append(starts, k)
		prev := dp[k*w+j].prev
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
	}
	for si, start := range starts {
		end := n - 1
		if si+1 < len(starts) {
			end = starts[si+1] - 1
		}
		idx := segPeak[start*n+end]
		pl := peaks[idx].plan
		for b := start; b <= end; b++ {
			out.Bins = append(out.Bins, BinPlan{
				Name:      bins[b].Name,
				Seconds:   bins[b].Seconds,
				Segment:   si,
				Hosts:     pl.Hosts,
				Classes:   pl.Classes,
				Dedicated: pl.Dedicated,
				Result:    res[idx*n+b],
				EnergyWh:  energy[idx*n+b],
			})
			out.EnergyWh += energy[idx*n+b]
		}
		if si > 0 {
			if mv, ch := charge(peaks[segPeak[starts[si-1]*n+start-1]].plan, pl); mv > 0 {
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
func searchPeak(ctx context.Context, ev eval.Evaluator, spec Spec, flat scenario.Scenario, base *eval.Kernel, idx int, mults []float64) (Plan, error) {
	if base != nil {
		k, err := base.Scale(mults)
		if err != nil {
			return Plan{}, err
		}
		return search(ctx, ev, spec, flat, k)
	}
	stat, err := flat.Stationary(fmt.Sprintf("peak%02d", idx), mults)
	if err != nil {
		return Plan{}, err
	}
	spec.Scenario = stat
	return Search(ctx, ev, nil, spec)
}

// planMoves counts the VM migrations turning placement a into placement
// b: dedicated pools move one VM per server resized; consolidated
// fleets move every co-located service VM of every added or removed
// host. Plans from the same spec share a mode, so exactly one shape
// matches.
func planMoves(a, b *Plan, services int) int {
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
