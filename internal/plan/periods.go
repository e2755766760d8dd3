package plan

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"

	"repro/internal/eval"
	"repro/internal/jsonenc"
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

	// Evaluations counts the candidate evaluations of every segment
	// search plus one per (peak, bin) pair scored. Under eval.Analytic a
	// pair whose placement and level an earlier pair already scored reads
	// that score and still counts, as a simulator cache hit counts on the
	// stamping route. Behind an evaluator with Evaluate alone the count
	// equals its Evaluate calls.
	Evaluations int `json:"evaluations"`
}

// EncodeJSON renders the period plan as stable, newline-terminated
// indented JSON, the byte-diffable form CI goldens pin: AppendJSON's
// bytes indented, as json.MarshalIndent would.
func (p PeriodPlan) EncodeJSON() ([]byte, error) {
	return indent(p.AppendJSON(nil))
}

// AppendJSON appends the period plan's compact JSON encoding to b and
// returns the extended buffer: the bytes json.Marshal writes from the
// struct tags, which stay the reference, error included — a NaN number,
// or the +Inf MigrationCostWh of a forced static plan.
func (p PeriodPlan) AppendJSON(b []byte) ([]byte, error) {
	b = append(b, `{"objective":`...)
	b = jsonenc.AppendString(b, p.Objective)
	b = append(b, `,"target":`...)
	b, err := jsonenc.AppendFloat(b, p.Target)
	if err != nil {
		return nil, err
	}
	b = append(b, `,"mode":`...)
	b = jsonenc.AppendString(b, p.Mode)
	b = append(b, `,"migration_cost_wh":`...)
	if b, err = jsonenc.AppendFloat(b, p.MigrationCostWh); err != nil {
		return nil, err
	}
	b = append(b, `,"bins":`...)
	if p.Bins == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i := range p.Bins {
			if i > 0 {
				b = append(b, ',')
			}
			if b, err = p.Bins[i].appendJSON(b); err != nil {
				return nil, err
			}
		}
		b = append(b, ']')
	}
	if len(p.Migrations) > 0 {
		b = append(b, `,"migrations":[`...)
		for i, m := range p.Migrations {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"from":`...)
			b = jsonenc.AppendString(b, m.From)
			b = append(b, `,"to":`...)
			b = jsonenc.AppendString(b, m.To)
			b = append(b, `,"moves":`...)
			b = strconv.AppendInt(b, int64(m.Moves), 10)
			b = append(b, `,"cost_wh":`...)
			if b, err = jsonenc.AppendFloat(b, m.CostWh); err != nil {
				return nil, err
			}
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	for _, f := range [...]struct {
		key string
		v   float64
	}{
		{`,"energy_wh":`, p.EnergyWh},
		{`,"migration_wh":`, p.MigrationWh},
		{`,"total_wh":`, p.TotalWh},
		{`,"total_kwh":`, p.TotalKWh},
	} {
		b = append(b, f.key...)
		if b, err = jsonenc.AppendFloat(b, f.v); err != nil {
			return nil, err
		}
	}
	b = append(b, `,"evaluations":`...)
	b = strconv.AppendInt(b, int64(p.Evaluations), 10)
	return append(b, '}'), nil
}

// appendJSON appends the bin's JSON object to b, as json.Marshal would.
func (bp *BinPlan) appendJSON(b []byte) ([]byte, error) {
	b = append(b, `{"name":`...)
	b = jsonenc.AppendString(b, bp.Name)
	b = append(b, `,"seconds":`...)
	b, err := jsonenc.AppendFloat(b, bp.Seconds)
	if err != nil {
		return nil, err
	}
	b = append(b, `,"segment":`...)
	b = strconv.AppendInt(b, int64(bp.Segment), 10)
	b = append(b, `,"hosts":`...)
	b = strconv.AppendInt(b, int64(bp.Hosts), 10)
	b = appendPools(b, bp.Classes, bp.Dedicated)
	b = append(b, `,"result":`...)
	if b, err = bp.Result.AppendJSON(b); err != nil {
		return nil, err
	}
	b = append(b, `,"energy_wh":`...)
	if b, err = jsonenc.AppendFloat(b, bp.EnergyWh); err != nil {
		return nil, err
	}
	return append(b, '}'), nil
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
// the wrap-around from the last bin back to the first is neither charged
// nor listed among the migrations.
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
	resolved, err := spec.Scenario.Resolve()
	if err != nil {
		return PeriodPlan{}, err
	}
	bins, err := resolved.PeriodBins()
	if err != nil {
		return PeriodPlan{}, err
	}
	n := len(bins)
	services := len(resolved.Services)

	// Under the analytic evaluator the base scenario (periods stripped) is
	// compiled once, and every segment peak below is a rescaled kernel:
	// scenario.Stationary's rate·mult products without the scenario.
	flat := resolved
	flat.Periods = nil
	base, err := compile(ev, flat)
	if err != nil {
		return PeriodPlan{}, err
	}

	// Enumerate every contiguous segment's peak-demand vector,
	// deduplicated on the multipliers' bit patterns: the day shape
	// revisits levels, so far fewer than n(n+1)/2 distinct peaks need a
	// search. Along a row the peak only grows, so it is looked up only
	// where some multiplier grew. need[pi*n+b] marks the bins some
	// segment at peak pi covers — the (peak, bin) pairs to score. A bin's
	// level is the peak of its one-bin segment, so every level is a peak.
	type peakEntry struct {
		plan  *Plan // nil: the supply cannot serve this peak
		id    int   // the peak's row of the score table; -1 while plan is nil
		level int   // the level of the bins whose own multipliers this is, else -1
	}
	peakIdx := make(map[string]int)
	var peaks []peakEntry
	var peakMults []float64 // peak pi's multipliers at [pi*services:(pi+1)*services]
	var need []bool
	segPeak := make([]int, n*n) // segPeak[i*n+j] = peak index of segment [i..j]
	col := make([]int, n)       // col[b] = bin b's column of the score table
	levels := 0
	key := make([]byte, 0, 8*services)
	cur := make([]float64, services)
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return PeriodPlan{}, err
		}
		copy(cur, bins[i].Multipliers)
		idx := -1
		for j := i; j < n; j++ {
			grew := j == i
			for t, v := range bins[j].Multipliers {
				if v > cur[t] { // multipliers are positive and finite
					cur[t], grew = v, true
				}
			}
			if grew {
				key = key[:0]
				for _, v := range cur {
					key = binary.LittleEndian.AppendUint64(key, math.Float64bits(v))
				}
				var ok bool
				if idx, ok = peakIdx[string(key)]; !ok {
					idx = len(peaks)
					peakIdx[string(key)] = idx
					peaks = append(peaks, peakEntry{id: -1, level: -1})
					peakMults = append(peakMults, cur...)
					need = append(need, make([]bool, n)...)
				}
				for b := i; b < j; b++ {
					need[idx*n+b] = true
				}
			}
			segPeak[i*n+j] = idx
			need[idx*n+j] = true
		}
		pe := &peaks[segPeak[i*n+i]]
		if pe.level < 0 {
			pe.level = levels
			levels++
		}
		col[i] = pe.level
	}

	// Size each distinct peak with the single-point planner. A peak the
	// supply cannot serve makes its segments invalid, not the whole
	// plan: with per-service peaks in different bins, splitting can be
	// feasible where the static peak is not. Under the analytic evaluator
	// a level's rescaled kernel is also the kernel of the bins at that
	// level, so it is kept even when its peak is infeasible: those bins
	// are still scored under other peaks' placements.
	var levelKernels []*eval.Kernel
	if base != nil {
		levelKernels = make([]*eval.Kernel, levels)
	}
	evaluations := 0
	plans := make([]Plan, len(peaks))
	for pi := range peaks {
		pe, mults := &peaks[pi], peakMults[pi*services:(pi+1)*services]
		var err error
		if base != nil {
			var k *eval.Kernel
			if k, err = base.Scale(mults); err != nil {
				return PeriodPlan{}, err
			}
			if pe.level >= 0 {
				levelKernels[pe.level] = k
			}
			plans[pi], err = search(ctx, ev, spec, flat, k)
		} else {
			s := spec
			if s.Scenario, err = flat.Stationary(fmt.Sprintf("peak%02d", pi), mults); err != nil {
				return PeriodPlan{}, err
			}
			plans[pi], err = Search(ctx, ev, nil, s)
		}
		if err != nil {
			if errors.Is(err, ErrInfeasible) {
				continue
			}
			return PeriodPlan{}, err
		}
		pe.plan = &plans[pi]
		evaluations += pe.plan.Evaluations
	}

	// The score table has a row per placement and a column per level. On
	// the kernel a bin's score depends only on the placement and the
	// bin's level, so peaks whose plans place the same fleet share a row
	// and each (placement, level) cell is scored once, however many
	// (peak, bin) pairs read it. The stamping route hands the evaluator
	// each bin's own stationary scenario, so there every feasible peak
	// keeps its own row and every bin its own column.
	var places []eval.Placement // per row
	cols := levels
	if base != nil {
		rowOf := make(map[string]int)
		for pi := range peaks {
			pe := &peaks[pi]
			if pe.plan == nil {
				continue
			}
			key = appendFleet(key[:0], pe.plan)
			id, ok := rowOf[string(key)]
			if !ok {
				id = len(places)
				rowOf[string(key)] = id
				places = append(places, pe.plan.placement())
			}
			pe.id = id
		}
	} else {
		cols = n
		for b := range col {
			col[b] = b
		}
		for pi := range peaks {
			if pe := &peaks[pi]; pe.plan != nil {
				pe.id = len(places)
				places = append(places, pe.plan.placement())
			}
		}
	}
	scores := make([]binScore, len(places)*cols)

	// Score each bin under every placement some segment would run it on,
	// in deterministic peak-major bin-minor order: on the levels'
	// kernels, one Score per cell, or as one batch of stamped bin
	// scenarios, so the sim evaluator lowers the whole grid onto a single
	// engine run. Only the stamping route builds a bin's stationary
	// scenario, once per bin it scores. Either way each (peak, bin) pair
	// counts as one evaluation.
	if base != nil {
		for pi := range peaks {
			pe := &peaks[pi]
			if pe.plan == nil {
				continue
			}
			row := scores[pe.id*cols : (pe.id+1)*cols]
			for b, ok := range need[pi*n : (pi+1)*n] {
				if !ok {
					continue
				}
				evaluations++
				if row[col[b]].scored {
					continue
				}
				if err := ctx.Err(); err != nil {
					return PeriodPlan{}, err
				}
				res, err := levelKernels[col[b]].Score(places[pe.id])
				if err != nil {
					return PeriodPlan{}, err
				}
				row[col[b]] = newBinScore(res, bins[b].Seconds, spec.Target)
			}
		}
	} else {
		var order []int // pi*n + b
		for at, ok := range need {
			if ok && peaks[at/n].plan != nil {
				order = append(order, at)
			}
		}
		stat := make([]scenario.Scenario, n) // Services stays nil until built
		cands := make([]scenario.Scenario, len(order))
		for t, at := range order {
			b := at % n
			if stat[b].Services == nil {
				if stat[b], err = resolved.Stationary(bins[b].Name, bins[b].Multipliers); err != nil {
					return PeriodPlan{}, fmt.Errorf("periods bin %d: %w", b, err)
				}
			}
			cands[t] = stamp(stat[b], places[peaks[at/n].id])
		}
		results, err := eval.EvaluateBatch(ctx, ev, cands)
		if err != nil {
			return PeriodPlan{}, err
		}
		for t, at := range order {
			scores[peaks[at/n].id*cols+at%n] = newBinScore(results[t], bins[at%n].Seconds, spec.Target)
		}
		evaluations += len(order)
	}

	// Dynamic program over contiguous segmentations, one row per segment
	// start k: dp[j*n+k] is the best partition of bins [0..j-1] whose
	// last segment is [k..j-1], chosen over the partitions of [0..k-1]
	// that earlier rows finished (dp[k*n:k*n+k]). A candidate costs its
	// predecessor's cost plus the boundary's migration charge, then the
	// segment's bin energies added one at a time in time order — never
	// pre-summed, so partitions whose per-bin placements coincide get
	// bitwise-equal costs and the tie-break can see the tie. Along a row
	// the segment grows by one bin per column. While its peak keeps the
	// same score-table row (the same placement, on the kernel), each
	// predecessor's running cost just takes the new bin's energy, the
	// next term of the same sum; where that row changes, the segment's
	// earlier bins are re-checked and every running cost is rebuilt from
	// its predecessor, charge included. Ties on cost keep more segments,
	// then the earliest previous start — all deterministic.
	type cell struct {
		cost float64
		segs int32 // 0: no partition ends in this segment
		prev int32 // the previous segment's start, -1 for the first
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
	dp := make([]cell, (n+1)*n)
	run := make([]float64, n) // run[m]: the current candidate through predecessor start m
	for k := 0; k < n; k++ {
		if err := ctx.Err(); err != nil {
			return PeriodPlan{}, err
		}
		preds := dp[k*n : k*n+k]
		id, ok, fresh := -1, false, false
		for j := k; j < n; j++ {
			pe := &peaks[segPeak[k*n+j]]
			if pe.id != id {
				// A new score-table row: re-check the earlier bins on it,
				// and rebuild the running costs below.
				id, ok, fresh = pe.id, pe.id >= 0, false
				for b := k; ok && b < j; b++ {
					ok = scores[id*cols+col[b]].ok
				}
			}
			if ok = ok && scores[id*cols+col[j]].ok; !ok {
				continue
			}
			row := scores[id*cols : (id+1)*cols]
			e := row[col[j]].energy
			if k == 0 {
				// A first segment has no predecessor and no charge.
				if !fresh {
					fresh, run[0] = true, 0
					for b := 0; b < j; b++ {
						run[0] += row[col[b]].energy
					}
				}
				run[0] += e
				dp[(j+1)*n] = cell{cost: run[0], segs: 1, prev: -1}
				continue
			}
			if !fresh {
				fresh = true
				for m, pc := range preds {
					if pc.segs == 0 {
						continue
					}
					_, ch := charge(peaks[segPeak[m*n+k-1]].plan, pe.plan)
					run[m] = pc.cost + ch
					for b := k; b < j; b++ {
						run[m] += row[col[b]].energy
					}
				}
			}
			var best cell
			for m, pc := range preds {
				if pc.segs == 0 {
					continue
				}
				run[m] += e
				c := cell{cost: run[m], segs: pc.segs + 1, prev: int32(m)}
				if best.segs == 0 || better(c, best) {
					best = c
				}
			}
			dp[(j+1)*n+k] = best
		}
	}
	last := dp[n*n:]
	bestK := -1
	for k, c := range last {
		if c.segs == 0 {
			continue
		}
		if bestK < 0 || better(c, last[bestK]) {
			bestK = k
		}
	}
	if bestK < 0 {
		return PeriodPlan{}, fmt.Errorf("%w: some period bin exceeds the supply at every segmentation", ErrInfeasible)
	}
	var starts []int
	for k, j := bestK, n; ; {
		starts = append(starts, k)
		prev := int(dp[j*n+k].prev)
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
		Bins:            make([]BinPlan, 0, n),
		Evaluations:     evaluations,
	}
	for si, start := range starts {
		end := n - 1
		if si+1 < len(starts) {
			end = starts[si+1] - 1
		}
		pe := &peaks[segPeak[start*n+end]]
		pl := pe.plan
		for b := start; b <= end; b++ {
			sc := &scores[pe.id*cols+col[b]]
			res := sc.res
			if sc.taken {
				// An earlier bin of the same level holds this score.
				res.Services = slices.Clone(res.Services)
			}
			sc.taken = true
			out.Bins = append(out.Bins, BinPlan{
				Name:      bins[b].Name,
				Seconds:   bins[b].Seconds,
				Segment:   si,
				Hosts:     pl.Hosts,
				Classes:   pl.Classes,
				Dedicated: pl.Dedicated,
				Result:    res,
				EnergyWh:  sc.energy,
			})
			out.EnergyWh += sc.energy
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

// binScore is one cell of SearchPeriods' score table: a bin's result
// under a placement, the bin's energy at that draw and whether it meets
// the target.
type binScore struct {
	res    eval.Result
	energy float64 // res.Watts × Seconds / 3600; every bin lasts bin_sec
	ok     bool    // res.Loss is a number at or under the target
	scored bool
	taken  bool // an output bin holds res.Services
}

func newBinScore(res eval.Result, seconds, target float64) binScore {
	return binScore{
		res:    res,
		energy: res.Watts * seconds / 3600,
		ok:     !math.IsNaN(res.Loss) && res.Loss <= target,
		scored: true,
	}
}

// appendFleet appends the fleet pl places — its host count, class counts
// and pool sizes — to key: plans of one spec that place the same fleet
// append the same bytes.
func appendFleet(key []byte, pl *Plan) []byte {
	key = binary.LittleEndian.AppendUint64(key, uint64(pl.Hosts))
	for _, c := range pl.Classes {
		key = binary.LittleEndian.AppendUint64(key, uint64(c.Count))
	}
	for _, d := range pl.Dedicated {
		key = binary.LittleEndian.AppendUint64(key, uint64(d.Servers))
	}
	return key
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
