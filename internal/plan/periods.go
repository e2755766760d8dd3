package plan

import (
	"bytes"
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
	// search plus one per (peak, bin) pair scored. A pair whose placement
	// and level an earlier pair already scored reads that score and still
	// counts, so the count is the same whatever the evaluator, and can
	// exceed the evaluator's calls: 232 against 142 on periods-day.
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
		// Bins at one level under one placement hold equal results, so a
		// result equal to an earlier bin's is copied from that bin's
		// bytes, which spans[2j:2j+2] bounds for bin j; the buffer holds
		// two hourly days' spans without allocating.
		var buf [2 * 48]int
		spans := buf[:0]
		for i := range p.Bins {
			bp := &p.Bins[i]
			if i > 0 {
				b = append(b, ',')
			}
			if b, err = bp.appendHead(b); err != nil {
				return nil, err
			}
			start := len(b)
			j := i - 1
			for watts := math.Float64bits(bp.Result.Watts); j >= 0; j-- {
				if r := &p.Bins[j].Result; math.Float64bits(r.Watts) == watts && sameJSON(r, &bp.Result) {
					break
				}
			}
			if j >= 0 {
				b = append(b, b[spans[2*j]:spans[2*j+1]]...)
			} else if b, err = bp.Result.AppendJSON(b); err != nil {
				return nil, err
			}
			spans = append(spans, start, len(b))
			if b, err = bp.appendEnergy(b); err != nil {
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

// appendHead appends the bin's JSON object up to its result's value, as
// json.Marshal would write it.
func (bp *BinPlan) appendHead(b []byte) ([]byte, error) {
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
	return append(b, `,"result":`...), nil
}

// appendEnergy appends the rest of the bin's JSON object after its result.
func (bp *BinPlan) appendEnergy(b []byte) ([]byte, error) {
	b = append(b, `,"energy_wh":`...)
	if math.Float64bits(bp.EnergyWh) == math.Float64bits(bp.Result.Watts) {
		// An hour-long bin's energy in Wh is often its draw in W, which
		// the result printed last, between a colon and its closing brace.
		result := b[:len(b)-len(`,"energy_wh":`)]
		watts := result[bytes.LastIndexByte(result, ':')+1 : len(result)-1]
		return append(append(b, watts...), '}'), nil
	}
	b, err := jsonenc.AppendFloat(b, bp.EnergyWh)
	if err != nil {
		return nil, err
	}
	return append(b, '}'), nil
}

// sameJSON reports whether two results encode to the same bytes: equal in
// every member the encoding prints, numbers bit for bit.
func sameJSON(a, b *eval.Result) bool {
	bits := math.Float64bits
	if bits(a.Watts) != bits(b.Watts) || bits(a.Loss) != bits(b.Loss) || bits(a.Utilization) != bits(b.Utilization) ||
		bits(a.CapabilityUnits) != bits(b.CapabilityUnits) || a.Hosts != b.Hosts || a.Source != b.Source || a.Mode != b.Mode ||
		len(a.Services) != len(b.Services) || (a.Services == nil) != (b.Services == nil) {
		return false
	}
	for i, s := range a.Services {
		if bits(s.Loss) != bits(b.Services[i].Loss) || s.Name != b.Services[i].Name {
			return false
		}
	}
	return true
}

// SearchPeriods plans a periods scenario bin by bin and then smooths the
// bin plans against a per-migration charge.
//
// Every contiguous bin segment is sized at the segment's peak demand
// (the element-wise maximum of its bins' rate multipliers), deduplicated
// by peak vector, by the single-point search on the peak's operating
// point: under eval.Analytic a level of the base scenario's kernel,
// compiled once (the peak's arrival rates over the same flat traffic
// arrays), under any other evaluator the peak's stationary scenario. Each
// bin is scored under its segment's placement at the point of its level,
// the peak of its one-bin segment, on one table whatever the evaluator: a
// row per placement, a column per level, each needed cell scored once,
// into one slab of results. A dynamic program over contiguous
// segmentations then picks the partition minimizing total energy plus
// migrationCostWh per VM move at each segment boundary — exact over
// partitions, so a zero cost degenerates to independent per-bin plans
// and an infinite cost collapses to the static peak placement. Ties on
// cost prefer more segments (the finest equivalent schedule). The
// planning day is linear: the wrap-around from the last bin back to the
// first is neither charged nor listed among the migrations.
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
	done := ctx.Done()

	// Under the analytic evaluator the base scenario (periods stripped) is
	// compiled once, and every segment peak below is a level of it: an
	// arrival-rate vector, scenario.Stationary's rate·mult products
	// without the scenario.
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
		row   int32 // the peak's row of the score table; -1 while plan is nil
		level int32 // the level of the bins whose own multipliers this is, else -1
	}
	peakIdx := make(map[string]int32, n)
	// A day has at least as many peaks as levels, and usually not many
	// more, so the peak arrays start with room for n.
	peaks := make([]peakEntry, 0, n)
	peakMults := make([]float64, 0, n*services) // peak pi's multipliers at [pi*services:(pi+1)*services]
	need := make([]bool, 0, n*n)
	segPeak := make([]int32, n*(n+1)/2) // segPeak[tri(n, i, j)] = peak index of segment [i..j]
	col := make([]int32, n)             // col[b] = bin b's level: its column of the score table
	levels := int32(0)
	key := make([]byte, 0, 8*services)
	cur := make([]float64, services)
	for i := 0; i < n; i++ {
		if err := cancelled(ctx, done); err != nil {
			return PeriodPlan{}, err
		}
		copy(cur, bins[i].Multipliers)
		row := segPeak[tri(n, i, i) : tri(n, i, n-1)+1]
		idx := int32(-1)
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
					idx = int32(len(peaks))
					peakIdx[string(key)] = idx
					peaks = append(peaks, peakEntry{row: -1, level: -1})
					peakMults = append(peakMults, cur...)
					need = append(need, make([]bool, n)...)
				}
				for b := i; b < j; b++ {
					need[int(idx)*n+b] = true
				}
			}
			row[j-i] = idx
			need[int(idx)*n+j] = true
		}
		pe := &peaks[row[0]]
		if pe.level < 0 {
			pe.level = levels
			levels++
		}
		col[i] = pe.level
	}

	// Each distinct peak's operating point: a level of the base kernel
	// under the analytic evaluator, the peak's stationary scenario for
	// any other. A level's point is its peak's.
	var kernels []eval.Kernel      // the kernel route's, per peak
	var points []scenario.Scenario // the stamping route's, per peak
	if base != nil {
		kernels, err = base.Levels(peakMults)
	} else {
		points = make([]scenario.Scenario, len(peaks))
		for pi := range peaks {
			if points[pi], err = flat.Stationary(fmt.Sprintf("peak%02d", pi), peakMults[pi*services:(pi+1)*services]); err != nil {
				break
			}
		}
	}
	if err != nil {
		return PeriodPlan{}, err
	}
	levelPeak := make([]int32, levels) // levelPeak[l]: the peak whose point level l is
	for pi, pe := range peaks {
		if pe.level >= 0 {
			levelPeak[pe.level] = int32(pi)
		}
	}

	// Size each distinct peak with the single-point search on its
	// operating point. A peak the supply cannot serve makes its segments
	// invalid, not the whole plan: with per-service peaks in different
	// bins, splitting can be feasible where the static peak is not. Its
	// point still serves its level: the level's bins are scored under
	// other peaks' placements.
	evaluations := 0
	plans := make([]Plan, len(peaks))
	for pi := range peaks {
		s, k := &flat, (*eval.Kernel)(nil)
		if base != nil {
			k = &kernels[pi]
		} else {
			s = &points[pi]
		}
		if plans[pi], err = search(ctx, ev, &spec, s, k); err != nil {
			if errors.Is(err, ErrInfeasible) {
				continue
			}
			return PeriodPlan{}, err
		}
		peaks[pi].plan = &plans[pi]
		evaluations += plans[pi].Evaluations
	}

	// The score table has a row per placement and a column per level. A
	// bin's score depends only on the placement and the bin's level, so
	// peaks whose plans place the same fleet share a row, and each needed
	// (placement, level) cell is scored once however many (peak, bin)
	// pairs read it. Each (peak, bin) pair counts as one evaluation. The
	// cells are counted first and numbered in the order of their first
	// need, peak-major and bin-minor, then scored in that order into one
	// slab of results: inline on the level's kernel, or stamped onto the
	// level's scenario and sent with the other stamped cells as one batch,
	// so the sim evaluator lowers the whole grid onto a single engine run.
	var places []eval.Placement // per row
	rowOf := make(map[string]int32, len(peaks))
	for pi := range peaks {
		pe := &peaks[pi]
		if pe.plan == nil {
			continue
		}
		key = appendFleet(key[:0], pe.plan)
		id, ok := rowOf[string(key)]
		if !ok {
			id = int32(len(places))
			rowOf[string(key)] = id
			places = append(places, pe.plan.placement())
		}
		pe.row = id
	}
	table := make([]binScore, len(places)*int(levels))
	for c := range table {
		table[c].at = -1
	}
	cells := int32(0)
	for pi, pe := range peaks {
		if pe.plan == nil {
			continue
		}
		for b, ok := range need[pi*n : (pi+1)*n] {
			if ok {
				evaluations++
				if c := &table[int(pe.row)*int(levels)+int(col[b])]; c.at < 0 {
					c.at, cells = cells, cells+1
				}
			}
		}
	}
	results := make([]eval.Result, cells)
	var losses []eval.ServiceLoss
	var cands []scenario.Scenario
	if base != nil {
		losses = make([]eval.ServiceLoss, int(cells)*services)
	} else {
		cands = make([]scenario.Scenario, 0, cells)
	}
	next := int32(0) // the next cell to score; the pairs meet the cells in number order
	for pi, pe := range peaks {
		if pe.plan == nil {
			continue
		}
		for b, ok := range need[pi*n : (pi+1)*n] {
			if !ok {
				continue
			}
			l := col[b]
			if table[int(pe.row)*int(levels)+int(l)].at != next {
				continue
			}
			if base == nil {
				cands = append(cands, stamp(points[levelPeak[l]], places[pe.row]))
			} else {
				if err := cancelled(ctx, done); err != nil {
					return PeriodPlan{}, err
				}
				at := int(next)
				if err := kernels[levelPeak[l]].ScoreInto(&results[at], losses[at*services:(at+1)*services], places[pe.row]); err != nil {
					return PeriodPlan{}, err
				}
			}
			next++
		}
	}
	if len(cands) > 0 {
		batch, err := eval.EvaluateBatch(ctx, ev, cands)
		if err != nil {
			return PeriodPlan{}, err
		}
		copy(results, batch)
	}
	for c := range table {
		if sc := &table[c]; sc.at >= 0 {
			// Every bin lasts bin_sec, so a cell's energy is that of each
			// bin at its level.
			res := &results[sc.at]
			sc.energy = res.Watts * bins[0].Seconds / 3600
			sc.ok = !math.IsNaN(res.Loss) && res.Loss <= spec.Target
		}
	}

	// Dynamic program over contiguous segmentations, one row per segment
	// start k: dp[tri1(j, k)] is the best partition of bins [0..j-1]
	// whose last segment is [k..j-1], chosen over its predecessors, the
	// partitions of [0..k-1] that earlier rows finished (the k cells from
	// dp[tri1(k, 0)]); the first segment's one predecessor is the empty
	// partition, which costs nothing and charges nothing. A candidate
	// costs its predecessor's cost plus the boundary's migration charge,
	// then the segment's bin energies added one at a time in time order —
	// never pre-summed, so partitions whose per-bin placements coincide
	// get bitwise-equal costs and the tie-break can see the tie. Along a
	// row the segment grows by one bin per column. While its peak keeps
	// the same score-table row (the same placement), each predecessor's
	// running cost just takes the new bin's energy, the next term of the
	// same sum; where the placement changes, the segment's earlier bins
	// are re-checked and every running cost is rebuilt from its
	// predecessor, charge included. Ties on cost keep more segments, then
	// the earliest previous start — all deterministic.
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
	type pred struct {
		cell
		plan *Plan // the placement of its last segment; nil for the empty partition
	}
	dp := make([]cell, n*(n+1)/2)
	preds := make([]pred, 0, n) // the row's predecessors, by start
	run := make([]float64, n)   // run[t]: the current candidate through preds[t]
	for k := 0; k < n; k++ {
		if err := cancelled(ctx, done); err != nil {
			return PeriodPlan{}, err
		}
		preds = preds[:0]
		if k == 0 {
			preds = append(preds, pred{cell: cell{prev: -1}})
		}
		for m, pc := range dp[tri1(k, 0) : tri1(k, 0)+k] {
			if pc.segs > 0 {
				preds = append(preds, pred{cell{pc.cost, pc.segs, int32(m)}, peaks[segPeak[tri(n, m, k-1)]].plan})
			}
		}
		run := run[:len(preds)]
		segs := segPeak[tri(n, k, k) : tri(n, k, n-1)+1]
		id, ok, fresh := int32(-1), false, false
		var row []binScore
		for j := k; j < n && len(preds) > 0; j++ {
			pe := &peaks[segs[j-k]]
			if pe.row != id {
				// A new score-table row: re-check the earlier bins on it,
				// and rebuild the running costs below.
				id, ok, fresh = pe.row, pe.row >= 0, false
				if ok {
					row = table[int(id)*int(levels) : int(id+1)*int(levels)]
				}
				for b := k; ok && b < j; b++ {
					ok = row[col[b]].ok
				}
			}
			if ok = ok && row[col[j]].ok; !ok {
				continue
			}
			if !fresh {
				fresh = true
				for t, pc := range preds {
					ch := 0.0
					if pc.plan != nil {
						_, ch = charge(pc.plan, pe.plan)
					}
					run[t] = pc.cost + ch
					for b := k; b < j; b++ {
						run[t] += row[col[b]].energy
					}
				}
			}
			e := row[col[j]].energy
			run[0] += e
			best, cost := 0, run[0]
			for t := 1; t < len(run); t++ {
				c := run[t] + e
				run[t] = c
				if c < cost || c == cost && preds[t].segs > preds[best].segs {
					best, cost = t, c
				}
			}
			dp[tri1(j+1, k)] = cell{cost: cost, segs: preds[best].segs + 1, prev: preds[best].prev}
		}
	}
	last := dp[tri1(n, 0):]
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
	starts := make([]int, 0, n)
	for k, j := bestK, n; ; {
		starts = append(starts, k)
		prev := int(dp[tri1(j, k)].prev)
		if prev < 0 {
			break
		}
		k, j = prev, k
	}
	slices.Reverse(starts)

	out := PeriodPlan{
		Objective:       spec.Objective,
		Target:          spec.Target,
		Mode:            resolved.Mode,
		MigrationCostWh: migrationCostWh,
		Bins:            make([]BinPlan, 0, n),
		Evaluations:     evaluations,
	}
	// The first bin to read a cell takes the cell's service losses; a
	// later one reads a copy, so no two bins share them.
	var spare []eval.ServiceLoss
	for si, start := range starts {
		end := n - 1
		if si+1 < len(starts) {
			end = starts[si+1] - 1
		}
		pe := &peaks[segPeak[tri(n, start, end)]]
		pl := pe.plan
		for b := start; b <= end; b++ {
			sc := &table[int(pe.row)*int(levels)+int(col[b])]
			res := results[sc.at]
			if sc.taken {
				if spare == nil {
					spare = make([]eval.ServiceLoss, 0, n*len(res.Services))
				}
				spare = append(spare, res.Services...)
				res.Services = spare[len(spare)-len(res.Services):]
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
			if mv, ch := charge(peaks[segPeak[tri(n, starts[si-1], start-1)]].plan, pl); mv > 0 {
				if out.Migrations == nil {
					out.Migrations = make([]Migration, 0, len(starts)-si)
				}
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

// tri indexes segment [i..j], i <= j < n, in a triangular array of a
// day of n bins, row i holding segments [i..i] through [i..n-1].
func tri(n, i, j int) int { return i*(2*n-i+1)/2 + j - i }

// tri1 indexes (j, k), k < j, in a triangular array whose row j holds
// k = 0..j-1.
func tri1(j, k int) int { return j*(j-1)/2 + k }

// binScore is one cell of SearchPeriods' score table: where its result
// sits in the slab, a bin's energy at that draw and whether it meets the
// target.
type binScore struct {
	energy float64 // Watts × Seconds / 3600; every bin lasts bin_sec
	at     int32   // the result's index in the slab; -1: not needed
	ok     bool    // the loss is a number at or under the target
	taken  bool    // an output bin holds the result's Services
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
