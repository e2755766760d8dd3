package plan

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"repro/internal/eval"
	"repro/internal/pool"
	"repro/internal/scenario"
)

// refSearchPeriods is SearchPeriods as it stood before its bookkeeping
// moved onto flat peak × bin arrays: a map of needed (peak, bin) pairs,
// per-peak result slices, every bin resolved to its stationary scenario up
// front, and two Plans copied into each DP transition. It is kept as the
// reference the rewrite must match bit for bit.
func refSearchPeriods(ctx context.Context, ev eval.Evaluator, p *pool.Pool, spec Spec, migrationCostWh float64) (PeriodPlan, error) {
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
		pl, err := refSearchPeak(ctx, ev, spec, flat, base, pi, pe.mults)
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
				levels, err := base.Levels(bins[pk.bin].Multipliers)
				if err != nil {
					return PeriodPlan{}, err
				}
				binKernels[pk.bin] = &levels[0]
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
		mv := planMoves(&a, &b, services)
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

// refSearchPeak sizes segment peak idx of the periods-free scenario flat
// as the reference did: on the base kernel rescaled to the peak under the
// analytic evaluator, else by Search over the peak's stationary scenario.
func refSearchPeak(ctx context.Context, ev eval.Evaluator, spec Spec, flat scenario.Scenario, base *eval.Kernel, idx int, mults []float64) (Plan, error) {
	if base != nil {
		levels, err := base.Levels(mults)
		if err != nil {
			return Plan{}, err
		}
		return search(ctx, ev, &spec, &flat, &levels[0])
	}
	stat, err := flat.Stationary(fmt.Sprintf("peak%02d", idx), mults)
	if err != nil {
		return Plan{}, err
	}
	spec.Scenario = stat
	return Search(ctx, ev, nil, spec)
}

// stampOnly hides the evaluator it wraps behind Evaluate alone, so the
// planner takes the stamping route even for eval.Analytic.
type stampOnly struct{ ev eval.Evaluator }

func (s stampOnly) Evaluate(ctx context.Context, sc scenario.Scenario) (eval.Result, error) {
	return s.ev.Evaluate(ctx, sc)
}

// randomPeriods draws minBins–maxBins bins, each a scalar multiplier or
// a per-service vector from a few levels, so segment peaks repeat (a
// scalar level equals the all-equal vector) and equal-cost partitions
// occur.
func randomPeriods(rng *rand.Rand, scalars []float64, vectors [][]float64, minBins, maxBins int) *scenario.Periods {
	p := &scenario.Periods{BinSec: []float64{900, 3600, 21600}[rng.Intn(3)]}
	for b, n := 0, minBins+rng.Intn(maxBins-minBins+1); b < n; b++ {
		if rng.Intn(2) == 0 {
			p.Bins = append(p.Bins, scenario.PeriodBin{Multiplier: scalars[rng.Intn(len(scalars))]})
		} else {
			p.Bins = append(p.Bins, scenario.PeriodBin{Multipliers: slices.Clone(vectors[rng.Intn(len(vectors))])})
		}
	}
	return p
}

// periodKind is one example scenario with the multiplier levels its
// random days draw from.
type periodKind struct {
	name    string
	s       scenario.Scenario
	scalars []float64
	vectors [][]float64
}

// periodKinds loads the scenarios the periods planner is checked on: a
// homogeneous, a heterogeneous (plan-hetero's supply) and a dedicated
// fleet, and the homogeneous one again on levels a hair apart, whose
// distinct peaks size to the same placement.
func periodKinds(tb testing.TB) []periodKind {
	load := func(name string) scenario.Scenario {
		data, err := os.ReadFile(filepath.Join("..", "..", "examples", "scenarios", name))
		if err != nil {
			tb.Fatal(err)
		}
		s, err := scenario.ParseBytes(data)
		if err != nil {
			tb.Fatal(err)
		}
		return s
	}
	// On plan-hetero's 10-host supply the Web×2.6 and DB×12 bins each
	// fit alone but not together, so a segment spanning both has an
	// infeasible peak; a bin at ×3 fits nowhere and makes the whole day
	// infeasible.
	mixed := [][]float64{{0.5, 1}, {1, 0.5}, {1, 1}, {1.5, 0.25}, {0.25, 1.5}}
	return []periodKind{
		{"homogeneous", load("periods-day.json"), []float64{0.25, 0.5, 1, 1.5}, mixed},
		{"heterogeneous", load("plan-hetero.json"), []float64{0.3, 1, 2.6}, [][]float64{{2.6, 0.3}, {0.3, 12}, {1, 12}, {1, 1}, {0.3, 1}}},
		{"dedicated", load("casestudy-dedicated.json"), []float64{0.3, 0.5, 1, 1.5}, mixed},
		{"shared-placement", load("periods-day.json"), []float64{0.5, 1, 1.0001, 1.0002, 1.5}, [][]float64{{1, 1.0001}, {1.0001, 1}, {1.0002, 0.5}}},
	}
}

// The flat-array SearchPeriods matches the reference on seeded random
// days: homogeneous, heterogeneous (plan-hetero's supply) and dedicated
// scenarios, and a homogeneous one whose distinct peaks share
// placements, both objectives, migration costs from free to +Inf, on
// the compiled route and the stamping route. Most days have 1–30 bins;
// without -short a share have 48–96. Plans must be deeply equal, and
// byte-identical as JSON where the cost is finite; errors must match.
func TestSearchPeriodsMatchesReference(t *testing.T) {
	kinds := periodKinds(t)
	costs := []float64{0, 0.5, 12, 1e9, math.Inf(1)}
	objectives := []string{MinServers, MinPower}
	pl, err := pool.New(2)
	if err != nil {
		t.Fatal(err)
	}
	trials, long := 20, 6
	if testing.Short() {
		trials, long = 5, 0
	}
	ctx := context.Background()

	// The shared-placement levels must really size alike, or that kind
	// checks nothing the homogeneous one does not.
	var hosts []int
	for _, m := range []float64{1, 1.0001, 1.0002} {
		s, err := kinds[3].s.Stationary("level", []float64{m, m})
		if err != nil {
			t.Fatal(err)
		}
		p, err := Search(ctx, eval.NewAnalytic(nil), nil, Spec{Scenario: s, Target: 0.05})
		if err != nil {
			t.Fatal(err)
		}
		hosts = append(hosts, p.Hosts)
	}
	if hosts[0] != hosts[1] || hosts[1] != hosts[2] {
		t.Fatalf("shared-placement levels size to %v hosts, want one placement", hosts)
	}

	// The long days draw from their own source, so the short days stay
	// the ones the test has always drawn.
	rng := rand.New(rand.NewSource(1))
	longRNG := rand.New(rand.NewSource(2))
	for _, kind := range kinds {
		for _, stamped := range []bool{false, true} {
			var ev eval.Evaluator = eval.NewAnalytic(nil)
			if stamped {
				ev = stampOnly{ev}
			}
			for trial := 0; trial < trials+long; trial++ {
				s := kind.s.Clone()
				r, minBins, maxBins := rng, 1, 30
				if trial >= trials {
					r, minBins, maxBins = longRNG, 48, 96
				}
				s.Periods = randomPeriods(r, kind.scalars, kind.vectors, minBins, maxBins)
				bins := s.Periods.Bins
				switch {
				case trial%7 == 6 && kind.name == "heterogeneous":
					bins[r.Intn(len(bins))] = scenario.PeriodBin{Multiplier: 3}
				case trial%11 == 10:
					bins[r.Intn(len(bins))] = scenario.PeriodBin{Multipliers: []float64{1}}
				}
				cost := costs[trial%len(costs)]
				spec := Spec{Scenario: s, Target: 0.05, Objective: objectives[trial/len(costs)%2]}
				name := fmt.Sprintf("%s/stamped=%v/trial=%d", kind.name, stamped, trial)

				want, wantErr := refSearchPeriods(ctx, ev, pl, spec, cost)
				got, gotErr := SearchPeriods(ctx, ev, pl, spec, cost)
				if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
					t.Fatalf("%s: err = %v, reference %v", name, gotErr, wantErr)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s (%d bins, cost %g): plan differs from the reference: segments %v, reference %v",
						name, len(bins), cost, segmentsOf(got), segmentsOf(want))
				}
				if a, b, ok := sharedServices(got); ok {
					t.Fatalf("%s: bins %d and %d share a Services array", name, a, b)
				}
				if wantErr != nil || math.IsInf(cost, 1) {
					continue
				}
				a, err := got.EncodeJSON()
				if err != nil {
					t.Fatal(err)
				}
				b, err := want.EncodeJSON()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(a, b) {
					t.Fatalf("%s: JSON differs from the reference", name)
				}
			}
		}
	}
}

// sharedServices reports two bins of pp whose results share a Services
// backing array, which would let a caller's edit of one bin show in the
// other.
func sharedServices(pp PeriodPlan) (int, int, bool) {
	seen := make(map[*eval.ServiceLoss]int)
	for i, b := range pp.Bins {
		if len(b.Result.Services) == 0 {
			continue
		}
		first := &b.Result.Services[0]
		if j, ok := seen[first]; ok {
			return j, i, true
		}
		seen[first] = i
	}
	return 0, 0, false
}

func segmentsOf(pp PeriodPlan) []int {
	segs := make([]int, len(pp.Bins))
	for i, b := range pp.Bins {
		segs[i] = b.Segment
	}
	return segs
}
