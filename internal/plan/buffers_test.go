package plan_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"repro/internal/eval"
	"repro/internal/plan"
)

// For every example scenario the analytic planner places, under both
// objectives, Search's result is what a fresh evaluation of its placement
// scores, bit for bit and per-service losses included: the searcher's
// probes share two buffers, and the result it keeps is never one a later
// probe wrote over.
func TestSearchResultIsFreshScore(t *testing.T) {
	an := eval.NewAnalytic(nil)
	examples := loadExamples(t)
	names := make([]string, 0, len(examples))
	for name := range examples {
		names = append(names, name)
	}
	sort.Strings(names)
	planned := 0
	for _, name := range names {
		s := examples[name]
		for _, obj := range []string{plan.MinServers, plan.MinPower} {
			p, err := plan.Search(context.Background(), an, nil, plan.Spec{Scenario: s, Target: target, Objective: obj})
			if errors.Is(err, eval.ErrUnsupported) || errors.Is(err, plan.ErrInfeasible) {
				continue // closed-loop, failure injection, periods, or a supply too small
			}
			if err != nil {
				t.Fatalf("%s %s: %v", name, obj, err)
			}
			fresh, err := an.Evaluate(context.Background(), p.Apply(s))
			if err != nil {
				t.Fatalf("%s %s: %v", name, obj, err)
			}
			if got, want := fmt.Sprint(bitsOf(p.Result)), fmt.Sprint(bitsOf(fresh)); got != want {
				t.Errorf("%s %s: Search kept\n%s\na fresh score of its placement is\n%s", name, obj, got, want)
			}
			planned++
		}
	}
	if planned < 10 {
		t.Fatalf("%d searches planned, want every plannable example under both objectives", planned)
	}
}

// bitsOf lists a result's members, numbers as their bit patterns.
func bitsOf(r eval.Result) []any {
	out := []any{r.Source, r.Mode, r.Hosts, math.Float64bits(r.CapabilityUnits), math.Float64bits(r.Loss),
		math.Float64bits(r.Utilization), math.Float64bits(r.Watts), r.Services == nil}
	for _, sl := range r.Services {
		out = append(out, sl.Name, math.Float64bits(sl.Loss))
	}
	return out
}

// Every bin of a day plan owns its per-service losses, though the day's
// scores share one slab and bins at one level under one placement read
// one cell: writing over one bin's losses leaves every other bin as it
// was.
func TestPeriodBinsOwnTheirLosses(t *testing.T) {
	pp, err := plan.SearchPeriods(context.Background(), eval.NewAnalytic(nil), nil,
		plan.Spec{Scenario: loadExamples(t)["periods-day.json"], Target: target}, 12)
	if err != nil {
		t.Fatal(err)
	}
	// periods-day reads some cells from more than one bin.
	shared := false
	for i := range pp.Bins {
		for j := range i {
			shared = shared || fmt.Sprint(bitsOf(pp.Bins[i].Result)) == fmt.Sprint(bitsOf(pp.Bins[j].Result))
		}
	}
	if !shared {
		t.Fatal("no two bins hold equal results; the day no longer checks a shared cell")
	}
	for i := range pp.Bins {
		before := make([][]eval.ServiceLoss, len(pp.Bins))
		for j, b := range pp.Bins {
			before[j] = slices.Clone(b.Result.Services)
		}
		for k := range pp.Bins[i].Result.Services {
			pp.Bins[i].Result.Services[k].Loss = -1
		}
		for j, b := range pp.Bins {
			if j != i && !slices.Equal(b.Result.Services, before[j]) {
				t.Fatalf("writing bin %d's losses changed bin %d's: %v, was %v", i, j, b.Result.Services, before[j])
			}
		}
	}
}

// A day plan's allocations stay within a budget: periods-day under the
// analytic evaluator, its Erlang tables grown, made 141 when the budget
// was set (427 when the kernel copied its model per level and each score
// allocated its own losses). The margin takes small changes elsewhere; an
// allocation per level (15 more) or per score (56 cells, 86 probes) does
// not fit in it.
func TestSearchPeriodsAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	const budget = 150
	an := eval.NewAnalytic(nil)
	spec := plan.Spec{Scenario: loadExamples(t)["periods-day.json"], Target: target}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := plan.SearchPeriods(context.Background(), an, nil, spec, 12); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > budget {
		t.Errorf("SearchPeriods on periods-day made %v allocations, budget %d", allocs, budget)
	}
	t.Logf("%v allocations", allocs)
}
