package plan_test

import (
	"bytes"
	"context"
	"errors"
	"math"
	"sync/atomic"
	"testing"

	"repro/internal/eval"
	"repro/internal/plan"
	"repro/internal/pool"
	"repro/internal/scenario"
)

// periodsFixture is a homogeneous consolidated day with enough level
// changes to exercise segmentation: the case-study mix under a
// four-bin shape with a repeated trough level.
func periodsFixture() scenario.Scenario {
	return scenario.Scenario{
		Name: "plan-periods",
		Mode: "consolidated",
		Services: []scenario.Service{
			scenario.WebSpec(3976, 0),
			scenario.DBSpec(280, 0),
		},
		Fleet: scenario.Fleet{Hosts: 4},
		Periods: &scenario.Periods{
			BinSec: 6 * 3600,
			Bins: []scenario.PeriodBin{
				{Name: "night", Multiplier: 0.3},
				{Name: "morning", Multiplier: 1.0},
				{Name: "evening", Multiplier: 1.5},
				{Name: "late", Multiplier: 0.3},
			},
		},
	}
}

func mustPlanPeriods(t *testing.T, s scenario.Scenario, costWh float64) plan.PeriodPlan {
	t.Helper()
	pp, err := plan.SearchPeriods(context.Background(), eval.NewAnalytic(nil), nil,
		plan.Spec{Scenario: s, Target: target}, costWh)
	if err != nil {
		t.Fatal(err)
	}
	return pp
}

// The single-point planner refuses a periods scenario whole, and the
// multi-period planner refuses scenarios without periods and bad costs.
func TestSearchPeriodsDomain(t *testing.T) {
	s := periodsFixture()
	if _, err := plan.Search(context.Background(), eval.NewAnalytic(nil), nil,
		plan.Spec{Scenario: s, Target: target}); !errors.Is(err, eval.ErrUnsupported) {
		t.Errorf("Search on periods scenario: err = %v, want ErrUnsupported", err)
	}
	plain := s.Clone()
	plain.Periods = nil
	if _, err := plan.SearchPeriods(context.Background(), eval.NewAnalytic(nil), nil,
		plan.Spec{Scenario: plain, Target: target}, 0); !errors.Is(err, scenario.ErrInvalid) {
		t.Errorf("SearchPeriods without periods: err = %v, want ErrInvalid", err)
	}
	for _, cost := range []float64{math.NaN(), -1} {
		if _, err := plan.SearchPeriods(context.Background(), eval.NewAnalytic(nil), nil,
			plan.Spec{Scenario: s, Target: target}, cost); err == nil {
			t.Errorf("migration cost %g accepted", cost)
		}
	}
}

// The accounting invariants every period plan must satisfy: bins in
// period order with contiguous segment numbering, every bin under
// target, energies summing, and the migration schedule matching the
// placement deltas.
func TestSearchPeriodsAccounting(t *testing.T) {
	pp := mustPlanPeriods(t, periodsFixture(), 10)
	if pp.Mode != "consolidated" || pp.Objective != plan.MinServers {
		t.Fatalf("header: %+v", pp)
	}
	if len(pp.Bins) != 4 {
		t.Fatalf("bins = %d", len(pp.Bins))
	}
	energy, seg := 0.0, 0
	for i, b := range pp.Bins {
		if b.Seconds != 6*3600 {
			t.Errorf("bin %d seconds %g", i, b.Seconds)
		}
		if b.Segment < seg || b.Segment > seg+1 {
			t.Errorf("bin %d segment %d after %d (must be contiguous)", i, b.Segment, seg)
		}
		seg = b.Segment
		if b.Result.Loss > target {
			t.Errorf("bin %s loss %g above target", b.Name, b.Result.Loss)
		}
		if want := b.Result.Watts * b.Seconds / 3600; math.Abs(b.EnergyWh-want) > 1e-9 {
			t.Errorf("bin %s energy %g, want %g", b.Name, b.EnergyWh, want)
		}
		energy += b.EnergyWh
	}
	if math.Abs(energy-pp.EnergyWh) > 1e-9 {
		t.Errorf("EnergyWh %g, bins sum to %g", pp.EnergyWh, energy)
	}
	migration := 0.0
	for _, m := range pp.Migrations {
		if m.Moves <= 0 {
			t.Errorf("migration %s→%s with %d moves", m.From, m.To, m.Moves)
		}
		if want := float64(m.Moves) * pp.MigrationCostWh; m.CostWh != want {
			t.Errorf("migration %s→%s cost %g, want %g", m.From, m.To, m.CostWh, want)
		}
		migration += m.CostWh
	}
	if math.Abs(migration-pp.MigrationWh) > 1e-9 ||
		math.Abs(pp.TotalWh-(pp.EnergyWh+pp.MigrationWh)) > 1e-9 ||
		math.Abs(pp.TotalKWh-pp.TotalWh/1000) > 1e-12 {
		t.Errorf("totals: %+v", pp)
	}
	// Moderate cost on this shape: the two 0.3 bins share the trough
	// sizing and the peaks stand alone, so hosts must actually vary.
	if pp.Bins[0].Hosts == pp.Bins[2].Hosts {
		t.Errorf("trough and peak sized identically (%d hosts): smoothing collapsed too far", pp.Bins[0].Hosts)
	}
}

// Zero migration cost degenerates to independent per-bin planning: each
// bin is its own segment and carries exactly the plan Search finds for
// its stationary sub-scenario.
func TestSearchPeriodsZeroCostIsPerBin(t *testing.T) {
	s := periodsFixture()
	pp := mustPlanPeriods(t, s, 0)
	bins, err := s.ResolvePeriods()
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range pp.Bins {
		if b.Segment != i {
			t.Errorf("bin %d in segment %d: zero cost must keep every bin its own segment", i, b.Segment)
		}
		want, err := plan.Search(context.Background(), eval.NewAnalytic(nil), nil,
			plan.Spec{Scenario: bins[i].Scenario, Target: target})
		if err != nil {
			t.Fatal(err)
		}
		if b.Hosts != want.Hosts {
			t.Errorf("bin %s: %d hosts, per-bin Search finds %d", b.Name, b.Hosts, want.Hosts)
		}
	}
}

// Infinite migration cost collapses to the static peak: every bin runs
// the placement Search finds at the element-wise peak demand, and no
// migrations are scheduled.
func TestSearchPeriodsInfiniteCostIsStaticPeak(t *testing.T) {
	s := periodsFixture()
	pp := mustPlanPeriods(t, s, math.Inf(1))
	if len(pp.Migrations) != 0 || pp.MigrationWh != 0 {
		t.Fatalf("infinite cost scheduled migrations: %+v", pp.Migrations)
	}
	peak, err := s.Stationary("peak", []float64{1.5, 1.5})
	if err != nil {
		t.Fatal(err)
	}
	want, err := plan.Search(context.Background(), eval.NewAnalytic(nil), nil,
		plan.Spec{Scenario: peak, Target: target})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range pp.Bins {
		if b.Hosts != want.Hosts {
			t.Errorf("bin %s: %d hosts, static peak is %d", b.Name, b.Hosts, want.Hosts)
		}
	}
	// And the finite-cost plan's day must cost no more than the static
	// one: smoothing only trades migrations for energy when it wins.
	finite := mustPlanPeriods(t, s, 10)
	if finite.TotalWh > pp.TotalWh+1e-9 {
		t.Errorf("finite-cost total %g Wh exceeds static %g Wh", finite.TotalWh, pp.TotalWh)
	}
}

// Same spec, any pool size: byte-identical period-plan JSON, including
// on the shipped periods example.
func TestSearchPeriodsDeterminismAcrossPoolSizes(t *testing.T) {
	example, ok := loadExamples(t)["periods-day.json"]
	if !ok {
		t.Fatal("missing example periods-day.json")
	}
	for name, s := range map[string]scenario.Scenario{
		"fixture":          periodsFixture(),
		"periods-day.json": example,
	} {
		var first []byte
		for _, workers := range []int{1, 2, 8} {
			pl, err := pool.New(workers)
			if err != nil {
				t.Fatal(err)
			}
			pp, err := plan.SearchPeriods(context.Background(), eval.NewAnalytic(nil), pl,
				plan.Spec{Scenario: s, Target: target}, 12)
			if err != nil {
				t.Fatal(err)
			}
			got, err := pp.EncodeJSON()
			if err != nil {
				t.Fatal(err)
			}
			if first == nil {
				first = got
			} else if !bytes.Equal(first, got) {
				t.Errorf("%s: period plan JSON differs between pool sizes (workers=%d)", name, workers)
			}
		}
	}
}

// The sim evaluator plugs into the same multi-period search: bins lower
// onto one sweep batch and the result is deterministic.
func TestSearchPeriodsWithSimEvaluator(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed planning")
	}
	s := scenario.CaseStudy(2, 2, "consolidated", 2)
	s.Horizon = 20
	s.Periods = &scenario.Periods{
		BinSec: 12 * 3600,
		Bins: []scenario.PeriodBin{
			{Name: "off", Multiplier: 0.4},
			{Name: "on", Multiplier: 1.0},
		},
	}
	ev := eval.NewSim(nil)
	pp, err := plan.SearchPeriods(context.Background(), ev, nil,
		plan.Spec{Scenario: s, Target: 0.2}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(pp.Bins) != 2 || pp.Bins[0].Result.Source != "sim" {
		t.Fatalf("bins: %+v", pp.Bins)
	}
	again, err := plan.SearchPeriods(context.Background(), ev, nil,
		plan.Spec{Scenario: s, Target: 0.2}, 5)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := pp.EncodeJSON()
	b, _ := again.EncodeJSON()
	if !bytes.Equal(a, b) {
		t.Fatal("sim-backed period plan not deterministic")
	}
}

// The multi-period planner plans byte-identically on rescaled kernels and
// on the stamping route (an Evaluate-only decorator handed a 2-slot pool,
// scoring the bin grid as one batch).
func TestSearchPeriodsRoutesAgree(t *testing.T) {
	s, ok := loadExamples(t)["periods-day.json"]
	if !ok {
		t.Fatal("missing example periods-day.json")
	}
	pl, err := pool.New(2)
	if err != nil {
		t.Fatal(err)
	}
	spec := plan.Spec{Scenario: s, Target: target}
	compiled, err := plan.SearchPeriods(context.Background(), eval.NewAnalytic(nil), nil, spec, 12)
	if err != nil {
		t.Fatal(err)
	}
	stamped, err := plan.SearchPeriods(context.Background(), evaluateOnly{eval.NewAnalytic(nil)}, pl, spec, 12)
	if err != nil {
		t.Fatal(err)
	}
	a, err := compiled.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	b, err := stamped.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Errorf("compiled and stamped period plans differ:\n%s\n%s", a, b)
	}
}

// cancelAfter is an Evaluate-only decorator that cancels a context once
// its n-th Evaluate has returned, counting calls from every goroutine.
type cancelAfter struct {
	ev     eval.Evaluator
	n      int64
	calls  *atomic.Int64
	cancel context.CancelFunc
}

func (c cancelAfter) Evaluate(ctx context.Context, s scenario.Scenario) (eval.Result, error) {
	r, err := c.ev.Evaluate(ctx, s)
	if c.calls.Add(1) == c.n {
		c.cancel()
	}
	return r, err
}

// A context cancelled inside the last evaluation of the day still stops
// the plan: the segment-validity pass and the dynamic program that follow
// the bin scores check ctx, so SearchPeriods returns context.Canceled
// rather than a full plan.
func TestSearchPeriodsStopsWhenCancelled(t *testing.T) {
	s, ok := loadExamples(t)["periods-day.json"]
	if !ok {
		t.Fatal("missing example periods-day.json")
	}
	pl, err := pool.New(2)
	if err != nil {
		t.Fatal(err)
	}
	spec := plan.Spec{Scenario: s, Target: target}
	var calls atomic.Int64
	full, err := plan.SearchPeriods(context.Background(),
		cancelAfter{ev: eval.NewAnalytic(nil), n: -1, calls: &calls}, pl, spec, 12)
	if err != nil {
		t.Fatal(err)
	}
	if last := calls.Load(); last != int64(full.Evaluations) {
		t.Fatalf("%d Evaluate calls for %d evaluations", last, full.Evaluations)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	calls.Store(0)
	pp, err := plan.SearchPeriods(ctx,
		cancelAfter{ev: eval.NewAnalytic(nil), n: int64(full.Evaluations), calls: &calls, cancel: cancel}, pl, spec, 12)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled in the last evaluation: err = %v with %d bins, want context.Canceled", err, len(pp.Bins))
	}
}
