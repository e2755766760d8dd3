package plan_test

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/eval"
	"repro/internal/plan"
	"repro/internal/scenario"
)

// BenchmarkPlan times a full heterogeneous analytic placement search under
// min-power — the capability bound, the priced walk over the 124 class
// mixes and the scores of the few it cannot rule out — sharing one memo
// across iterations the way a long-lived planner process would.
func BenchmarkPlan(b *testing.B) {
	s := scenario.CaseStudy(4, 4, "consolidated", 0)
	s.Fleet = scenario.Fleet{Classes: []scenario.HostClass{
		{Preset: "amd", Count: 4},
		{Preset: "intel", Count: 4},
		{Preset: "blade", Count: 4},
	}}
	ev := eval.NewAnalytic(nil)
	spec := plan.Spec{Scenario: s, Target: 0.05, Objective: plan.MinPower}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := plan.Search(context.Background(), ev, nil, spec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlanMinServers times the heterogeneous search under the
// default objective on plan-hetero.json's class supply.
func BenchmarkPlanMinServers(b *testing.B) {
	data, err := os.ReadFile(filepath.Join("..", "..", "examples", "scenarios", "plan-hetero.json"))
	if err != nil {
		b.Fatal(err)
	}
	s, err := scenario.ParseBytes(data)
	if err != nil {
		b.Fatal(err)
	}
	ev := eval.NewAnalytic(nil)
	spec := plan.Spec{Scenario: s, Target: 0.05, Objective: plan.MinServers}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := plan.Search(context.Background(), ev, nil, spec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlanPeriods times a full analytic multi-period plan over the
// default 24-bin diurnal day: per-peak segment searches, the bin-grid
// scoring, and the segmentation dynamic program.
func BenchmarkPlanPeriods(b *testing.B) {
	s := scenario.CaseStudy(4, 4, "consolidated", 0)
	s.Periods = &scenario.Periods{}
	ev := eval.NewAnalytic(nil)
	spec := plan.Spec{Scenario: s, Target: 0.05}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := plan.SearchPeriods(context.Background(), ev, nil, spec, 12); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlanPeriodsQuarterHour is BenchmarkPlanPeriods at bin_sec 900:
// the same day in 96 bins over the same 15 levels, so the per-peak
// searches cost what they cost hourly while the segment enumeration
// (quadratic in the bins) and the dynamic program (cubic) grow.
func BenchmarkPlanPeriodsQuarterHour(b *testing.B) {
	s := scenario.CaseStudy(4, 4, "consolidated", 0)
	s.Periods = &scenario.Periods{BinSec: 900}
	ev := eval.NewAnalytic(nil)
	spec := plan.Spec{Scenario: s, Target: 0.05}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := plan.SearchPeriods(context.Background(), ev, nil, spec, 12); err != nil {
			b.Fatal(err)
		}
	}
}
