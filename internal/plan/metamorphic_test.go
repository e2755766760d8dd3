package plan_test

import (
	"context"
	"reflect"
	"slices"
	"testing"

	"repro/internal/eval"
	"repro/internal/plan"
	"repro/internal/scenario"
	"repro/internal/stats"
	"repro/internal/workload"
)

// inlineDemandFleet is plan-hetero's supply under two services whose
// arrival and serving rates are all inline, every one multiplied by
// scale.
func inlineDemandFleet(scale float64) scenario.Scenario {
	return scenario.Scenario{
		Mode: "consolidated",
		Services: []scenario.Service{
			{
				Name: "web",
				Profile: scenario.Profile{Name: "web", Demands: map[string]stats.DistSpec{
					"cpu":    stats.ExpSpec(workload.WebCPURate * scale),
					"diskio": stats.ExpSpec(workload.WebDiskRate * scale),
				}},
				Overhead: &scenario.Overhead{Preset: "web"},
				Arrivals: workload.PoissonSpec(2800 * scale),
			},
			{
				Name: "db",
				Profile: scenario.Profile{Name: "db", Demands: map[string]stats.DistSpec{
					"cpu": stats.ExpSpec(workload.DBHardwareCPURate * scale),
				}},
				Overhead: &scenario.Overhead{Preset: "db"},
				Arrivals: workload.PoissonSpec(200 * scale),
			},
		},
		Fleet: scenario.Fleet{Classes: []scenario.HostClass{
			{Preset: "amd", Count: 4},
			{Preset: "intel", Count: 4, Power: &scenario.Power{BaseW: 230, MaxW: 310}},
			{Name: "fast-disk", Count: 2, Capability: map[string]float64{"diskio": 1.5}},
		}},
	}
}

// TestPlanMetamorphic checks edits of a scenario that must not change its
// plan, under both objectives:
//   - a dominated class (no more units per host than intel, and more draw
//     at every utilization) appended to the supply gets no host;
//   - amd split into two twin classes of half the count places as many amd
//     hosts between them;
//   - every arrival and serving rate scaled by a power of two, which
//     scales exactly, leaves the plan bit-identical, evaluations included.
//
// Adding a zero-count class is no such edit: validation rejects a class
// count below 1.
func TestPlanMetamorphic(t *testing.T) {
	hetero := loadExamples(t)["plan-hetero.json"]
	if amd := hetero.Fleet.Classes[0]; amd.Preset != "amd" || amd.Count != 4 {
		t.Fatalf("plan-hetero's first class is %+v, want 4 amd", amd)
	}
	dominated := func(s scenario.Scenario) scenario.Scenario {
		s.Fleet.Classes = append(slices.Clip(s.Fleet.Classes),
			scenario.HostClass{Name: "intel-hot", Preset: "intel", Count: 3, Power: &scenario.Power{BaseW: 260, MaxW: 340}})
		return s
	}
	twins := func(s scenario.Scenario) scenario.Scenario {
		a, b := s.Fleet.Classes[0], s.Fleet.Classes[0]
		a.Name, a.Count = "amd-a", 2
		b.Name, b.Count = "amd-b", 2
		s.Fleet.Classes = append([]scenario.HostClass{a, b}, s.Fleet.Classes[1:]...)
		return s
	}
	// mergeTwins folds the twins' counts back into one amd entry.
	mergeTwins := func(p plan.Plan) plan.Plan {
		p.Classes = append([]plan.ClassCount{{Name: "amd", Count: p.Classes[0].Count + p.Classes[1].Count}}, p.Classes[2:]...)
		return p
	}
	// unplaced lists the dominated class, with no host, after the others.
	unplaced := func(p plan.Plan) plan.Plan {
		p.Classes = append(slices.Clip(p.Classes), plan.ClassCount{Name: "intel-hot"})
		return p
	}
	scaled := func(f float64) func(scenario.Scenario) scenario.Scenario {
		return func(scenario.Scenario) scenario.Scenario { return inlineDemandFleet(f) }
	}
	same := func(p plan.Plan) plan.Plan { return p }
	for _, c := range []struct {
		name string
		base scenario.Scenario
		edit func(scenario.Scenario) scenario.Scenario
		// want maps the base plan to the edited scenario's, and fold maps
		// the edited plan back; sameWork also pins the evaluation count.
		want, fold func(plan.Plan) plan.Plan
		sameWork   bool
	}{
		{"dominated class", hetero, dominated, unplaced, same, false},
		{"twin split", hetero, twins, same, mergeTwins, false},
		{"rates x0.5", inlineDemandFleet(1), scaled(0.5), same, same, true},
		{"rates x2", inlineDemandFleet(1), scaled(2), same, same, true},
		{"rates x4", inlineDemandFleet(1), scaled(4), same, same, true},
	} {
		for _, objective := range []string{plan.MinServers, plan.MinPower} {
			t.Run(c.name+"/"+objective, func(t *testing.T) {
				search := func(s scenario.Scenario) plan.Plan {
					p, err := plan.Search(context.Background(), eval.NewAnalytic(nil), nil,
						plan.Spec{Scenario: s, Target: target, Objective: objective})
					if err != nil {
						t.Fatal(err)
					}
					return p
				}
				want, got := c.want(search(c.base)), c.fold(search(c.edit(c.base)))
				if !c.sameWork {
					got.Evaluations = want.Evaluations
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("plan moved:\n got %+v\nwant %+v", got, want)
				}
			})
		}
	}
}
