package experiments

import (
	"context"
	"fmt"
	"math"

	"repro/internal/eval"
	"repro/internal/plan"
	"repro/internal/scenario"
)

// PlanAblationRow is one planned fleet in the planner-vs-analytic
// ablation: the placement the search chose, its analytic score, and the
// simulated loss of the same placement as validation.
type PlanAblationRow struct {
	Fleet     string
	Objective string
	Hosts     int
	Units     float64
	ModelLoss float64
	Watts     float64
	SimLoss   float64
	Evals     int
}

// PlanAblationResult couples the rows with the homogeneous analytic
// reference N the planner must reproduce.
type PlanAblationResult struct {
	AnalyticN int
	Rows      []PlanAblationRow
}

// PlanAblation exercises the placement planner (internal/plan) against
// the paper's own sizing: on the homogeneous group-2 case study the
// planner must land exactly on the analytic N of Eq. (5); on a
// heterogeneous supply (reference AMD servers, slower but
// cheaper-to-power Intel machines, disk-rich nodes) it reports how many
// hosts and watts the min-servers and min-power objectives need for the
// same loss target. Every chosen placement is then re-scored by the
// cluster simulator through the shared engine.
func PlanAblation(cfg Config) (*PlanAblationResult, error) {
	base := scenario.CaseStudy(4, 4, "consolidated", 4)
	base.Seed = cfg.Seed

	m, err := eval.ModelFromScenario(base, LossTarget)
	if err != nil {
		return nil, err
	}
	analytic, err := m.ConsolidatedPlan()
	if err != nil {
		return nil, err
	}

	hetero := base.Clone()
	hetero.Fleet = scenario.Fleet{Classes: []scenario.HostClass{
		{Preset: "amd", Count: 6},
		{Preset: "intel", Count: 6, Power: &scenario.Power{BaseW: 230, MaxW: 310}},
		{Name: "fast-disk", Count: 2, Capability: map[string]float64{"diskio": 1.5}},
	}}

	// Each placement re-simulates on its own scenario at the ablation's
	// horizon.
	simulated := func(s scenario.Scenario) scenario.Scenario {
		v := s.Clone()
		v.Horizon = cfg.scale(120)
		return v
	}
	cases := []placement{
		{"homogeneous", plan.MinServers, base, simulated(base)},
		{"hetero", plan.MinServers, hetero, simulated(hetero)},
		{"hetero", plan.MinPower, hetero, simulated(hetero)},
	}
	plans, sims, err := placeAndSimulate(cfg, "ablation-plan", cases)
	if err != nil {
		return nil, err
	}
	res := &PlanAblationResult{AnalyticN: analytic.Servers}
	for i, c := range cases {
		p := plans[i]
		res.Rows = append(res.Rows, PlanAblationRow{
			Fleet:     c.fleet,
			Objective: c.objective,
			Hosts:     p.Hosts,
			Units:     p.Result.CapabilityUnits,
			ModelLoss: p.Result.Loss,
			Watts:     p.Result.Watts,
			SimLoss:   sims[i].Loss,
			Evals:     p.Evaluations,
		})
	}
	return res, nil
}

// placement is one planner run of the placement experiments: the supply
// to place under an objective, and the scenario the chosen placement is
// re-simulated on (same mode and class list, so Plan.Apply fits it).
type placement struct {
	fleet, objective string
	supply, validate scenario.Scenario
}

// placeAndSimulate places every case with plan.Search over the analytic
// evaluator at the case-study loss target, then re-simulates each
// placement, stamped onto its validation scenario by Plan.Apply, as one
// point batch on the experiment's engine scope. Plans and simulated
// results come back in case order.
func placeAndSimulate(cfg Config, id string, cases []placement) ([]plan.Plan, []eval.Result, error) {
	ctx := context.Background()
	ev := eval.NewAnalytic(nil)
	plans := make([]plan.Plan, len(cases))
	placed := make([]scenario.Scenario, len(cases))
	for i, c := range cases {
		p, err := plan.Search(ctx, ev, nil, plan.Spec{Scenario: c.supply, Target: LossTarget, Objective: c.objective})
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %s/%s: %w", id, c.fleet, c.objective, err)
		}
		plans[i], placed[i] = p, p.Apply(c.validate)
	}
	sims, err := eval.NewSim(cfg.engine().Scoped(id)).EvaluateBatch(ctx, placed)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: simulating placements: %w", id, err)
	}
	return plans, sims, nil
}

// Tables renders the ablation.
func (r *PlanAblationResult) Tables() []*Table {
	t := &Table{
		ID:    "ablation-plan",
		Title: "placement planner vs the analytic sizing (DESIGN.md §12)",
		Columns: []string{"fleet", "objective", "hosts", "capability units",
			"model B", "watts", "sim B", "evals"},
	}
	minPowerWatts, homWatts := math.NaN(), math.NaN()
	for _, row := range r.Rows {
		t.AddRow(row.Fleet, row.Objective, row.Hosts, row.Units,
			row.ModelLoss, row.Watts, row.SimLoss, row.Evals)
		if row.Fleet == "homogeneous" {
			homWatts = row.Watts
		}
		if row.Fleet == "hetero" && row.Objective == plan.MinPower {
			minPowerWatts = row.Watts
		}
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("homogeneous planner count must equal the analytic N = %d (tested)", r.AnalyticN))
	if !math.IsNaN(minPowerWatts) && !math.IsNaN(homWatts) {
		t.Notes = append(t.Notes,
			fmt.Sprintf("min-power hetero fleet draws %.0f W vs %.0f W for the homogeneous analytic bound", minPowerWatts, homWatts))
	}
	return []*Table{t}
}

func runPlanAblation(cfg Config) ([]*Table, error) {
	r, err := PlanAblation(cfg)
	if err != nil {
		return nil, err
	}
	return r.Tables(), nil
}
