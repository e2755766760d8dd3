package eval

import (
	"context"
	"fmt"
	"math"

	"repro/internal/pool"
	"repro/internal/scenario"
	"repro/internal/sweep"
)

// Sim scores candidates by discrete-event simulation, lowered onto the
// existing sweep engine: every evaluation is one sweep point, so it draws
// workers from the shared pool budget and — when the engine has a cache —
// is memoized content-addressed. A placement search that revisits a
// candidate pays a file read, not a simulation.
type Sim struct {
	engine *sweep.Engine
}

// NewSim builds a sim evaluator over the given engine; nil builds a
// private cacheless engine on a GOMAXPROCS pool.
func NewSim(engine *sweep.Engine) *Sim {
	if engine == nil {
		p, err := pool.New(0)
		if err != nil {
			panic(err) // pool.New(0) cannot fail
		}
		engine = sweep.NewEngine(p, nil, nil)
	}
	return &Sim{engine: engine}
}

// SelfBudgeted reports that the sweep engine already draws simulation
// workers from the shared pool: callers must not wrap Evaluate in slots of
// the same pool.
func (e *Sim) SelfBudgeted() bool { return true }

// Evaluate runs the candidate through the sweep engine and folds the
// point summary into the shared Result shape.
func (e *Sim) Evaluate(ctx context.Context, s scenario.Scenario) (Result, error) {
	results, err := e.EvaluateBatch(ctx, []scenario.Scenario{s})
	if err != nil {
		return Result{}, err
	}
	return results[0], nil
}

// EvaluateBatch runs all candidates through the sweep engine as one
// point batch — one pass through the pool budget and the result cache —
// and folds each point summary into the shared Result shape, index-
// addressed against cands. Loss is the worst per-service simulated loss;
// a service whose window saw no arrivals reports the overall loss
// instead of NaN.
func (e *Sim) EvaluateBatch(ctx context.Context, cands []scenario.Scenario) ([]Result, error) {
	points := make([]sweep.Point, len(cands))
	resolved := make([]scenario.Scenario, len(cands))
	for i := range cands {
		r, err := cands[i].Resolve()
		if err != nil {
			return nil, err
		}
		if r.Periods != nil {
			return nil, fmt.Errorf("%w: a periods scenario is time-varying; plan it bin by bin (plan.SearchPeriods)", ErrUnsupported)
		}
		label := r.Name
		if label == "" {
			label = "candidate"
		}
		resolved[i] = r
		points[i] = sweep.Point{Index: i, Label: label, Scenario: r}
	}
	prs, err := e.engine.RunPoints(ctx, points)
	if err != nil {
		return nil, err
	}
	if len(prs) != len(points) {
		return nil, fmt.Errorf("eval: sim returned %d points for %d candidates", len(prs), len(points))
	}
	out := make([]Result, len(prs))
	for i, pr := range prs {
		res, err := foldSimPoint(resolved[i], pr)
		if err != nil {
			return nil, err
		}
		out[i] = res
	}
	return out, nil
}

// foldSimPoint folds one sweep point summary into the shared Result shape.
func foldSimPoint(resolved scenario.Scenario, pr sweep.PointResult) (Result, error) {
	resources, err := ScenarioResources(resolved)
	if err != nil {
		return Result{}, err
	}
	res := Result{
		Source:   "sim",
		Mode:     resolved.Mode,
		Hosts:    pr.Hosts,
		CacheHit: pr.CacheHit,
	}
	if resolved.Mode == "dedicated" {
		res.CapabilityUnits = float64(pr.Hosts)
	} else {
		_, res.CapabilityUnits = FleetUnits(resolved, resources)
	}
	overall := float64(pr.OverallLoss.Point)
	res.Services = make([]ServiceLoss, len(pr.Services))
	for i, sp := range pr.Services {
		loss := float64(sp.Loss.Point)
		if math.IsNaN(loss) {
			loss = overall
		}
		res.Services[i] = ServiceLoss{Name: sp.Name, Loss: loss}
		if loss > res.Loss {
			res.Loss = loss
		}
	}
	res.Utilization = float64(pr.BottleneckUtil.Point)
	if pr.Window > 0 {
		res.Watts = (float64(pr.EnergyBusyJ) + float64(pr.EnergyIdleJ)) / pr.Window
	}
	return res, nil
}
