package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"

	"repro/internal/eval"
	"repro/internal/jsonenc"
	"repro/internal/plan"
	"repro/internal/scenario"
)

// PlanRequest is the POST /v1/plan request: a declarative scenario (the
// same JSON cmd/simulate runs), a loss target, and the placement search's
// objective and evaluator.
type PlanRequest struct {
	// Scenario is the embedded scenario document. The handler decodes it
	// in the same strict pass as the rest of the body (planBody), so
	// unknown fields inside it are rejected too. It stays raw here so a
	// client can build a request around a scenario file's bytes.
	Scenario json.RawMessage `json:"scenario"`

	// Target is the loss-probability target B in (0, 1).
	Target float64 `json:"target"`

	// Objective selects "min-servers" (default) or "min-power".
	Objective string `json:"objective,omitempty"`

	// Seed and MaxIters tuned the annealing search the exact search
	// replaced. They still decode, so a non-zero value gets the planner's
	// 400 naming the removal rather than an unknown-field error.
	Seed     int64 `json:"seed,omitempty"`
	MaxIters int   `json:"max_iters,omitempty"`

	// Evaluator selects the candidate scorer: "analytic" (default,
	// shares the hot path's Erlang memo) or "sim" (runs candidates
	// through the shared sweep engine — budgeted and cached).
	Evaluator string `json:"evaluator,omitempty"`

	// Periods, when present, asks for a multi-period schedule instead of
	// a single placement: the scenario must carry a "periods" spec, and
	// the response is a plan.PeriodPlan (per-bin plans, the migration
	// schedule, and the day's watt-hours).
	Periods *PlanPeriods `json:"periods,omitempty"`
}

// PlanPeriods is the periods block of a plan request. The enclosing
// decoder rejects unknown fields recursively, so typos inside this block
// are structured 400s, not silently-defaulted knobs.
type PlanPeriods struct {
	// MigrationCostWh charges every VM move at a segment boundary;
	// finite and >= 0 (the JSON surface cannot carry +Inf — omit the
	// periods block and plan the peak yourself for a static fleet).
	MigrationCostWh float64 `json:"migration_cost_wh,omitempty"`
}

// planBody is the shape handlePlan decodes a plan request into: the keys
// of PlanRequest, with the scenario decoded in the same strict pass as the
// rest of the body rather than kept raw, so it is never re-parsed.
// TestPlanBodyKeys keeps the two key lists equal.
type planBody struct {
	Scenario  *scenario.Scenario `json:"scenario"`
	Target    float64            `json:"target"`
	Objective string             `json:"objective,omitempty"`
	Seed      int64              `json:"seed,omitempty"`
	MaxIters  int                `json:"max_iters,omitempty"`
	Evaluator string             `json:"evaluator,omitempty"`
	Periods   *PlanPeriods       `json:"periods,omitempty"`
}

// decodePlanBody strictly decodes one plan request body.
func decodePlanBody(data []byte) (planBody, error) {
	var body planBody
	err := jsonenc.Decode(data, &body)
	return body, err
}

// handlePlan searches a placement over the unified evaluation layer: the
// cheapest fleet (by the requested objective) whose worst per-service
// loss meets the target. Infeasible supply is a structured 422, analytic
// domain errors (closed-loop services, failure injection) a 400.
//
// The body and its scenario are decoded in one strict pass (planBody).
// Against decoding a PlanRequest and then scenario.ParseBytes of its raw
// Scenario, three edges differ, each pinned by TestPlanDecodeEdges:
//   - "scenario": null leaves the scenario nil, which gets the "plan needs
//     a scenario" 400 (it used to parse as an empty scenario and fail
//     validation);
//   - an unknown field inside the scenario is the decoder's 400,
//     "decoding request body: json: unknown field ...", not "scenario:
//     invalid: ...";
//   - a repeated "scenario" key merges into the first value, where the
//     raw message used to be replaced by the last.
//
// The plan is appended into a pooled buffer and written with its
// Content-Length (writeAppended).
func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	var req planBody
	if !s.decodePost(w, r, func(data []byte) (err error) {
		req, err = decodePlanBody(data)
		return err
	}) {
		return
	}
	if req.Scenario == nil {
		writeError(w, http.StatusBadRequest, CodeInvalidArgument, "plan needs a scenario")
		return
	}
	if math.IsNaN(req.Target) || req.Target <= 0 || req.Target >= 1 {
		writeError(w, http.StatusBadRequest, CodeInvalidArgument,
			fmt.Sprintf("target %g outside (0, 1)", req.Target))
		return
	}
	switch req.Objective {
	case "", plan.MinServers, plan.MinPower:
	default:
		writeError(w, http.StatusBadRequest, CodeInvalidArgument,
			fmt.Sprintf("objective %q (want %q or %q)", req.Objective, plan.MinServers, plan.MinPower))
		return
	}
	var ev eval.Evaluator
	switch req.Evaluator {
	case "", "analytic":
		ev = s.analytic
	case "sim":
		ev = s.sim
	default:
		writeError(w, http.StatusBadRequest, CodeInvalidArgument,
			fmt.Sprintf("evaluator %q (want \"analytic\" or \"sim\")", req.Evaluator))
		return
	}
	if req.Periods != nil {
		if c := req.Periods.MigrationCostWh; math.IsNaN(c) || math.IsInf(c, 0) || c < 0 {
			writeError(w, http.StatusBadRequest, CodeInvalidArgument,
				fmt.Sprintf("periods.migration_cost_wh %g: want a finite charge >= 0 Wh per VM move", c))
			return
		}
	}

	ctx, cancel := s.requestCtx(r)
	defer cancel()
	spec := plan.Spec{
		Scenario:  *req.Scenario,
		Target:    req.Target,
		Objective: req.Objective,
		Seed:      req.Seed,
		MaxIters:  req.MaxIters,
	}
	var result jsonAppender
	var evaluations int
	var err error
	if req.Periods != nil {
		pp, perr := plan.SearchPeriods(ctx, ev, s.cfg.Pool, spec, req.Periods.MigrationCostWh)
		result, evaluations, err = pp, pp.Evaluations, perr
	} else {
		p, perr := plan.Search(ctx, ev, s.cfg.Pool, spec)
		result, evaluations, err = p, p.Evaluations, perr
	}
	switch {
	case err == nil:
	case errors.Is(err, plan.ErrInfeasible):
		writeError(w, http.StatusUnprocessableEntity, CodeInfeasible, err.Error())
		return
	case errors.Is(err, eval.ErrUnsupported):
		writeError(w, http.StatusBadRequest, CodeInvalidArgument, err.Error())
		return
	default:
		// Scenario validation failures surface here (Search validates
		// its resolved copy); treat anything that is not an execution
		// error as a bad request. A periods block on a periods-free
		// scenario (and the converse), or a retired knob, lands here too.
		if r.Context().Err() == nil && ctx.Err() == nil {
			writeError(w, http.StatusBadRequest, CodeInvalidArgument, err.Error())
			return
		}
		writeRunError(w, r.Context(), err)
		return
	}
	s.plansRun.Inc()
	s.planEvals.Add(uint64(evaluations))
	s.writeAppended(w, result)
}
