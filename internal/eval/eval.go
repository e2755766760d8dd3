// Package eval is the single evaluation layer behind every consumer of the
// consolidation model: one Evaluator interface scores a resolved
// scenario.Scenario candidate — per-service loss probabilities, servers
// used, utilization and watts — and two implementations answer it from the
// two substrates the repository already has.
//
//   - Analytic answers from the paper's utility analytic model (Eq. 5–14)
//     via the copy-on-write memoized Erlang tables (erlang.Memo) for
//     integer fleets and the continuous Erlang B extension for fractional
//     capability units (heterogeneous fleets). It compiles a scenario
//     once into a Kernel that scores placements of its fleet, which is
//     how internal/plan tries candidates without rebuilding the scenario
//     for each: the kernel's traffic is flat per-(service, resource)
//     arrays, a level (Kernel.Levels) is the scenario at other arrival
//     rates over the same arrays, and ScoreInto scores into the caller's
//     storage without allocating.
//   - Sim lowers the candidate onto the existing sweep engine, so scores
//     inherit the shared worker-pool budget and the content-addressed
//     result cache: re-evaluating a candidate a search has already visited
//     is a cache hit, not a simulation.
//
// cmd/consolidate (-scenario/-plan), internal/serve (POST /v1/plan) and
// the planner-vs-analytic ablation in internal/experiments all consume the
// model through this layer; internal/plan searches placements with it. See
// DESIGN.md §12.
package eval

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"

	"repro/internal/jsonenc"
	"repro/internal/scenario"
)

// ErrUnsupported reports a scenario an evaluator cannot score (for
// example, a closed-loop service has no open-loop arrival rate for the
// analytic model).
var ErrUnsupported = errors.New("eval: unsupported scenario")

// ServiceLoss is one service's loss probability in a Result.
type ServiceLoss struct {
	Name string  `json:"name"`
	Loss float64 `json:"loss"`
}

// Result is one candidate's score. Loss is the worst per-service loss
// probability — the quantity the sizing constraint "every service meets
// the target B" checks — so a candidate is feasible at target B exactly
// when Loss <= B.
type Result struct {
	// Source names the evaluator that produced the result ("analytic" or
	// "sim").
	Source string `json:"source"`

	// Mode echoes the scenario mode ("dedicated" or "consolidated").
	Mode string `json:"mode"`

	// Hosts is the physical machine count of the candidate fleet.
	Hosts int `json:"hosts"`

	// CapabilityUnits is the fleet's summed effective capability in
	// reference-server units (equals Hosts for homogeneous fleets).
	CapabilityUnits float64 `json:"capability_units"`

	// Loss is the worst per-service loss probability.
	Loss float64 `json:"loss"`

	// Services carries the per-service losses in scenario order.
	Services []ServiceLoss `json:"services"`

	// Utilization is the deployment's mean utilization under the paper's
	// Eq. (9)/(10) convention: offered work summed over resources divided
	// by (capability units of) servers.
	Utilization float64 `json:"utilization"`

	// Watts is the fleet's steady-state power draw under the linear server
	// model and the scenario's platform factors.
	Watts float64 `json:"watts"`

	// CacheHit reports whether a memoized score answered the evaluation
	// (sim evaluator only). Excluded from JSON so serialized results stay
	// independent of cache state.
	CacheHit bool `json:"-"`
}

// AppendJSON appends the result's JSON encoding to b and returns the
// extended buffer: the bytes json.Marshal writes from the struct tags,
// which stay the reference. Like json.Marshal it fails on a NaN or
// infinite number, with the same error.
func (r Result) AppendJSON(b []byte) ([]byte, error) {
	b = append(b, `{"source":`...)
	b = jsonenc.AppendString(b, r.Source)
	b = append(b, `,"mode":`...)
	b = jsonenc.AppendString(b, r.Mode)
	b = append(b, `,"hosts":`...)
	b = strconv.AppendInt(b, int64(r.Hosts), 10)
	b = append(b, `,"capability_units":`...)
	b, err := jsonenc.AppendFloat(b, r.CapabilityUnits)
	if err != nil {
		return nil, err
	}
	b = append(b, `,"loss":`...)
	loss := len(b)
	if b, err = jsonenc.AppendFloat(b, r.Loss); err != nil {
		return nil, err
	}
	lossEnd := len(b)
	b = append(b, `,"services":`...)
	if r.Services == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, sl := range r.Services {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"name":`...)
			b = jsonenc.AppendString(b, sl.Name)
			b = append(b, `,"loss":`...)
			if math.Float64bits(sl.Loss) == math.Float64bits(r.Loss) {
				// The worst service's loss is the result's, printed above.
				b = append(b, b[loss:lossEnd]...)
			} else if b, err = jsonenc.AppendFloat(b, sl.Loss); err != nil {
				return nil, err
			}
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	b = append(b, `,"utilization":`...)
	if b, err = jsonenc.AppendFloat(b, r.Utilization); err != nil {
		return nil, err
	}
	b = append(b, `,"watts":`...)
	if b, err = jsonenc.AppendFloat(b, r.Watts); err != nil {
		return nil, err
	}
	return append(b, '}'), nil
}

// Evaluator scores one resolved scenario candidate. Implementations must
// be safe for concurrent use: the service plans concurrent requests on
// one evaluator.
type Evaluator interface {
	Evaluate(ctx context.Context, s scenario.Scenario) (Result, error)
}

// SelfBudgeted is implemented by evaluators that already draw their
// simulation work from a shared pool budget. A caller that fans
// evaluations out must not wrap such evaluators in pool slots of the same
// pool: holding a slot while the engine waits for one deadlocks at pool
// size 1. The planner fans nothing out and takes no slot, so nothing under
// internal/ implements or reads the interface any more; it stays because
// perfbench's tracing decorator still asserts it.
type SelfBudgeted interface {
	SelfBudgeted() bool
}

// ScenarioResources reports the sorted union of resources the scenario's
// services place demand on — the resource list the analytic model and the
// capability normalization both use.
func ScenarioResources(s scenario.Scenario) ([]string, error) {
	set := map[string]bool{}
	for i := range s.Services {
		profile, err := s.Services[i].CompileProfile()
		if err != nil {
			return nil, fmt.Errorf("eval: service %d: %w", i, err)
		}
		for r := range profile.Demands {
			set[r] = true
		}
	}
	out := make([]string, 0, len(set))
	for r := range set {
		out = append(out, r)
	}
	sort.Strings(out)
	return out, nil
}

// ClassCapability reports a host class's binding capability across the
// given resources: the minimum multiplier, since a machine must keep up on
// every resource it serves. It and FleetUnits are the repository's one
// capability normalization (the paper's Section III-B.1 sketch).
func ClassCapability(hc scenario.HostClass, resources []string) float64 {
	cap := hc.ResolvedCapability()
	min := math.Inf(1)
	for _, r := range resources {
		v, ok := cap[r]
		if !ok {
			v = 1
		}
		if v < min {
			min = v
		}
	}
	if math.IsInf(min, 1) {
		return 1
	}
	return min
}

// FleetUnits reports the physical machine count and the summed effective
// capability (in reference-server units) of a consolidated scenario's
// fleet over the given resources. Homogeneous fleets report
// units == hosts.
func FleetUnits(s scenario.Scenario, resources []string) (hosts int, units float64) {
	if len(s.Fleet.Classes) == 0 {
		return s.Fleet.Hosts, float64(s.Fleet.Hosts)
	}
	for _, hc := range s.Fleet.Classes {
		hosts += hc.Count
		units += float64(hc.Count) * ClassCapability(hc, resources)
	}
	return hosts, units
}
