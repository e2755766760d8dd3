// Package plan searches server placements on top of the unified
// evaluation layer (internal/eval): given a workload scenario, a loss
// target B and an objective, it returns the cheapest fleet — fewest
// servers or fewest watts — whose worst per-service loss probability
// still meets B.
//
// The search is exact where the model is exact and heuristic where it is
// not. Homogeneous consolidated fleets and dedicated pools have monotone
// loss in the server count, so a doubling probe plus binary search finds
// the minimal count — the same N and M the paper's Fig. 4 sizing yields.
// Heterogeneous consolidated fleets walk a first-fit-decreasing seed
// through local-search moves (remove one host, swap a host across
// classes) with a seeded annealing kick out of stalls; candidate batches
// evaluate in parallel through the shared internal/pool budget.
//
// Every decision — seed order, move order, batch reduction, annealing
// draws — is made sequentially from deterministic inputs, so the same
// Spec yields a byte-identical Plan regardless of pool worker count.
package plan

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"

	"repro/internal/eval"
	"repro/internal/scenario"
)

// Objectives accepted by Spec.Objective.
const (
	// MinServers minimizes the physical host count, breaking ties on
	// watts.
	MinServers = "min-servers"
	// MinPower minimizes steady-state fleet watts, breaking ties on the
	// host count.
	MinPower = "min-power"
)

// ErrInfeasible reports that no placement within the scenario's supply
// (or the search's server cap) meets the loss target.
var ErrInfeasible = errors.New("plan: no feasible placement meets the loss target")

// maxPoolServers caps the doubling probe for homogeneous and dedicated
// sizing, bounding pathological inputs (target → 0 at huge ρ).
const maxPoolServers = 1 << 16

// defaultMaxIters bounds the heterogeneous local-search rounds when the
// Spec does not say otherwise.
const defaultMaxIters = 200

// maxHeteroSupply caps a heterogeneous scenario's summed class Count. The
// first-fit-decreasing seed builds one prefix, one scenario clone and one
// goroutine per supplied host, so the supply sets the cost of a search:
// at this cap, Search over plan-hetero's three classes took 56–86 ms and
// allocated 37 MB on a 2-vCPU VM; a supply of 1e5 took 23 s and 789 MB.
const maxHeteroSupply = 1 << 12

// Spec is one planning request.
type Spec struct {
	// Scenario carries the workload and, for heterogeneous consolidated
	// fleets, the host-class supply (each class's Count is the maximum
	// the planner may place). Homogeneous consolidated and dedicated
	// scenarios are sized without a supply bound.
	Scenario scenario.Scenario `json:"scenario"`

	// Target is the loss-probability target B in (0, 1): a placement is
	// feasible when every service's loss stays at or below it.
	Target float64 `json:"target"`

	// Objective selects MinServers (default) or MinPower.
	Objective string `json:"objective,omitempty"`

	// Seed drives the annealing kick; zero adopts the scenario's seed.
	Seed int64 `json:"seed,omitempty"`

	// MaxIters bounds local-search rounds (default 200).
	MaxIters int `json:"max_iters,omitempty"`
}

// normalized applies Spec defaults and rejects out-of-domain fields with
// the repository's explicit-error convention.
func (s Spec) normalized() (Spec, error) {
	if s.Objective == "" {
		s.Objective = MinServers
	}
	if s.Objective != MinServers && s.Objective != MinPower {
		return Spec{}, fmt.Errorf("plan: objective %q (want %q or %q)", s.Objective, MinServers, MinPower)
	}
	if math.IsNaN(s.Target) || s.Target <= 0 || s.Target >= 1 {
		return Spec{}, fmt.Errorf("plan: target %g outside (0, 1)", s.Target)
	}
	if s.MaxIters < 0 {
		return Spec{}, fmt.Errorf("plan: max_iters=%d (negative; 0 selects the default %d)", s.MaxIters, defaultMaxIters)
	}
	if s.MaxIters == 0 {
		s.MaxIters = defaultMaxIters
	}
	supply := 0
	for _, hc := range s.Scenario.Fleet.Classes {
		if hc.Count > maxHeteroSupply-supply {
			return Spec{}, fmt.Errorf("plan: host-class supply above %d hosts (the search evaluates one candidate per supplied host)", maxHeteroSupply)
		}
		supply += max(hc.Count, 0)
	}
	return s, nil
}

// ClassCount is one host class's placed count in a heterogeneous plan,
// in scenario class order (zero counts are kept so the assignment shape
// is stable).
type ClassCount struct {
	Name  string `json:"name"`
	Count int    `json:"count"`
}

// PoolSize is one service's dedicated pool in a dedicated-mode plan.
type PoolSize struct {
	Name    string `json:"name"`
	Servers int    `json:"servers"`
}

// Plan is a feasible placement and its score.
type Plan struct {
	Objective string  `json:"objective"`
	Target    float64 `json:"target"`
	Mode      string  `json:"mode"`

	// Hosts is the total physical machine count of the placement.
	Hosts int `json:"hosts"`

	// Classes carries per-class counts for heterogeneous consolidated
	// plans; empty for homogeneous fleets.
	Classes []ClassCount `json:"classes,omitempty"`

	// Dedicated carries per-service pool sizes for dedicated-mode plans.
	Dedicated []PoolSize `json:"dedicated,omitempty"`

	// Result is the chosen placement's evaluation.
	Result eval.Result `json:"result"`

	// Evaluations counts candidate evaluations the search spent.
	Evaluations int `json:"evaluations"`

	// Seed echoes the annealing seed the search ran with.
	Seed int64 `json:"seed"`
}

// EncodeJSON renders the plan as stable, newline-terminated indented
// JSON — the byte-diffable form cmd/consolidate prints and CI goldens
// pin.
func (p Plan) EncodeJSON() ([]byte, error) {
	b, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("plan: encode: %w", err)
	}
	return append(b, '\n'), nil
}

// Apply stamps the plan's placement onto a scenario: the homogeneous
// host count, the per-class counts (zero-count classes dropped, exactly
// as the searcher's own candidates drop them), or the per-service
// dedicated pool sizes. The scenario must share the plan's mode and
// shape — same class supply or service list, in order. Apply is how a
// plan chosen at one operating point is re-evaluated at another: the
// multi-period planner scores each time bin under its segment's plan,
// and the ablation experiments replay a placement against simulation.
func (p Plan) Apply(s scenario.Scenario) scenario.Scenario {
	c := s.Clone()
	switch {
	case len(p.Dedicated) > 0:
		for i := range c.Services {
			if i < len(p.Dedicated) {
				c.Services[i].DedicatedServers = p.Dedicated[i].Servers
			}
		}
	case len(p.Classes) > 0:
		classes := c.Fleet.Classes
		c.Fleet = scenario.Fleet{}
		for k := range classes {
			if k >= len(p.Classes) || p.Classes[k].Count == 0 {
				continue
			}
			hc := classes[k]
			hc.Count = p.Classes[k].Count
			c.Fleet.Classes = append(c.Fleet.Classes, hc)
		}
	default:
		c.Fleet = scenario.Fleet{Hosts: p.Hosts}
	}
	return c
}

// className names a host class for reporting: the explicit name, else
// the preset.
func className(hc scenario.HostClass) string {
	if hc.Name != "" {
		return hc.Name
	}
	return hc.Preset
}
