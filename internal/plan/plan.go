// Package plan searches server placements on top of the unified
// evaluation layer (internal/eval): given a workload scenario, a loss
// target B and an objective, it returns the cheapest fleet — fewest
// servers or fewest watts — whose worst per-service loss probability
// still meets B.
//
// The search is exact. Homogeneous consolidated fleets and dedicated
// pools have monotone loss in the server count, so a doubling probe plus
// binary search finds the minimal count — the same N and M the paper's
// Fig. 4 sizing yields. A heterogeneous class mix reaches the analytic
// loss only through its capability units (Section III-B.1), so the search
// is a branch and bound over the host counts of groups, the classes of
// equal capability units, each count filling its group's classes
// cheapest first: it prices mixes with plain arithmetic, cuts prefixes
// whose completions cannot clear a capability bound or beat the best
// feasible mix found, and scores only the mixes left. A step limit
// refuses the supplies the bounds cannot tell apart.
//
// Candidates are placements (eval.Placement): a host count, a class-count
// vector or per-service pool sizes. Under eval.Analytic the scenario is
// compiled once per search — once per request for SearchPeriods, whose
// segment peaks are levels of that kernel (arrival-rate vectors over its
// flat traffic arrays), so no per-bin scenario or model is built — and
// every placement is scored inline on the kernel, into storage the
// planner owns: a search's probes into two buffers, a day's cells into
// one slab. Any other
// evaluator (the simulator, or a decorator) gets each placement stamped
// onto the scenario, the same stamping Plan.Apply does, one at a time,
// while a heterogeneous search prices its mixes on an analytic kernel;
// SearchPeriods stamps onto each segment peak's stationary scenario. On
// either route SearchPeriods scores a bin at its level, the peak of its
// one-bin segment, once per (placement, level) pair however many segment
// peaks size to that placement (the stamped pairs go out as one batch),
// and its dynamic program carries a running cost per predecessor along
// each row, rebuilt only where the segment's placement changes.
//
// Every decision is made sequentially from deterministic inputs, so the
// same Spec yields a byte-identical Plan on either route and regardless of
// pool worker count.
package plan

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strconv"

	"repro/internal/eval"
	"repro/internal/jsonenc"
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

// maxHeteroSupply caps a heterogeneous scenario's summed class Count. The
// walk's own step limit bounds its work at any supply; the cap keeps the
// sums of units exact on a 2⁻²⁰ grid and requests sized like a data
// center. At the cap, on a 2-vCPU VM, Search over plan-hetero's classes
// (1638/1638/820 hosts, about 2.2e9 mixes) took 0.02 ms at the example's
// rates and 0.08–0.11 ms at 200 times them (396 hosts, 5 scores); five
// classes of 800 hosts at 200 times the rates took 0.03–0.04 ms as AMD
// twins and 0.3–3.4 ms as distinct classes.
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

	// Seed and MaxIters tuned the annealing search this exact search
	// replaced; they are kept so existing callers compile, and a non-zero
	// value is an error that names the removal.
	Seed     int64 `json:"seed,omitempty"`
	MaxIters int   `json:"max_iters,omitempty"`
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
	if s.Seed != 0 || s.MaxIters != 0 {
		return Spec{}, fmt.Errorf("plan: seed=%d max_iters=%d: seed and max_iters were removed with the annealing search (the search is exact)", s.Seed, s.MaxIters)
	}
	supply := 0
	for _, hc := range s.Scenario.Fleet.Classes {
		if hc.Count > maxHeteroSupply-supply {
			return Spec{}, fmt.Errorf("plan: host-class supply above %d hosts (the exact search walks class-count vectors, whose number grows with the product of the class supplies)", maxHeteroSupply)
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
}

// EncodeJSON renders the plan as stable, newline-terminated indented
// JSON — the byte-diffable form cmd/consolidate prints and CI goldens
// pin: AppendJSON's bytes indented, as json.MarshalIndent would.
func (p Plan) EncodeJSON() ([]byte, error) {
	return indent(p.AppendJSON(nil))
}

// AppendJSON appends the plan's compact JSON encoding to b and returns the
// extended buffer: the bytes json.Marshal writes from the struct tags,
// which stay the reference, error included for a NaN or infinite
// number. It is the one encoder of plans, served (POST /v1/plan) and
// printed (EncodeJSON).
func (p Plan) AppendJSON(b []byte) ([]byte, error) {
	b = append(b, `{"objective":`...)
	b = jsonenc.AppendString(b, p.Objective)
	b = append(b, `,"target":`...)
	b, err := jsonenc.AppendFloat(b, p.Target)
	if err != nil {
		return nil, err
	}
	b = append(b, `,"mode":`...)
	b = jsonenc.AppendString(b, p.Mode)
	b = append(b, `,"hosts":`...)
	b = strconv.AppendInt(b, int64(p.Hosts), 10)
	b = appendPools(b, p.Classes, p.Dedicated)
	b = append(b, `,"result":`...)
	if b, err = p.Result.AppendJSON(b); err != nil {
		return nil, err
	}
	b = append(b, `,"evaluations":`...)
	b = strconv.AppendInt(b, int64(p.Evaluations), 10)
	return append(b, '}'), nil
}

// appendPools appends a placement's "classes" and "dedicated" members,
// each omitted when empty as its omitempty tag says.
func appendPools(b []byte, classes []ClassCount, dedicated []PoolSize) []byte {
	if len(classes) > 0 {
		b = append(b, `,"classes":[`...)
		for i, c := range classes {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"name":`...)
			b = jsonenc.AppendString(b, c.Name)
			b = append(b, `,"count":`...)
			b = strconv.AppendInt(b, int64(c.Count), 10)
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	if len(dedicated) > 0 {
		b = append(b, `,"dedicated":[`...)
		for i, d := range dedicated {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"name":`...)
			b = jsonenc.AppendString(b, d.Name)
			b = append(b, `,"servers":`...)
			b = strconv.AppendInt(b, int64(d.Servers), 10)
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	return b
}

// indent renders compact JSON from an AppendJSON as newline-terminated
// two-space indented JSON, byte for byte what json.MarshalIndent prints.
func indent(compact []byte, err error) ([]byte, error) {
	if err != nil {
		return nil, fmt.Errorf("plan: encode: %w", err)
	}
	var out bytes.Buffer
	out.Grow(2 * len(compact))
	if err := json.Indent(&out, compact, "", "  "); err != nil {
		return nil, fmt.Errorf("plan: encode: %w", err)
	}
	out.WriteByte('\n')
	return out.Bytes(), nil
}

// Apply stamps the plan's placement onto a scenario: the homogeneous
// host count, the per-class counts (zero-count classes dropped) or the
// per-service dedicated pool sizes. The scenario must share the plan's
// mode and shape — same class supply or service list, in order. Apply is
// how a plan chosen at one operating point is re-evaluated at another:
// the multi-period planner scores each time bin under its segment's plan,
// and the ablation experiments replay a placement against simulation.
func (p Plan) Apply(s scenario.Scenario) scenario.Scenario {
	return stamp(s, p.placement())
}

// placement reports the plan's fleet in the shape the evaluation layer
// scores.
func (p Plan) placement() eval.Placement {
	switch {
	case len(p.Dedicated) > 0:
		sizes := make([]int, len(p.Dedicated))
		for i, d := range p.Dedicated {
			sizes[i] = d.Servers
		}
		return eval.Placement{Dedicated: sizes}
	case len(p.Classes) > 0:
		counts := make([]int, len(p.Classes))
		for i, c := range p.Classes {
			counts[i] = c.Count
		}
		return eval.Placement{Classes: counts}
	}
	return eval.Placement{Hosts: p.Hosts}
}

// stamp returns a copy of s carrying placement pl — the one route by
// which a candidate reaches an evaluator other than eval.Analytic, and
// the body of Plan.Apply. Dedicated pool sizes land on the services in
// order; class counts replace the class supply, dropping zero-count
// classes (a scenario class needs a positive count); a host count
// replaces the fleet's pool. The fleet's memory sizes are kept.
func stamp(s scenario.Scenario, pl eval.Placement) scenario.Scenario {
	c := s.Clone()
	switch {
	case len(pl.Dedicated) > 0:
		for i := range c.Services {
			if i < len(pl.Dedicated) {
				c.Services[i].DedicatedServers = pl.Dedicated[i]
			}
		}
	case len(pl.Classes) > 0:
		classes := c.Fleet.Classes
		c.Fleet.Hosts, c.Fleet.Classes = 0, nil
		for k := range classes {
			if k >= len(pl.Classes) || pl.Classes[k] == 0 {
				continue
			}
			hc := classes[k]
			hc.Count = pl.Classes[k]
			c.Fleet.Classes = append(c.Fleet.Classes, hc)
		}
	default:
		c.Fleet.Hosts, c.Fleet.Classes = pl.Hosts, nil
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
