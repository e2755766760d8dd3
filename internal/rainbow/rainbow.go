// Package rainbow implements the on-demand resource allocation policies of
// the authors' Rainbow prototype ([22][23] of the paper) for the cluster
// simulator: how a consolidated host's physical resources are divided among
// the VMs it hosts.
//
// The utility analytic model assumes ideal resource flowing — "whenever
// there is a request to be served, there are no servers being idle"
// (assumption 4). In the simulator that ideal is the default (no policy:
// one shared processor-sharing station per host resource). The policies
// here are the realistic alternatives the model is meant to bound:
//
//   - Static: fixed capacity shares per VM (plain partitioning, no
//     flowing) — the baseline consolidation without Rainbow;
//   - Proportional: periodic demand-driven reallocation with a
//     configurable period and reallocation overhead — a faithful sketch of
//     Rainbow's multi-tiered on-demand scheduling [23];
//   - Priority: Rainbow's service-priority scheme [22], which satisfies
//     higher-priority VMs' demand first and gives lower priorities the
//     remainder.
//
// All policies satisfy the cluster.Partition interface. Section III-B.4's
// first application scores any such policy against the model's ideal-
// flowing bound; see the allocatoreval example and the appA experiment.
package rainbow

import (
	"fmt"
	"math"
)

// Static divides capacity in fixed shares, never reacting to demand.
type Static struct {
	// Weights are per-VM relative weights; nil means equal shares. They
	// are normalized to sum to 1.
	Weights []float64
}

// shares returns dst resliced to n zeroed shares, reusing its storage
// when its capacity holds n: the slice every policy's Shares fills.
func shares(dst []float64, n int) []float64 {
	if cap(dst) < n {
		return make([]float64, n)
	}
	dst = dst[:n]
	clear(dst)
	return dst
}

// Shares writes the fixed normalized weights into dst (see
// cluster.Partition), ignoring backlogs.
func (s Static) Shares(dst, backlogs []float64) []float64 {
	n := len(backlogs)
	out := shares(dst, n)
	if n == 0 {
		return out
	}
	if len(s.Weights) != n {
		for i := range out {
			out[i] = 1 / float64(n)
		}
		return out
	}
	total := 0.0
	for _, w := range s.Weights {
		if w > 0 {
			total += w
		}
	}
	if total == 0 {
		for i := range out {
			out[i] = 1 / float64(n)
		}
		return out
	}
	for i, w := range s.Weights {
		if w > 0 {
			out[i] = w / total
		}
	}
	return out
}

// Period is 0: static shares never change.
func (s Static) Period() float64 { return 0 }

// Overhead is 0: no reallocation machinery runs.
func (s Static) Overhead() float64 { return 0 }

func (s Static) String() string { return "static" }

// Proportional reallocates capacity every RebalancePeriod seconds in
// proportion to each VM's outstanding work, with MinShare guaranteeing
// every VM a floor (Rainbow never starves a service) and Cost modelling
// the fraction of host capacity the reallocation machinery consumes.
type Proportional struct {
	RebalancePeriod float64 // seconds between reallocations; must be > 0
	MinShare        float64 // per-VM guaranteed share in [0, 1/n]
	Cost            float64 // capacity fraction lost to the machinery, [0, 1)
}

// Shares divides capacity proportionally to backlog above the MinShare
// floors, into dst (see cluster.Partition). With zero total backlog it
// falls back to equal shares.
func (p Proportional) Shares(dst, backlogs []float64) []float64 {
	n := len(backlogs)
	out := shares(dst, n)
	if n == 0 {
		return out
	}
	floor := p.MinShare
	if floor < 0 {
		floor = 0
	}
	if floor > 1/float64(n) {
		floor = 1 / float64(n)
	}
	remaining := 1 - floor*float64(n)
	total := 0.0
	for _, b := range backlogs {
		if b > 0 {
			total += b
		}
	}
	for i, b := range backlogs {
		out[i] = floor
		if total > 0 && b > 0 {
			out[i] += remaining * b / total
		} else if total == 0 {
			out[i] += remaining / float64(n)
		}
	}
	return out
}

// Period reports the rebalancing interval (at least a small positive value
// to keep the simulator's timer sane).
func (p Proportional) Period() float64 {
	if p.RebalancePeriod <= 0 || math.IsNaN(p.RebalancePeriod) {
		return 1
	}
	return p.RebalancePeriod
}

// Overhead reports the capacity fraction lost, clamped to [0, 0.9].
func (p Proportional) Overhead() float64 {
	if p.Cost < 0 || math.IsNaN(p.Cost) {
		return 0
	}
	if p.Cost > 0.9 {
		return 0.9
	}
	return p.Cost
}

func (p Proportional) String() string {
	return fmt.Sprintf("proportional(T=%g,cost=%g)", p.Period(), p.Overhead())
}

// Priority implements the service-priority resource scheduling scheme of
// Rainbow [22]: VMs are served in priority order, each receiving capacity
// proportional to its demand until capacity runs out; leftovers flow to
// lower priorities.
type Priority struct {
	// Priorities holds one rank per VM; lower value = higher priority.
	// Missing entries (short slice) default to the lowest priority.
	Priorities []int

	// DemandCap is the share a single VM may claim per round, in (0, 1];
	// zero means 1 (a high-priority VM may take everything, the strictest
	// reading of [22]).
	DemandCap float64

	// RebalancePeriod is the reallocation interval; zero means 1 s.
	RebalancePeriod float64

	// Cost is the capacity fraction lost to the machinery.
	Cost float64
}

// Shares allocates capacity by priority rank, into dst (see
// cluster.Partition): within a rank, proportional to backlog; each VM
// capped at DemandCap; leftover flows to lower ranks, and any final
// remainder is spread equally (idle capacity still flows — Rainbow's
// on-demand property).
func (p Priority) Shares(dst, backlogs []float64) []float64 {
	n := len(backlogs)
	out := shares(dst, n)
	if n == 0 {
		return out
	}
	cap := p.DemandCap
	if cap <= 0 || cap > 1 {
		cap = 1
	}
	rank := func(i int) int {
		if i < len(p.Priorities) {
			return p.Priorities[i]
		}
		return math.MaxInt32
	}
	// Visit the distinct ranks in ascending order, each rank's members in
	// VM order, by rescanning the few VMs for the next larger rank.
	remaining := 1.0
	for prev, first := 0, true; ; first = false {
		rk, found := 0, false
		for i := 0; i < n; i++ {
			if r := rank(i); (first || r > prev) && (!found || r < rk) {
				rk, found = r, true
			}
		}
		if !found {
			break
		}
		prev = rk
		total := 0.0
		for i := 0; i < n; i++ {
			if rank(i) == rk && backlogs[i] > 0 {
				total += backlogs[i]
			}
		}
		if total == 0 || remaining <= 0 {
			continue
		}
		granted := 0.0
		for i := 0; i < n; i++ {
			if rank(i) != rk || backlogs[i] <= 0 {
				continue
			}
			want := remaining * backlogs[i] / total
			if want > cap {
				want = cap
			}
			out[i] = want
			granted += want
		}
		remaining -= granted
	}
	if remaining > 1e-12 {
		for i := range out {
			out[i] += remaining / float64(n)
		}
	}
	return out
}

// Period reports the reallocation interval.
func (p Priority) Period() float64 {
	if p.RebalancePeriod <= 0 || math.IsNaN(p.RebalancePeriod) {
		return 1
	}
	return p.RebalancePeriod
}

// Overhead reports the capacity fraction lost, clamped like Proportional.
func (p Priority) Overhead() float64 {
	return Proportional{Cost: p.Cost}.Overhead()
}

func (p Priority) String() string {
	return fmt.Sprintf("priority(T=%g,cost=%g)", p.Period(), p.Overhead())
}
