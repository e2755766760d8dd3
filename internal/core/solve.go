package core

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/erlang"
	"repro/internal/power"
)

// ServicePlan records the dedicated-server sizing of one service: the
// per-resource server requirements n_{ij} and the binding maximum
// (Fig. 4's max_n[k]).
type ServicePlan struct {
	Service     string
	PerResource map[Resource]int
	Servers     int      // max over resources
	Bottleneck  Resource // a resource achieving the max
}

// Plan describes one deployment (dedicated or consolidated) produced by
// Solve.
type Plan struct {
	// Servers is the total number of physical servers (M or N).
	Servers int

	// PerService is the per-service breakdown. For the consolidated plan it
	// holds a single pseudo-service entry named "consolidated" carrying the
	// per-resource requirements of the merged workload.
	PerService []ServicePlan

	// Traffic maps each resource to its offered load in Erlangs — per
	// Eq. (3) summed over services for the dedicated plan, per Eq. (5)
	// (under the plan's traffic form) for the consolidated plan.
	Traffic map[Resource]float64

	// Utilization is the model's mean resource-utilization index (Eq. 8–10)
	// including the proportionality constant b. Because it sums demand over
	// resource types it is a utility index that may exceed 1; the power
	// model clamps it.
	Utilization float64

	// Power is the plan's mean power draw in watts under the linear model
	// (Eq. 12–13) with utilization clamped to [0, 1].
	Power float64
}

// Result is the complete output of the utility analytic model: the two
// plans and the paper's three comparison ratios.
type Result struct {
	Dedicated    Plan // M servers
	Consolidated Plan // N servers

	// ServerRatio is M/N (Eq. 6–7); > 1 means consolidation saves servers.
	ServerRatio float64

	// UtilizationRatio is U_M/U_N (Eq. 11). Values < 1 mean consolidation
	// raises per-server utilization; the paper quotes the inverse ("1.5
	// times improvement"), available as UtilizationImprovement.
	UtilizationRatio float64

	// UtilizationImprovement is U_N/U_M, the paper's headline form.
	UtilizationImprovement float64

	// PowerRatio is P_M/P_N (Eq. 14); > 1 means consolidation saves power.
	PowerRatio float64

	// PowerSaving is 1 − P_N/P_M, the fraction of power saved by
	// consolidating (the paper's "up to 53 %").
	PowerSaving float64

	// LossTarget echoes the model's B.
	LossTarget float64

	// Form echoes the Eq. (5) reading used.
	Form TrafficForm
}

// String renders the result as a compact report.
func (r Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "M=%d N=%d (ratio %.2f) at B=%g\n", r.Dedicated.Servers,
		r.Consolidated.Servers, r.ServerRatio, r.LossTarget)
	fmt.Fprintf(&b, "U_M=%.4f U_N=%.4f (improvement %.2fx)\n",
		r.Dedicated.Utilization, r.Consolidated.Utilization, r.UtilizationImprovement)
	fmt.Fprintf(&b, "P_M=%.1fW P_N=%.1fW (saving %.1f%%)",
		r.Dedicated.Power, r.Consolidated.Power, r.PowerSaving*100)
	return b.String()
}

// Solve runs the utility analytic model end to end — the algorithm of the
// paper's Fig. 4 plus the utilization (Eq. 8–11) and power (Eq. 12–14)
// comparisons. It validates the model first.
func (m *Model) Solve() (*Result, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	ded, err := m.DedicatedPlan()
	if err != nil {
		return nil, err
	}
	cons, err := m.ConsolidatedPlan()
	if err != nil {
		return nil, err
	}
	res := &Result{
		Dedicated:    *ded,
		Consolidated: *cons,
		LossTarget:   m.LossTarget,
		Form:         m.Form,
	}
	if cons.Servers > 0 {
		res.ServerRatio = float64(ded.Servers) / float64(cons.Servers)
	} else {
		res.ServerRatio = math.Inf(1)
	}
	if cons.Utilization > 0 {
		res.UtilizationRatio = ded.Utilization / cons.Utilization
	} else {
		res.UtilizationRatio = math.Inf(1)
	}
	if ded.Utilization > 0 {
		res.UtilizationImprovement = cons.Utilization / ded.Utilization
	} else {
		res.UtilizationImprovement = math.Inf(1)
	}
	if cons.Power > 0 {
		res.PowerRatio = ded.Power / cons.Power
	}
	if ded.Power > 0 {
		res.PowerSaving = 1 - cons.Power/ded.Power
	}
	return res, nil
}

// DedicatedPlan sizes the dedicated deployment: for each service i and
// resource j it finds the smallest nᵢⱼ with Eₙ(ρᵢⱼ) ≤ B, takes the maximum
// over resources per service, and sums over services (Fig. 4, first loop;
// Eq. 6). Impact factors do not apply — dedicated servers run native Linux.
func (m *Model) DedicatedPlan() (*Plan, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	resources := m.resources()
	plan := &Plan{Traffic: map[Resource]float64{}}
	for _, j := range resources {
		total := 0.0
		for _, s := range m.Services {
			total += s.offeredTraffic(j)
		}
		plan.Traffic[j] = total
	}
	for _, s := range m.Services {
		sp := ServicePlan{Service: s.Name, PerResource: map[Resource]int{}}
		for _, j := range resources {
			rho := s.offeredTraffic(j)
			n, err := erlang.Servers(rho, m.LossTarget, m.MaxServers)
			if err != nil {
				return nil, fmt.Errorf("core: sizing service %q resource %q: %w", s.Name, j, err)
			}
			sp.PerResource[j] = n
			if n > sp.Servers || (n == sp.Servers && sp.Bottleneck == "") {
				sp.Servers = n
				sp.Bottleneck = j
			}
		}
		plan.PerService = append(plan.PerService, sp)
		plan.Servers += sp.Servers
	}
	m.fillUtilizationAndPower(plan, true)
	return plan, nil
}

// ConsolidatedPlan sizes the consolidated deployment: the merged workload's
// per-resource traffic ρ'ⱼ (Eq. 5 under Form) is sized by Erlang B
// per resource, and N is the maximum over resources (Fig. 4, second loop;
// Eq. 7).
func (m *Model) ConsolidatedPlan() (*Plan, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	resources := m.resources()
	plan := &Plan{Traffic: map[Resource]float64{}}
	sp := ServicePlan{Service: "consolidated", PerResource: map[Resource]int{}}
	for _, j := range resources {
		rho := m.ConsolidatedTraffic(j, m.Form)
		plan.Traffic[j] = rho
		n, err := erlang.Servers(rho, m.LossTarget, m.MaxServers)
		if err != nil {
			return nil, fmt.Errorf("core: sizing consolidated resource %q: %w", j, err)
		}
		sp.PerResource[j] = n
		if n > sp.Servers || (n == sp.Servers && sp.Bottleneck == "") {
			sp.Servers = n
			sp.Bottleneck = j
		}
	}
	plan.PerService = []ServicePlan{sp}
	plan.Servers = sp.Servers
	m.fillUtilizationAndPower(plan, false)
	return plan, nil
}

// fillUtilizationAndPower computes Eq. (9)/(10) and Eq. (12)/(13) for a
// sized plan.
func (m *Model) fillUtilizationAndPower(plan *Plan, dedicated bool) {
	b := m.utilizationScale()
	resources := m.resources()
	demand := 0.0 // Σ offered work in Erlangs across resources
	if dedicated {
		// Eq. (9): U_M = b · Σᵢ Σⱼ λᵢ/μᵢⱼ / M.
		for _, s := range m.Services {
			for _, j := range resources {
				demand += s.offeredTraffic(j)
			}
		}
	} else {
		// Eq. (10): U_N = b · Σⱼ λ/μ'ⱼ / N under the utilization form.
		form := m.Form
		for _, j := range resources {
			demand += m.ConsolidatedTraffic(j, form)
		}
	}
	if plan.Servers > 0 {
		plan.Utilization = b * demand / float64(plan.Servers)
	} else {
		plan.Utilization = 0
	}
	plan.Power = m.power().Draw(plan.Utilization, power.NativeLinux) * float64(plan.Servers)
}

// PerResourceUtilization reports the per-resource mean utilization of a
// deployment with the given server count: offered work on j divided by
// servers. For the consolidated case the work is computed under form. The
// result may exceed 1, signalling overload on that resource.
func (m *Model) PerResourceUtilization(servers int, dedicated bool, form TrafficForm) map[Resource]float64 {
	out := map[Resource]float64{}
	if servers <= 0 {
		return out
	}
	for _, j := range m.resources() {
		var work float64
		if dedicated {
			for _, s := range m.Services {
				work += s.offeredTraffic(j)
			}
		} else {
			work = m.ConsolidatedTraffic(j, form)
		}
		out[j] = m.utilizationScale() * work / float64(servers)
	}
	return out
}

// LossAtServers reports the model's request-loss probability when the
// deployment is forced to a given server count, rather than sized.
//
// For the dedicated case, servers are apportioned to services by largest
// remainder of their sized shares, and the system-wide loss is the
// arrival-weighted mean of per-service losses, each the maximum over
// resources. For the consolidated case the loss is the maximum over
// resources of Eₙ(ρ'ⱼ). This is the machinery behind the Section III-B.4
// applications (AllocatorBound, VirtualizationBound).
func (m *Model) LossAtServers(servers int, dedicated bool, form TrafficForm) (float64, error) {
	if err := m.Validate(); err != nil {
		return 0, err
	}
	if servers < 0 {
		return 0, fmt.Errorf("%w: negative server count %d", ErrInvalidModel, servers)
	}
	resources := m.resources()
	if !dedicated {
		worst := 0.0
		for _, j := range resources {
			rho := m.ConsolidatedTraffic(j, form)
			bl, err := erlang.B(servers, rho)
			if err != nil {
				return 0, err
			}
			if bl > worst {
				worst = bl
			}
		}
		return worst, nil
	}
	alloc := m.ApportionServers(servers)
	lambda := m.TotalArrivalRate()
	loss := 0.0
	for i, s := range m.Services {
		worst := 0.0
		for _, j := range resources {
			bl, err := erlang.B(alloc[i], s.offeredTraffic(j))
			if err != nil {
				return 0, err
			}
			if bl > worst {
				worst = bl
			}
		}
		loss += s.ArrivalRate / lambda * worst
	}
	return loss, nil
}

// ApportionServers divides a fixed pool of servers among the services in
// proportion to their offered bottleneck traffic, using the largest-
// remainder method, with every service guaranteed at least one server when
// servers >= len(Services). It is used by LossAtServers for the dedicated
// scenario.
func (m *Model) ApportionServers(servers int) []int {
	nsvc := len(m.Services)
	alloc := make([]int, nsvc)
	if servers <= 0 || nsvc == 0 {
		return alloc
	}
	weights := make([]float64, nsvc)
	total := 0.0
	for i, s := range m.Services {
		w := 0.0
		for _, j := range m.resources() {
			if rho := s.offeredTraffic(j); rho > w {
				w = rho
			}
		}
		if w == 0 {
			w = 1e-9
		}
		weights[i] = w
		total += w
	}
	type frac struct {
		idx int
		rem float64
	}
	fracs := make([]frac, nsvc)
	assigned := 0
	for i := range m.Services {
		share := float64(servers) * weights[i] / total
		alloc[i] = int(math.Floor(share))
		fracs[i] = frac{idx: i, rem: share - math.Floor(share)}
		assigned += alloc[i]
	}
	sort.Slice(fracs, func(a, b int) bool { return fracs[a].rem > fracs[b].rem })
	for k := 0; assigned < servers; k++ {
		alloc[fracs[k%nsvc].idx]++
		assigned++
	}
	// Guarantee one server per service when the pool allows it.
	if servers >= nsvc {
		for i := range alloc {
			if alloc[i] == 0 {
				// Take one from the largest allocation.
				maxIdx := 0
				for k := range alloc {
					if alloc[k] > alloc[maxIdx] {
						maxIdx = k
					}
				}
				alloc[maxIdx]--
				alloc[i]++
			}
		}
	}
	return alloc
}
