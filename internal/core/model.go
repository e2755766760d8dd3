// Package core implements the paper's primary contribution: the utility
// analytic model for Internet-oriented server consolidation in VM-based
// data centers (Section III).
//
// Given, for each concurrent service i and each physical resource type j:
//
//   - the mean Poisson arrival rate λᵢ of requests for the service,
//   - the mean serving rate μᵢⱼ of one dedicated physical server's resource
//     j for those requests, and
//   - the virtualization impact factor aᵢⱼ ∈ (0, 1] — the ratio of the QoS
//     delivered by VMs to that delivered by native Linux on resource j,
//
// the model predicts, before any service is deployed:
//
//   - M — the number of dedicated physical servers needed so every service
//     meets a target request-loss probability B (Eq. 6),
//   - N — the number of VM-based consolidated servers needed for the same
//     loss probability (Eq. 7), via the consolidated traffic of Eq. (5),
//   - the ratio of mean resource utilizations U_M/U_N (Eq. 8–11), and
//   - the ratio of power draws P_M/P_N under the linear server power model
//     P = S_base + (S_max − S_base)·u (Eq. 12–14).
//
// Two planning applications from Section III-B.4 are provided as well:
// bounding the QoS improvement achievable by any on-demand resource
// allocation algorithm (AllocatorBound) and by an ideal overhead-free
// virtualization layer (VirtualizationBound).
package core

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/power"
)

// Resource identifies a physical resource type of a server. The model
// assumes distinct resource types do not interact (assumption 3 of
// Section III-B.1).
type Resource string

// The resource types used throughout the paper's case study. Additional
// resource types may be introduced freely; the model treats Resource values
// opaquely.
const (
	CPU     Resource = "cpu"
	DiskIO  Resource = "diskio"
	Memory  Resource = "memory"
	Network Resource = "network"
)

// Service describes one Internet service to be hosted.
type Service struct {
	// Name identifies the service in reports.
	Name string

	// ArrivalRate is the mean arrival rate λᵢ of the service's Poisson
	// request stream, in requests per unit time (assumption 2).
	ArrivalRate float64

	// ServingRates maps each resource j to μᵢⱼ, the mean rate at which one
	// dedicated physical server's resource j completes this service's
	// requests. A resource absent from the map — or mapped to +Inf — places
	// zero demand on that resource (the paper's μ_di: "the demand on disk
	// I/O by requests accessing DB service is close to zero").
	ServingRates map[Resource]float64

	// ImpactFactors maps each resource j to aᵢⱼ ∈ (0, 1], the degree of
	// performance degradation virtualization imposes on this service's use
	// of resource j. A resource absent from the map defaults to 1 (no
	// degradation). Impact factors only affect the consolidated scenario.
	ImpactFactors map[Resource]float64
}

// servingRate returns μᵢⱼ, or +Inf when the service places no demand on j.
func (s Service) servingRate(j Resource) float64 {
	mu, ok := s.ServingRates[j]
	if !ok {
		return math.Inf(1)
	}
	return mu
}

// impactFactor returns aᵢⱼ, defaulting to 1.
func (s Service) impactFactor(j Resource) float64 {
	a, ok := s.ImpactFactors[j]
	if !ok {
		return 1
	}
	return a
}

// offeredTraffic returns ρᵢⱼ = λᵢ/μᵢⱼ (Eq. 3), the service's offered load
// on resource j in Erlangs of dedicated-server capacity.
func (s Service) offeredTraffic(j Resource) float64 {
	mu := s.servingRate(j)
	if math.IsInf(mu, 1) {
		return 0
	}
	return s.ArrivalRate / mu
}

// PowerParams is the linear server power model of Section III-B.3: a
// server draws Base watts when idle and Max watts at full utilization,
// interpolating linearly in between (ref. [1] of the paper). Eq. (12)–(14)
// read its draw on the native-Linux platform, which applies no
// virtualization factor.
type PowerParams = power.ServerModel

// DefaultPower is the reconstructed per-server power model used by the case
// study (see DESIGN.md): servers hosting the case-study workloads draw only
// a few percent more than idle ones, matching the paper's "up to 7 %"
// observation and Barroso & Hölzle's finding that idle servers consume more
// than half of peak.
var DefaultPower = power.DefaultServer

// Model is a complete input to the utility analytic model.
type Model struct {
	// Services are the concurrent services to host (the paper's i = 1..I).
	Services []Service

	// Resources are the resource types considered (the paper's j = 1..R).
	// If empty, the union of all resources mentioned by the services is
	// used, in sorted order.
	Resources []Resource

	// LossTarget is B, the request-loss probability both deployments must
	// guarantee, in (0, 1).
	LossTarget float64

	// Power parameterizes the power comparison; zero value means
	// DefaultPower.
	Power PowerParams

	// UtilizationScale is the paper's proportionality constant b in Eq. (8)
	// relating demanded resources to measured utilization. The ratio
	// U_M/U_N is independent of b (Eq. 11) but absolute utilizations and
	// the power comparison are not. Zero means 1.
	UtilizationScale float64

	// MaxServers caps the Erlang-B sizing search; zero means the package
	// default.
	MaxServers int

	// Form selects the Eq. (5) reading used for consolidated-traffic
	// computations throughout (sizing N, utilization, power, bounds). The
	// zero value, TrafficEq5Restricted, is the canonical reproduction form:
	// it is the only reading consistent with both of the paper's headline
	// results (Table I's M=6→N=3 / M=8→N=4 and the ≈1.5× utilization
	// improvement). See TrafficForm and DESIGN.md §2.
	Form TrafficForm
}

// ErrInvalidModel reports a model that fails validation.
var ErrInvalidModel = errors.New("core: invalid model")

// Validate checks the model for domain errors: no services, non-positive
// arrival rates, non-positive serving rates, impact factors outside (0, 1],
// or a loss target outside (0, 1).
func (m *Model) Validate() error {
	if len(m.Services) == 0 {
		return fmt.Errorf("%w: no services", ErrInvalidModel)
	}
	if m.LossTarget <= 0 || m.LossTarget >= 1 || math.IsNaN(m.LossTarget) {
		return fmt.Errorf("%w: loss target %g outside (0,1)", ErrInvalidModel, m.LossTarget)
	}
	if m.UtilizationScale < 0 || math.IsNaN(m.UtilizationScale) {
		return fmt.Errorf("%w: utilization scale %g", ErrInvalidModel, m.UtilizationScale)
	}
	if err := m.power().Validate(); err != nil {
		return fmt.Errorf("%w: %w", ErrInvalidModel, err)
	}
	seen := map[string]bool{}
	for i, s := range m.Services {
		if s.Name == "" {
			return fmt.Errorf("%w: service %d has no name", ErrInvalidModel, i)
		}
		if seen[s.Name] {
			return fmt.Errorf("%w: duplicate service name %q", ErrInvalidModel, s.Name)
		}
		seen[s.Name] = true
		if s.ArrivalRate <= 0 || math.IsNaN(s.ArrivalRate) || math.IsInf(s.ArrivalRate, 0) {
			return fmt.Errorf("%w: service %q arrival rate %g", ErrInvalidModel, s.Name, s.ArrivalRate)
		}
		// Each map check names its least failing resource, the first in
		// the sorted order, so a message does not depend on map order.
		demand, bad, found := false, Resource(""), false
		for j, mu := range s.ServingRates {
			if mu <= 0 || math.IsNaN(mu) {
				if !found || j < bad {
					bad, found = j, true
				}
			} else if !math.IsInf(mu, 1) {
				demand = true
			}
		}
		if found {
			return fmt.Errorf("%w: service %q resource %q serving rate %g", ErrInvalidModel, s.Name, bad, s.ServingRates[bad])
		}
		if !demand {
			return fmt.Errorf("%w: service %q demands no resource", ErrInvalidModel, s.Name)
		}
		for j, a := range s.ImpactFactors {
			if (a <= 0 || a > 1 || math.IsNaN(a)) && (!found || j < bad) {
				bad, found = j, true
			}
		}
		if found {
			return fmt.Errorf("%w: service %q resource %q impact factor %g outside (0,1]", ErrInvalidModel, s.Name, bad, s.ImpactFactors[bad])
		}
	}
	return nil
}

// resources returns the model's resource list, defaulting to the sorted
// union of resources mentioned by the services.
func (m *Model) resources() []Resource {
	if len(m.Resources) > 0 {
		return m.Resources
	}
	set := map[Resource]bool{}
	for _, s := range m.Services {
		for j := range s.ServingRates {
			set[j] = true
		}
	}
	out := make([]Resource, 0, len(set))
	for j := range set {
		out = append(out, j)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

func (m *Model) power() PowerParams {
	if m.Power == (PowerParams{}) {
		return DefaultPower
	}
	return m.Power
}

func (m *Model) utilizationScale() float64 {
	if m.UtilizationScale == 0 {
		return 1
	}
	return m.UtilizationScale
}

// TotalArrivalRate reports λ = Σᵢ λᵢ, the consolidated arrival rate (the
// superposition of independent Poisson streams is Poisson).
func (m *Model) TotalArrivalRate() float64 {
	sum := 0.0
	for _, s := range m.Services {
		sum += s.ArrivalRate
	}
	return sum
}

// TrafficForm selects how the consolidated offered traffic ρ'ⱼ of Eq. (5)
// is computed. The paper's Eq. (4) defines the consolidated serving rate as
// the arrival-weighted *arithmetic* mean of μᵢⱼ·aᵢⱼ, which behaves
// inconsistently when services with zero demand on a resource (μᵢⱼ = +Inf)
// participate: their infinitely fast phantom work dilutes the mean and the
// resource appears unloaded. The paper itself needs one reading of the
// formula to obtain Table I's server counts and a different one to obtain
// its 1.5× utilization claim (see DESIGN.md §2), so this package exposes
// all three readings and lets the caller choose per use.
type TrafficForm int

const (
	// TrafficEq5Restricted (the default) applies Eq. (5) over only the
	// services that place nonzero demand on resource j (both in the λ
	// numerator and the denominator):
	//
	//	ρ'ⱼ = (Σ_{i∈Dⱼ} λᵢ)² / Σ_{i∈Dⱼ} λᵢ·μᵢⱼ·aᵢⱼ,  Dⱼ = {i : μᵢⱼ < ∞}.
	//
	// This is the only reading consistent with both of the paper's
	// headline results — Table I's server counts and the ≈1.5× model-side
	// utilization improvement — and is the canonical reproduction form.
	TrafficEq5Restricted TrafficForm = iota

	// TrafficEq5Verbatim is Eq. (5) exactly as printed: ρ'ⱼ = λ²/Σᵢ
	// λᵢ·μᵢⱼ·aᵢⱼ over all services. A single zero-demand service (μᵢⱼ =
	// +Inf) contributes an infinitely fast phantom term that drives ρ'ⱼ to
	// 0, so resources demanded by only a subset of services never bind.
	// Retained for ablation; it understates consolidated work.
	TrafficEq5Verbatim

	// TrafficHarmonic is the work-conserving correction: the merged
	// stream's mean service demand is the arrival-weighted mean of
	// 1/(μᵢⱼ·aᵢⱼ), so ρ'ⱼ = Σᵢ λᵢ/(μᵢⱼ·aᵢⱼ). This is the form that agrees
	// with discrete-event simulation for heterogeneous service mixes (see
	// the modelval experiment) and is offered as the corrected model.
	TrafficHarmonic
)

// String names the traffic form for reports.
func (f TrafficForm) String() string {
	switch f {
	case TrafficEq5Restricted:
		return "eq5-restricted"
	case TrafficEq5Verbatim:
		return "eq5-verbatim"
	case TrafficHarmonic:
		return "harmonic"
	default:
		return fmt.Sprintf("TrafficForm(%d)", int(f))
	}
}

// ConsolidatedTraffic reports ρ'ⱼ, the consolidated offered load on
// resource j in Erlangs, under the given form: the model's maps gathered
// into MergedTraffic's flat inputs.
func (m *Model) ConsolidatedTraffic(j Resource, form TrafficForm) float64 {
	n := len(m.Services)
	flat := make([]float64, 3*n)
	lambda, mu, a := flat[:n], flat[n:2*n], flat[2*n:]
	for i, s := range m.Services {
		lambda[i], mu[i], a[i] = s.ArrivalRate, s.servingRate(j), s.impactFactor(j)
	}
	return MergedTraffic(form, lambda, mu, a)
}

// MergedTraffic is Eq. (5)'s ρ'ⱼ for one resource j under form, from
// per-service inputs in service order: lambda[i] = λᵢ, mu[i] = μᵢⱼ (+Inf
// where service i places no demand on j) and a[i] = aᵢⱼ (1 where unset).
// It is the one implementation of the three readings (TrafficForm):
// Model.ConsolidatedTraffic and internal/eval's compiled kernel both call
// it, so the two agree bit for bit.
func MergedTraffic(form TrafficForm, lambda, mu, a []float64) float64 {
	switch form {
	case TrafficEq5Verbatim:
		total := 0.0
		denom := 0.0
		for i, l := range lambda {
			total += l
			if math.IsInf(mu[i], 1) {
				// An infinitely fast term dominates the arithmetic mean:
				// μ'ⱼ → ∞, so ρ'ⱼ → 0.
				return 0
			}
			denom += l * mu[i] * a[i]
		}
		if denom == 0 {
			return 0
		}
		return total * total / denom
	case TrafficEq5Restricted:
		total := 0.0
		denom := 0.0
		for i, l := range lambda {
			if math.IsInf(mu[i], 1) {
				continue
			}
			total += l
			denom += l * mu[i] * a[i]
		}
		if denom == 0 {
			return 0
		}
		return total * total / denom
	case TrafficHarmonic:
		sum := 0.0
		for i, l := range lambda {
			if math.IsInf(mu[i], 1) {
				continue
			}
			sum += l / (mu[i] * a[i])
		}
		return sum
	default:
		panic(fmt.Sprintf("core: unknown traffic form %d", int(form)))
	}
}

// ConsolidatedServingRate reports μ'ⱼ = λ/ρ'ⱼ under the given form (Eq. 4),
// or +Inf when the resource carries no consolidated traffic.
func (m *Model) ConsolidatedServingRate(j Resource, form TrafficForm) float64 {
	rho := m.ConsolidatedTraffic(j, form)
	if rho == 0 {
		return math.Inf(1)
	}
	return m.TotalArrivalRate() / rho
}
