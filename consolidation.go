package consolidation

import (
	"repro/internal/core"
	"repro/internal/erlang"
)

// The model types, re-exported from internal/core. See the package
// documentation in doc.go and the full reference in internal/core.
type (
	// Model is a complete input to the utility analytic model.
	Model = core.Model
	// Service describes one Internet service to be hosted.
	Service = core.Service
	// Resource identifies a physical resource type of a server.
	Resource = core.Resource
	// PowerParams is the linear server power model (Eq. 12–14).
	PowerParams = core.PowerParams
	// Result is the model's complete output: both plans and the paper's
	// comparison ratios.
	Result = core.Result
	// Plan describes one sized deployment (dedicated or consolidated).
	Plan = core.Plan
	// ServicePlan is the per-service sizing breakdown inside a Plan.
	ServicePlan = core.ServicePlan
	// Bound is the M = N planning bound of Section III-B.4.
	Bound = core.Bound
	// TrafficForm selects the Eq. (5) reading; see the constants below.
	TrafficForm = core.TrafficForm
)

// The three readings of the consolidated-traffic formula (Eq. 5). See
// core.TrafficForm for the full discussion; the zero value
// (TrafficEq5Restricted) is the canonical reproduction form.
const (
	TrafficEq5Restricted = core.TrafficEq5Restricted
	TrafficEq5Verbatim   = core.TrafficEq5Verbatim
	TrafficHarmonic      = core.TrafficHarmonic
)

// Common resource names.
const (
	CPU     = core.CPU
	DiskIO  = core.DiskIO
	Memory  = core.Memory
	Network = core.Network
)

// DefaultPower is the reconstructed case-study per-server power model.
var DefaultPower = core.DefaultPower

// ParseModelJSON reads a Model from its JSON schema (see internal/core's
// ParseJSONBytes for the schema documentation); Model.WriteJSON is the inverse.
func ParseModelJSON(raw []byte) (*Model, error) { return core.ParseJSONBytes(raw) }

// ErlangB reports the Erlang B blocking probability for n servers offered
// rho Erlangs of Poisson traffic (Eq. 1, computed by the stable recursion
// of Eq. 2).
func ErlangB(n int, rho float64) (float64, error) { return erlang.B(n, rho) }

// ErlangServers reports the smallest n with ErlangB(n, rho) <= target —
// the sizing step of the paper's Fig. 4. A maxServers of 0 uses the
// package default cap.
func ErlangServers(rho, target float64, maxServers int) (int, error) {
	return erlang.Servers(rho, target, maxServers)
}

// ErlangTraffic reports the largest offered traffic n servers can carry at
// loss probability at most target — the admissible-load inverse behind the
// paper's workload-selection rule.
func ErlangTraffic(n int, target float64) (float64, error) {
	return erlang.Traffic(n, target)
}
