// Package consolidation is the public facade of this repository: a Go
// implementation of the utility analytic model for Internet-oriented server
// consolidation in VM-based data centers (Song, Zhang, Sun & Shi, IEEE
// CLUSTER 2009), together with the simulation substrates used to validate
// it.
//
// # The model in one paragraph
//
// Given, for each Internet service, its mean Poisson request arrival rate
// λ, the mean serving rate μ of each physical resource of one dedicated
// server, and the virtualization impact factor a ∈ (0, 1] per resource, the
// model — built on the Erlang B loss formula — predicts how many dedicated
// servers (M) and how many VM-based consolidated servers (N) are needed to
// guarantee a target request-loss probability B, and compares the two
// deployments' resource utilization and power draw. It runs before any
// service is deployed: it is a capacity-planning tool, complementing
// reactive runtime controllers.
//
// # Quick start
//
//	m := &consolidation.Model{
//	    Services: []consolidation.Service{{
//	        Name:        "web",
//	        ArrivalRate: 1280,
//	        ServingRates: map[consolidation.Resource]float64{
//	            consolidation.DiskIO: 1420,
//	            consolidation.CPU:    3360,
//	        },
//	        ImpactFactors: map[consolidation.Resource]float64{
//	            consolidation.DiskIO: 0.98,
//	            consolidation.CPU:    0.63,
//	        },
//	    }},
//	    LossTarget: 0.05,
//	}
//	res, err := m.Solve()
//	// res.Dedicated.Servers (M), res.Consolidated.Servers (N),
//	// res.UtilizationImprovement, res.PowerSaving, ...
//
// # Power model
//
// PowerParams is the one linear server power model the analytic model and
// the simulator share (internal/power's ServerModel): Base and Max watts,
// Validate, which also rejects infinite watts, and Draw(u, platform).
// Eq. (12)–(14) read the draw on native Linux, platform 0, where no
// virtualization factor applies: p.Draw(u, 0).
//
// # Layout
//
// The paper's primary contribution lives in internal/core and is re-exported
// here. The substrates — Erlang loss machinery (internal/erlang),
// distributions and fitting (internal/stats), workload generation
// (internal/workload), virtualization overhead curves (internal/virt), power
// modelling (internal/power), the discrete-event engine (internal/desim),
// loss-system simulators (internal/queueing), the data-center simulator
// (internal/cluster), Rainbow-style allocators (internal/rainbow), the
// parallel independent-replications engine (internal/replicate), diurnal
// trace analytics (internal/diurnal) and the declarative scenario layer
// (internal/scenario) — are documented in DESIGN.md. Every table and
// figure of the paper's evaluation is regenerated by internal/experiments,
// runnable via cmd/repro and benchmarked in bench_test.go; the achieved
// numbers are recorded in EXPERIMENTS.md.
package consolidation
