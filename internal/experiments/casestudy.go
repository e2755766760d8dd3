package experiments

import (
	"repro/internal/core"
	"repro/internal/power"
	"repro/internal/virt"
	"repro/internal/workload"
)

// The canonical case-study calibration (DESIGN.md §2). Two services — the
// SPECweb2005-driven e-commerce Web service and the TPC-W-driven e-book DB
// service — with reconstructed serving rates and the impact factors
// produced by the paper's own fitted curves evaluated at the per-resource
// active VM count of a consolidated host (disk: only the Web VM → v = 1;
// CPU: both VMs → v = 2), clamped to the model's (0, 1] domain.

// LossTarget is the per-row loss probability B of Table I.
const LossTarget = 0.05

// caseStudyImpact evaluates the fitted curves at the consolidated host's
// per-resource active VM counts, clamped to (0, 1].
func caseStudyImpact() (aWI, aWC, aDC float64) {
	clampWI := virt.Clamped{Curve: virt.WebDiskIOCurve}
	clampWC := virt.Clamped{Curve: virt.WebCPUCurve}
	clampDC := virt.Clamped{Curve: virt.DBCPUCurve}
	return clampWI.At(1), clampWC.At(2), clampDC.At(2)
}

// WebService builds the Web service for the analytic model at arrival rate
// lambda (requests/s).
func WebService(lambda float64) core.Service {
	aWI, aWC, _ := caseStudyImpact()
	return core.Service{
		Name:        "web",
		ArrivalRate: lambda,
		ServingRates: map[core.Resource]float64{
			core.DiskIO: workload.WebDiskRate,
			core.CPU:    workload.WebCPURate,
		},
		ImpactFactors: map[core.Resource]float64{
			core.DiskIO: aWI,
			core.CPU:    aWC,
		},
	}
}

// DBService builds the DB service for the analytic model at arrival rate
// lambda (WIPS offered).
func DBService(lambda float64) core.Service {
	_, _, aDC := caseStudyImpact()
	return core.Service{
		Name:        "db",
		ArrivalRate: lambda,
		ServingRates: map[core.Resource]float64{
			core.CPU: workload.DBCPURate,
		},
		ImpactFactors: map[core.Resource]float64{
			core.CPU: aDC,
		},
	}
}

// CaseStudyModel builds the two-service analytic model with the intensive
// workloads of the given dedicated pool sizes (webServers Web + dbServers
// DB).
func CaseStudyModel(webServers, dbServers int) (*core.Model, error) {
	base := &core.Model{
		Services:   []core.Service{WebService(1), DBService(1)},
		Resources:  []core.Resource{core.CPU, core.DiskIO},
		LossTarget: LossTarget,
		Power:      core.PowerParams{Base: power.DefaultServer.Base, Max: power.DefaultServer.Max},
	}
	return base.WithIntensiveWorkloads([]int{webServers, dbServers})
}

// The cluster-simulator side of the case study builds its service specs
// through internal/scenario (scenario.WebSpec, scenario.DBSpec,
// scenario.DBClosedSpec, scenario.WebSessionsSpec and the registered
// presets) — one declarative pipeline shared with cmd/simulate and any
// scenario JSON a reader writes.
