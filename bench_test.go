package consolidation

// One benchmark per paper artifact (every table and figure of the
// evaluation, plus the Fig. 2 motivation and the Section III-B.4
// applications), regenerating the artifact through internal/experiments in
// Quick mode so `go test -bench=.` stays tractable. For publication-scale
// sweeps run `go run ./cmd/repro` instead.

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/experiments"
	"repro/internal/queueing"
	"repro/internal/replicate"
	"repro/internal/stats"
	"repro/internal/workload"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	exp, ok := experiments.Lookup(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	cfg := experiments.Config{Seed: 42, Quick: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tables, err := exp.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(tables) == 0 {
			b.Fatal("no tables produced")
		}
	}
}

// BenchmarkFig2Consolidation regenerates the Fig. 2 motivation analysis:
// peak-of-sum vs sum-of-peaks for three diurnal workloads.
func BenchmarkFig2Consolidation(b *testing.B) { benchExperiment(b, "fig2") }

// BenchmarkFig5WebIOImpact regenerates Fig. 5: Web throughput vs offered
// rate under the disk-I/O-bound fileset for native Linux and 1..9 VMs, and
// the linear impact-factor fit.
func BenchmarkFig5WebIOImpact(b *testing.B) { benchExperiment(b, "fig5") }

// BenchmarkFig6WebCPUImpact regenerates Fig. 6: the CPU-bound Web sweep and
// its linear impact-factor fit.
func BenchmarkFig6WebCPUImpact(b *testing.B) { benchExperiment(b, "fig6") }

// BenchmarkFig7VCPUPinning regenerates Fig. 7: DB throughput with pinned
// vs Xen-scheduled vCPUs.
func BenchmarkFig7VCPUPinning(b *testing.B) { benchExperiment(b, "fig7") }

// BenchmarkFig8DBImpact regenerates Fig. 8: the TPC-W closed-loop sweep,
// the OS-software ceiling, and the rational impact-factor fit.
func BenchmarkFig8DBImpact(b *testing.B) { benchExperiment(b, "fig8") }

// BenchmarkFig9WorkloadSelection regenerates Fig. 9: the intensive-workload
// selection knees on 4-server pools.
func BenchmarkFig9WorkloadSelection(b *testing.B) { benchExperiment(b, "fig9") }

// BenchmarkTable1Model regenerates Table I: the model's M -> N sizing for
// the case-study rows plus the extended sweep.
func BenchmarkTable1Model(b *testing.B) { benchExperiment(b, "table1") }

// BenchmarkFig10Group1 regenerates Fig. 10: 6 dedicated servers vs 2/3/4
// consolidated servers (the 2-host deployment collapses).
func BenchmarkFig10Group1(b *testing.B) { benchExperiment(b, "fig10") }

// BenchmarkFig11Group2 regenerates Fig. 11: 8 dedicated vs 4 consolidated
// servers with the 1.7x CPU-utilization improvement.
func BenchmarkFig11Group2(b *testing.B) { benchExperiment(b, "fig11") }

// BenchmarkFig12Power regenerates Fig. 12: total power of both deployments,
// busy and idle.
func BenchmarkFig12Power(b *testing.B) { benchExperiment(b, "fig12") }

// BenchmarkFig13WorkloadPower regenerates Fig. 13: the workload-only power
// comparison (total minus idle).
func BenchmarkFig13WorkloadPower(b *testing.B) { benchExperiment(b, "fig13") }

// BenchmarkAllocatorBound regenerates the Section III-B.4 application (1):
// allocator scoring against the M = N bound.
func BenchmarkAllocatorBound(b *testing.B) { benchExperiment(b, "appa") }

// BenchmarkVirtualizationBound regenerates application (2): the ideal-
// virtualization bound.
func BenchmarkVirtualizationBound(b *testing.B) { benchExperiment(b, "appb") }

// BenchmarkModelValidation regenerates the model-vs-simulation loss
// probability sweep behind the paper's "simple but accurate enough" claim.
func BenchmarkModelValidation(b *testing.B) { benchExperiment(b, "modelval") }

// BenchmarkHeterogeneousFleets regenerates the future-work extension:
// heterogeneous fleet placement by the planner and simulated validation.
func BenchmarkHeterogeneousFleets(b *testing.B) { benchExperiment(b, "hetero") }

// BenchmarkAblationTrafficForm regenerates the Eq. (5)-reading ablation.
func BenchmarkAblationTrafficForm(b *testing.B) { benchExperiment(b, "ablation-form") }

// BenchmarkAblationServiceSCV regenerates the service-time-insensitivity
// ablation.
func BenchmarkAblationServiceSCV(b *testing.B) { benchExperiment(b, "ablation-scv") }

// BenchmarkAblationBurstiness regenerates the Poisson-assumption
// sensitivity ablation.
func BenchmarkAblationBurstiness(b *testing.B) { benchExperiment(b, "ablation-burst") }

// BenchmarkAblationAllocGranularity regenerates the resource-flowing
// granularity ablation.
func BenchmarkAblationAllocGranularity(b *testing.B) { benchExperiment(b, "ablation-alloc") }

// BenchmarkSolveCaseStudy measures the analytic model itself — the paper's
// Fig. 4 algorithm end to end — independent of any simulation.
func BenchmarkSolveCaseStudy(b *testing.B) {
	m, err := experiments.CaseStudyModel(4, 4)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Solve(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationDiurnal regenerates the nonstationary-traffic ablation:
// stationary Erlang sizing against a full simulated day of diurnal load.
func BenchmarkAblationDiurnal(b *testing.B) { benchExperiment(b, "ablation-diurnal") }

// BenchmarkReplications measures the parallel replication engine on a fixed
// 16-replication loss-system study, at one worker (the serial baseline) and
// at all CPUs. Results are bit-identical across the two sub-benchmarks by
// construction; only wall-clock should differ.
func BenchmarkReplications(b *testing.B) {
	cfg := queueing.Config{
		Servers:  8,
		Arrivals: workload.NewPoisson(6),
		Service:  stats.NewExponential(1),
		Horizon:  2_000,
		Warmup:   200,
		Seed:     42,
	}
	run := func(b *testing.B, workers int) {
		b.Helper()
		for i := 0; i < b.N; i++ {
			set, err := queueing.RunReplications(context.Background(), cfg, replicate.Config{
				Replications: 16,
				Workers:      workers,
			})
			if err != nil {
				b.Fatal(err)
			}
			if len(set.Results) != 16 {
				b.Fatalf("got %d replications, want 16", len(set.Results))
			}
		}
	}
	b.Run("workers=1", func(b *testing.B) { run(b, 1) })
	b.Run("workers=numcpu", func(b *testing.B) { run(b, runtime.NumCPU()) })
}
