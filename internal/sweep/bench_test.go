package sweep

import (
	"context"
	"os"
	"testing"

	"repro/internal/pool"
)

// benchSpec keeps both benchmarks microsecond-scale: simbench pins a fixed
// iteration count, so these must stay cheap.
func benchSpec(b *testing.B) Spec {
	b.Helper()
	sp, err := ParseSpecBytes([]byte(testSpecJSON))
	if err != nil {
		b.Fatal(err)
	}
	return sp
}

// BenchmarkSweepExpand measures grid expansion — the per-sweep fixed cost
// the engine pays before any simulation starts (JSON round-trips, strict
// re-parse and validation per point).
func BenchmarkSweepExpand(b *testing.B) {
	sp := benchSpec(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		points, err := sp.Expand()
		if err != nil {
			b.Fatal(err)
		}
		if len(points) != 4 {
			b.Fatal("bad expansion")
		}
	}
}

// reproBenchSpec is a deliberately tiny whole-pipeline workload: two
// points, two replications each, sub-millisecond in total, so a fixed
// 20000x simbench run stays in seconds.
const reproBenchSpec = `{
  "name": "macro",
  "base": {
    "services": [
      {
        "profile": { "preset": "specweb-ecommerce" },
        "overhead": { "preset": "web" },
        "arrivals": { "kind": "poisson", "rate": 10 }
      }
    ],
    "fleet": { "hosts": 2 },
    "horizon": 2,
    "warmup": 0.5,
    "seed": 7,
    "replication": { "reps": 2, "workers": 1 }
  },
  "axes": [
    { "path": "services.0.arrivals.rate", "values": [10, 20] }
  ]
}`

// BenchmarkRepro measures the pipeline end to end — spec parse, compiled
// axis expansion, engine orchestration, replication fan-out, cluster
// simulation and summarization — the unit of work repro and the
// experiments pay per sweep point. Regressions invisible to the micro
// benchmarks (per-run rebuild cost, arena reuse, orchestration overhead)
// land here. The engine persists across iterations, as it does across a
// repro run, so arena reuse is on the measured path; the cache is off so
// every iteration simulates.
func BenchmarkRepro(b *testing.B) {
	eng := NewEngine(nil, nil, nil)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp, err := ParseSpecBytes([]byte(reproBenchSpec))
		if err != nil {
			b.Fatal(err)
		}
		points, err := sp.Expand()
		if err != nil {
			b.Fatal(err)
		}
		res, err := eng.RunPoints(ctx, points)
		if err != nil {
			b.Fatal(err)
		}
		if len(res) != 2 {
			b.Fatal("bad point count")
		}
	}
}

// BenchmarkSweepPointKey measures the content-address computation — paid
// once per point per run, hit or miss — on the engine's buffered path
// (one pointKeyer reused across the points of a RunPoints call).
func BenchmarkSweepPointKey(b *testing.B) {
	sp := benchSpec(b)
	ky := newPointKeyer()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ky.key(sp.Base); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepPoint is the sweep-point rung of the simulation ladder:
// one grid point of examples/scenarios/sweep-hosts.json (two
// replications of the consolidated case study on a partitioned fleet),
// run through a persistent engine on a one-slot pool. The horizon is cut
// to 1 s and the reallocation periods to 1/16 and 1/4 s, as perfbench's
// sim-sweep workload cuts them, so every run still rebalances several
// times. The cache is off so every iteration simulates.
func BenchmarkSweepPoint(b *testing.B) {
	data, err := os.ReadFile("../../examples/scenarios/sweep-hosts.json")
	if err != nil {
		b.Fatal(err)
	}
	sp, err := ParseSpecBytes(data)
	if err != nil {
		b.Fatal(err)
	}
	sp.Base.Horizon = 1
	for i := range sp.Axes {
		if sp.Axes[i].Path == "alloc.period" {
			sp.Axes[i].Values = []any{0.0625, 0.25}
		}
	}
	points, err := sp.Expand()
	if err != nil {
		b.Fatal(err)
	}
	slots, err := pool.New(1)
	if err != nil {
		b.Fatal(err)
	}
	eng := NewEngine(slots, nil, nil)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := eng.RunPoints(ctx, points[:1])
		if err != nil {
			b.Fatal(err)
		}
		if len(res) != 1 {
			b.Fatal("bad point count")
		}
	}
}
