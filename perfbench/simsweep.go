package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/pool"
	"repro/internal/scenario"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// sim-sweep's op is one RunPoints call over the sweep-hosts grid plus
// one sharded-fleet point, with horizons shortened so a run holds enough
// ops for its tail percentile. The grid's reallocation periods shrink
// with its horizon, so every grid run still rebalances several times.
// The sharded point keeps a horizon at which the "auto" queue still
// picks the timing wheel (an estimated 2^17 events or more).
const (
	simOpsPerSecond = 8 // ops per second of run time; see planHeteroOpsPerSecond
	simWarmups      = 1
	gridHorizon     = 1.0  // simulated seconds per sweep-hosts replication
	shardedHorizon  = 12.0 // simulated seconds of the sharded-fleet point
	shardedWarmup   = 2.0
)

// gridPeriods replace the values of the grid's alloc.period axis (0.5 s
// and 2 s over a 120 s horizon), keeping their 1:4 ratio: 16 and 4
// rebalance ticks per run.
var gridPeriods = []any{0.0625, 0.25}

// simInputs builds the op's point list from the tree under test.
func simInputs(o opts) ([]sweep.Point, error) {
	b, err := readInput(o, "examples/scenarios/sweep-hosts.json")
	if err != nil {
		return nil, err
	}
	spec, err := sweep.ParseSpecBytes(b)
	if err != nil {
		return nil, err
	}
	spec.Base.Horizon = gridHorizon
	periods := false
	for i := range spec.Axes {
		if spec.Axes[i].Path == "alloc.period" {
			spec.Axes[i].Values, periods = gridPeriods, true
		}
	}
	if !periods {
		return nil, fmt.Errorf("sweep-hosts.json: no alloc.period axis")
	}
	points, err := spec.Expand()
	if err != nil {
		return nil, err
	}
	b, err = readInput(o, "examples/scenarios/sharded-fleet.json")
	if err != nil {
		return nil, err
	}
	sc, err := scenario.ParseBytes(b)
	if err != nil {
		return nil, err
	}
	sc.Horizon = shardedHorizon
	w := shardedWarmup
	sc.Warmup = &w
	return append(points, sweep.Point{Index: len(points), Label: "sharded-fleet", Scenario: sc}), nil
}

func runSimSweep(o opts) (*runResult, error) {
	ops := simOpsPerSecond * o.seconds
	r := &runResult{attempted: ops}
	var rec *recorder
	if o.trace {
		rec = newRecorder()
	}
	var (
		points []sweep.Point
		slots  *pool.Pool
		reg    *obs.Registry
		engine *sweep.Engine
		counts obs.Snapshot // traced runs: registry changes over the timed segments
		units  uint64       // pool units run in the timed segments
		peak   int          // highest pool peak of any round
	)
	ctx := context.Background()
	results := make([][]sweep.PointResult, ops)
	errs := make([]error, ops)
	r.lat = make([]time.Duration, ops)
	setup := func() error {
		var err error
		if points, err = simInputs(o); err != nil {
			return err
		}
		// One slot: the sharded point's extra shards claim slots with a
		// non-blocking TryAcquire, so on a larger pool how many shards run
		// in parallel would depend on goroutine timing.
		if slots, err = pool.New(1); err != nil {
			return err
		}
		reg = obs.NewRegistry()
		engine = sweep.NewEngine(slots, nil, reg)
		for k := 0; k < simWarmups; k++ {
			if _, err := engine.RunPoints(ctx, points); err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
		}
		return nil
	}
	segment := func(lo, hi int) error {
		before, units0 := reg.Snapshot(), slots.Units()
		for i := lo; i < hi; i++ {
			start := time.Now()
			results[i], errs[i] = engine.RunPoints(ctx, points)
			end := time.Now()
			r.lat[i] = end.Sub(start)
			if rec != nil {
				rec.add("client", rec.newID(), 0, int64(i), start, end, 1, errs[i] != nil)
			}
		}
		if rec != nil {
			counts = counts.Merge(change(before, reg.Snapshot()))
			units += slots.Units() - units0
			peak = max(peak, slots.Peak())
		}
		return nil
	}
	if err := runRounds(r, ops, setup, segment, func() error { return nil }); err != nil {
		return nil, err
	}
	r.info = map[string]any{"warmup_ops": simWarmups, "points_per_op": len(points), "pool_slots": slots.Size(),
		"grid_horizon_s": gridHorizon, "grid_periods_s": gridPeriods, "sharded_horizon_s": shardedHorizon}

	// Every op runs the same seeded points, so every op's results must be
	// bit-identical: compared through their exact JSON encoding.
	var first []byte
	for i := range results {
		if errs[i] != nil {
			r.fail("op %d: %v", i, errs[i])
			continue
		}
		b, err := json.Marshal(results[i])
		if err != nil {
			return nil, err
		}
		if first == nil {
			first = b
		} else if !bytes.Equal(b, first) {
			r.wrongOp("op %d: point results differ from the run's first op", i)
		}
	}

	if rec != nil {
		l := map[string]float64{}
		l["sweep.points"] = float64(counts.Counters["sweep/points_done"])
		l["sweep.cache_hits"] = float64(counts.Counters["sweep/cache_hits"])
		l["pool.units_run"] = float64(units)
		l["pool.peak_active"] = float64(peak)
		if st := aggregate(rec.spans)["client"]; st != nil && l["sweep.points"] > 0 {
			l["sweep.ms_per_point"] = float64(st.total) / 1e6 / l["sweep.points"]
		}
		var ref []sweep.PointResult
		for i := range results {
			if errs[i] == nil {
				ref = results[i]
				break
			}
		}
		if err := replaySweep(points, ops, slots, rec, ref, l, r); err != nil {
			return nil, err
		}
		l["trace.spans"] = float64(len(rec.spans))
		r.layers = l
		if err := rec.write(o.outDir, traceFile(o)); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// replaySweep runs each op's points again below the sweep engine: every
// replication through scenario.Compile and cluster.Run, holding a slot of
// the same one-slot pool as the engine's replication workers do, with
// seeds base+r and a shared arena pool as the engine uses. It fills the
// scenario, cluster and desim metrics from the spans and each run's
// Result.Obs, and checks that the replay's per-service counts match the
// engine's point results.
func replaySweep(points []sweep.Point, ops int, slots *pool.Pool, rec *recorder, ref []sweep.PointResult, l map[string]float64, r *runResult) error {
	arenas := cluster.NewArenaPool()
	var obsSum obs.Snapshot
	ctx := context.Background()
	for i := 0; i < ops; i++ {
		req := int64(i)
		for pi, p := range points {
			var arrivals, lost [][]float64 // [service][replication]
			err := rec.timed("sweep.point", 0, req, func(pid int64) error {
				var c scenario.Compiled
				if err := rec.timed("scenario.compile", pid, req, func(int64) error {
					var err error
					c, err = p.Scenario.Compile()
					return err
				}); err != nil {
					return err
				}
				for rep := 0; rep < c.Replication.Replications; rep++ {
					cfg := replicationConfig(c.Cluster, uint64(rep))
					cfg.Arenas = arenas
					cfg.Pool = slots
					if err := slots.Acquire(ctx); err != nil {
						return err
					}
					var res *cluster.Result
					err := rec.timed("cluster.run", pid, req, func(int64) error {
						var err error
						res, err = cluster.Run(cfg)
						return err
					})
					slots.Release()
					if err != nil {
						return err
					}
					obsSum = obsSum.Merge(res.Obs)
					if arrivals == nil {
						arrivals = make([][]float64, len(res.Services))
						lost = make([][]float64, len(res.Services))
					}
					for s, sm := range res.Services {
						arrivals[s] = append(arrivals[s], float64(sm.Arrivals))
						lost[s] = append(lost[s], float64(sm.Lost))
					}
				}
				return nil
			})
			if err != nil {
				return fmt.Errorf("replay op %d point %d: %w", i, pi, err)
			}
			if ref != nil && !sameCounts(ref[pi], arrivals, lost) {
				r.incorrect("replay op %d point %d: per-service counts differ from the engine's", i, pi)
			}
		}
	}

	st := aggregate(rec.spans)
	runs := st["cluster.run"]
	l["scenario.compile_ms"] = st["scenario.compile"].meanMs()
	l["cluster.runs"] = float64(runs.count)
	l["cluster.ms_per_run"] = runs.meanMs()
	l["cluster.admissions"] = float64(obsSum.Counters["cluster/admissions"])
	l["cluster.losses"] = float64(obsSum.Counters["cluster/losses"])
	l["cluster.vt_advances"] = float64(obsSum.Counters["cluster/vt_advances"])
	fired := obsSum.Counters["desim/events_fired"]
	l["desim.events_fired"] = float64(fired)
	l["desim.events_scheduled"] = float64(obsSum.Counters["desim/events_scheduled"])
	l["desim.events_cancelled"] = float64(obsSum.Counters["desim/events_cancelled"])
	l["desim.queue_high_water"] = obsSum.Gauges["desim/queue_high_water"]
	if fired > 0 {
		l["desim.ns_per_event"] = float64(runs.total) / float64(fired)
	}
	return nil
}

// replicationConfig is replication rep's run configuration, as
// cluster.Replications derives it: seed base+rep and a private clone of
// every stateful arrival process.
func replicationConfig(base cluster.Config, rep uint64) cluster.Config {
	c := base
	c.Seed = base.Seed + rep
	c.Services = append([]cluster.ServiceSpec(nil), base.Services...)
	for i := range c.Services {
		if c.Services[i].Arrivals != nil {
			c.Services[i].Arrivals = workload.Clone(c.Services[i].Arrivals)
		}
	}
	return c
}

// sameCounts checks a replay's per-replication arrivals and losses
// against the engine's point result, averaging them the way the engine
// summarizes a point.
func sameCounts(pr sweep.PointResult, arrivals, lost [][]float64) bool {
	if len(pr.Services) != len(arrivals) {
		return false
	}
	mean := func(xs []float64) float64 {
		var s float64
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs))
	}
	for s, sp := range pr.Services {
		if sp.Arrivals != mean(arrivals[s]) || sp.Lost != mean(lost[s]) {
			return false
		}
	}
	return true
}
