package cluster

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/desim"
	"repro/internal/rainbow"
	"repro/internal/replicate"
	"repro/internal/virt"
	"repro/internal/workload"
)

// arenaCase is one configuration the arena tests reuse arenas across.
type arenaCase struct {
	name string
	cfg  Config
}

// arenaCases cover every way a run hands storage back to its arena: the
// replication study's light load; sweep-hosts' overloaded 3-host point
// (the case study at its saturation rates, reallocation periods cut as
// the sweep-point benchmark cuts them) at a 1 s horizon, which ends with
// requests in flight; a sharded dedicated fleet, one arena per shard; and
// failure injection, whose victims go back to the arena mid-run.
func arenaCases() []arenaCase {
	web := ServiceSpec{
		Profile:          workload.SPECwebEcommerce(),
		Overhead:         virt.WebHostOverhead(),
		Arrivals:         workload.NewPoisson(3976),
		DedicatedServers: 4,
	}
	db := ServiceSpec{
		Profile:          workload.TPCWEbook(),
		Overhead:         virt.DBHostOverhead(),
		Arrivals:         workload.NewPoisson(280),
		DedicatedServers: 4,
	}
	failures := goldenCases()["consolidated-partitioned-failures"]
	failures.Horizon, failures.MTBF, failures.MTTR = 120, 25, 5
	return []arenaCase{
		{"light", replCfg()},
		{"overloaded-3-hosts", Config{
			Mode:                Consolidated,
			Services:            []ServiceSpec{web, db},
			ConsolidatedServers: 3,
			Alloc:               rainbow.Proportional{RebalancePeriod: 0.0625, MinShare: 0.05, Cost: 0.01},
			Horizon:             1,
			Warmup:              1.0 / 6,
			Seed:                42,
		}},
		{"sharded", fourServiceConfig(4)},
		{"mtbf", failures},
	}
}

// sameRun reports whether two runs agree bit for bit: every service and
// host metric (%v prints floats in their shortest exact form), the
// failure count, the engine counters and the queue's high water. Only the
// arena-size gauge may differ, since a reused simulator keeps its slots.
func sameRun(a, b *Result) bool {
	return fmt.Sprintf("%v|%v|%d|%v", a.Services, a.Hosts, a.Failures, a.Window) ==
		fmt.Sprintf("%v|%v|%d|%v", b.Services, b.Hosts, b.Failures, b.Window) &&
		reflect.DeepEqual(a.Obs.Counters, b.Obs.Counters) &&
		a.Obs.Gauges["desim/queue_high_water"] == b.Obs.Gauges["desim/queue_high_water"]
}

// TestArenaRunMatchesPlain: a Run through a repeatedly reused arena must
// reproduce a Run on a fresh arena bit for bit — the arena is an
// allocation optimization, never a semantic one. The cases share one
// pool, so from round 2 on every run starts from storage and requests
// another configuration's run left behind.
func TestArenaRunMatchesPlain(t *testing.T) {
	cases := arenaCases()
	plain := make([]*Result, len(cases))
	for i, c := range cases {
		res, err := Run(cloneConfig(c.cfg, c.cfg.Seed))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		plain[i] = res
	}
	if overloaded := plain[1]; overloaded.Services[0].Lost == 0 {
		t.Fatal("overloaded-3-hosts: no losses; the point is not saturated")
	}
	if plain[3].Failures == 0 {
		t.Fatal("mtbf: no host failed")
	}
	arenas := NewArenaPool()
	for round := 0; round < 3; round++ {
		for i, c := range cases {
			cfg := cloneConfig(c.cfg, c.cfg.Seed)
			cfg.Arenas = arenas
			got, err := Run(cfg)
			if err != nil {
				t.Fatalf("%s round %d: %v", c.name, round, err)
			}
			if !sameRun(got, plain[i]) {
				t.Fatalf("%s round %d: reused-arena run diverged from a fresh arena's", c.name, round)
			}
		}
	}
}

// TestArenaReplicationsDeterministic: whole replication studies through one
// shared pool — concurrent workers checking arenas in and out — stay
// identical to the study on fresh arenas, run after run.
func TestArenaReplicationsDeterministic(t *testing.T) {
	ctx := context.Background()
	rcfg := replicate.Config{Replications: 4, Workers: 2}
	cases := arenaCases()
	base := make([]*ReplicationSet, len(cases))
	for i, c := range cases {
		set, err := Replications(ctx, c.cfg, rcfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		base[i] = set
	}
	arenas := NewArenaPool()
	for round := 0; round < 3; round++ {
		for i, c := range cases {
			pooled := c.cfg
			pooled.Arenas = arenas
			set, err := Replications(ctx, pooled, rcfg)
			if err != nil {
				t.Fatalf("%s round %d: %v", c.name, round, err)
			}
			for k := range base[i].Results {
				if !sameRun(set.Results[k], base[i].Results[k]) {
					t.Fatalf("%s round %d: replication %d diverged from the fresh-arena study", c.name, round, k)
				}
			}
			if set.OverallLoss != base[i].OverallLoss || set.TotalThroughput != base[i].TotalThroughput ||
				set.BottleneckUtil != base[i].BottleneckUtil {
				t.Fatalf("%s round %d: aggregate CIs diverged", c.name, round)
			}
		}
	}
}

// TestArenaReclaimsEachRequestOnce: at the horizon the arena takes back
// every station's job storage and every request still in flight, and a
// request resident on several stations goes back exactly once.
func TestArenaReclaimsEachRequestOnce(t *testing.T) {
	sim := desim.New()
	a, b := newStation(sim, "a", 1, nil), newStation(sim, "b", 1, nil)
	both, onlyA := &request{left: 2}, &request{left: 1}
	a.add(both, 5)
	b.add(both, 5)
	a.add(onlyA, 5)
	arena := NewArena()
	arena.reclaim(a)
	arena.reclaim(b)
	if len(arena.requests) != 2 {
		t.Fatalf("reclaimed %d requests, want 2 (one per in-flight request)", len(arena.requests))
	}
	for _, req := range arena.requests {
		if *req != (request{}) {
			t.Fatalf("reclaimed request not zeroed: %+v", *req)
		}
	}
	if len(arena.jobs) != 2 || a.jobs != nil || b.jobs != nil {
		t.Fatalf("job storage: arena keeps %d, stations keep %v and %v", len(arena.jobs), a.jobs, b.jobs)
	}
	st := newStation(sim, "c", 1, nil)
	st.jobs = arena.jobStorage()
	if len(st.jobs) != 0 || cap(st.jobs) == 0 {
		t.Fatalf("reused job storage has len %d, cap %d", len(st.jobs), cap(st.jobs))
	}
}
