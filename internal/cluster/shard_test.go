package cluster

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/pool"
)

// fourServiceConfig is a dedicated fleet with deliberately unequal
// component weights, so the bin-packing has real decisions to make.
func fourServiceConfig(shards int) Config {
	return Config{
		Mode: Dedicated,
		Services: []ServiceSpec{
			webSpec(1000, 4),
			webSpec(1000, 1),
			dbSpec(200, 2),
			webSpec(1000, 1),
		},
		Horizon: 10,
		Warmup:  1,
		Seed:    7,
		Shards:  shards,
	}
}

func planFor(t *testing.T, cfg Config) *runner {
	t.Helper()
	r := &runner{cfg: &cfg}
	r.planShards()
	return r
}

func TestPlanShardsLayout(t *testing.T) {
	// Weights are 4, 1, 202 (200 clients + 2 hosts), 1: the greedy pack at
	// two shards puts the DB component alone and the three Web components
	// together.
	r := planFor(t, fourServiceConfig(2))
	if r.nshards != 2 {
		t.Fatalf("nshards = %d, want 2", r.nshards)
	}
	want := []int{1, 1, 0, 1}
	for svc, shard := range r.svcShard {
		if shard != want[svc] {
			t.Fatalf("svcShard = %v, want %v", r.svcShard, want)
		}
	}
}

func TestPlanShardsClamps(t *testing.T) {
	if r := planFor(t, fourServiceConfig(16)); r.nshards != 4 {
		t.Errorf("shard count must clamp to the component count, got %d", r.nshards)
	}
	if r := planFor(t, fourServiceConfig(0)); r.nshards != 1 {
		t.Errorf("shards=0 must run unsharded, got %d", r.nshards)
	}
	cons := fourServiceConfig(4)
	cons.Mode = Consolidated
	cons.ConsolidatedServers = 4
	for i := range cons.Services {
		cons.Services[i].DedicatedServers = 0
	}
	if r := planFor(t, cons); r.nshards != 1 {
		t.Errorf("a consolidated fleet is one coupling component, got %d shards", r.nshards)
	}
	traced := fourServiceConfig(4)
	traced.Tracer = obs.NewTraceWriter(discard{}, 1)
	if r := planFor(t, traced); r.nshards != 1 {
		t.Errorf("tracing must force a single shard, got %d", r.nshards)
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// TestShardedRunMatchesSequential pins determinism at the cluster level
// with a mixed open/closed fleet, failure injection and a bounded pool
// (smaller than the shard count, so the work-stealing loop runs shards on
// fewer goroutines than requested).
func TestShardedRunMatchesSequential(t *testing.T) {
	build := func(shards int, p *pool.Pool) Config {
		cfg := fourServiceConfig(shards)
		cfg.MTBF = 40
		cfg.MTTR = 5
		cfg.Pool = p
		return cfg
	}
	want, err := Run(build(1, nil))
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{2, 4} {
		p, err := pool.New(2)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Run(build(shards, p))
		if err != nil {
			t.Fatal(err)
		}
		if p.Active() != 0 {
			t.Fatalf("shards=%d leaked %d pool slots", shards, p.Active())
		}
		assertSameResult(t, want, got, shards)
	}
}

// assertSameResult compares everything except the Obs snapshot, whose
// per-shard engine counters legitimately differ between layouts.
func assertSameResult(t *testing.T, want, got *Result, shards int) {
	t.Helper()
	w, g := *want, *got
	w.Obs, g.Obs = obs.Snapshot{}, obs.Snapshot{}
	if w.String() != g.String() {
		t.Fatalf("shards=%d report diverged:\nwant %s\ngot  %s", shards, w.String(), g.String())
	}
	if w.Failures != g.Failures || w.Window != g.Window {
		t.Fatalf("shards=%d failures/window diverged: %d/%.3f vs %d/%.3f",
			shards, w.Failures, w.Window, g.Failures, g.Window)
	}
	for i := range w.Services {
		if w.Services[i] != g.Services[i] {
			t.Fatalf("shards=%d service %d diverged:\nwant %+v\ngot  %+v",
				shards, i, w.Services[i], g.Services[i])
		}
	}
	if len(w.Hosts) != len(g.Hosts) {
		t.Fatalf("shards=%d host count diverged: %d vs %d", shards, len(w.Hosts), len(g.Hosts))
	}
	for i := range w.Hosts {
		if w.Hosts[i].Bottleneck != g.Hosts[i].Bottleneck {
			t.Fatalf("shards=%d host %d bottleneck diverged: %v vs %v",
				shards, i, w.Hosts[i].Bottleneck, g.Hosts[i].Bottleneck)
		}
		for res, u := range w.Hosts[i].Utilization {
			if g.Hosts[i].Utilization[res] != u {
				t.Fatalf("shards=%d host %d %s utilization diverged: %v vs %v",
					shards, i, res, u, g.Hosts[i].Utilization[res])
			}
		}
	}
}
