package scenario

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/obs"
)

// shardTestHorizon keeps the whole example corpus cheap enough to run at
// three shard counts each: the saturation scenarios push thousands of
// arrivals per second, so a few simulated seconds already exercise every
// dispatch, admission and completion path.
const shardTestHorizon = 4.0

// runExampleAt compiles one example scenario, caps its horizon and warmup
// at the given values and runs a single cluster replication at the given
// shard count, returning the Result with the Obs snapshot stripped
// (per-shard engine counters legitimately differ between shard layouts;
// the physics must not).
func runExampleAt(t *testing.T, file string, shards int, horizon, warmup float64) *cluster.Result {
	t.Helper()
	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	s, err := ParseBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	if s.Horizon > horizon {
		s.Horizon = horizon
	}
	if s.Warmup != nil && *s.Warmup > warmup {
		s.Warmup = &warmup
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	s.ApplyDefaults()
	c, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	cfg := c.Cluster
	cfg.Shards = shards
	res, err := cluster.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res.Obs = obs.Snapshot{}
	return res
}

// TestShardedExamplesMatchUnsharded is the shard-determinism golden test:
// every shipped example scenario must produce identical Results at shards
// 1, 2 and 4 — byte-for-byte equal service metrics, host utilizations,
// failure counts and windows. Sharding partitions the run across coupling
// components, which exchange no events, so any divergence is a bug in the
// partitioning, the per-shard arenas, the merge or the event queue.
func TestShardedExamplesMatchUnsharded(t *testing.T) {
	type input struct {
		name, file      string
		horizon, warmup float64
	}
	var inputs []input
	for _, file := range exampleFiles(t) {
		name := strings.TrimSuffix(filepath.Base(file), ".json")
		if strings.HasPrefix(name, "periods-") {
			// Periods scenarios have no single cluster configuration;
			// their resolved bins are plain stationary scenarios already
			// covered by this corpus.
			continue
		}
		inputs = append(inputs, input{name, file, shardTestHorizon, 1})
	}
	// The sharded example also runs at the shape of CI's simulate -quick
	// smoke (horizon and warmup divided by 8): a run this long schedules
	// over 10^5 events, a regime the capped corpus never reaches.
	inputs = append(inputs, input{"sharded-fleet-quick", filepath.Join(examplesDir, "sharded-fleet.json"), 15, 1.25})
	for _, in := range inputs {
		t.Run(in.name, func(t *testing.T) {
			want := runExampleAt(t, in.file, 1, in.horizon, in.warmup)
			for _, n := range []int{2, 4} {
				got := runExampleAt(t, in.file, n, in.horizon, in.warmup)
				if !reflect.DeepEqual(want, got) {
					t.Errorf("shards=%d diverged from shards=1:\nwant %v\ngot  %v", n, want, got)
				}
			}
		})
	}
}

// TestShardedExampleProducesWork guards the fixture itself: the sharded
// example must actually serve traffic in every service, or the determinism
// assertions above would vacuously pass on an idle fleet.
func TestShardedExampleProducesWork(t *testing.T) {
	res := runExampleAt(t, filepath.Join(examplesDir, "sharded-fleet.json"), 4, shardTestHorizon, 1)
	for _, svc := range res.Services {
		if svc.Served == 0 || math.IsNaN(svc.Throughput) {
			t.Errorf("service %s served nothing (throughput %v)", svc.Name, svc.Throughput)
		}
	}
}
