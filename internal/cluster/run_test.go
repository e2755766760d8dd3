package cluster

import (
	"reflect"
	"testing"

	"repro/internal/rainbow"
	"repro/internal/stats"
	"repro/internal/workload"
)

// flatSpec builds a minimal one-resource open-loop service: CPU work is
// exponential with mean 1/10 s, so offered load λ=5 keeps one reference
// server at utilization 0.5.
func flatSpec(arrivals workload.ArrivalProcess) ServiceSpec {
	return ServiceSpec{
		Profile: workload.ServiceProfile{
			Name: "flat",
			Demands: map[string]stats.Distribution{
				workload.CPU: stats.NewExponential(10),
			},
		},
		Arrivals:         arrivals,
		DedicatedServers: 1,
	}
}

// TestUtilizationScopedToWindow is the warmup-accounting regression test:
// utilization must describe the post-warmup window — the same interval loss
// and throughput are scoped to — not the whole run. The load is made
// asymmetric around the warmup boundary with a non-homogeneous Poisson
// process, so pre-fix accounting (all work over the whole horizon) lands
// near the 50/50 blend and fails both directions.
func TestUtilizationScopedToWindow(t *testing.T) {
	run := func(rates []float64) *Result {
		cfg := Config{
			Mode:     Dedicated,
			Services: []ServiceSpec{flatSpec(workload.NewNHPP(rates, 500, false))},
			Horizon:  1000,
			Warmup:   500,
			Seed:     17,
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	// Busy warmup, idle window: only the in-flight residue at the boundary
	// drains inside the window, so utilization must be almost zero. The
	// broken accounting reported ≈0.25 (half the warmup's 0.5 load spread
	// over the doubled interval).
	idle := run([]float64{5, 0})
	if u := idle.Hosts[0].Bottleneck; u > 0.02 {
		t.Errorf("idle-window utilization %.4f, want ~0 (warmup work leaked in)", u)
	}
	if thr := idle.Services[0].Throughput; thr > 0.1 {
		t.Errorf("idle-window throughput %.4f, want ~0", thr)
	}

	// Idle warmup, busy window: utilization must reflect the window's full
	// 0.5 load; the broken accounting diluted it to ≈0.25.
	busy := run([]float64{0, 5})
	u := busy.Hosts[0].Bottleneck
	if u < 0.4 || u > 0.6 {
		t.Errorf("busy-window utilization %.4f, want ≈0.5 (diluted by idle warmup)", u)
	}
	// Utilization and throughput now describe the same interval:
	// u ≈ throughput × mean work per request (1/10 s).
	if thr := busy.Services[0].Throughput; stats.RelativeError(u, thr/10) > 0.1 {
		t.Errorf("utilization %.4f inconsistent with throughput %.4f over the window", u, thr)
	}
}

// TestPickHostSkipsDownHosts pins the round-robin dispatch order around a
// host failure: a down host is skipped without burning cursor positions, so
// the rotation among survivors is unperturbed, and the host rejoins at its
// slot after repair.
func TestPickHostSkipsDownHosts(t *testing.T) {
	hosts := []*host{{id: 0, up: true}, {id: 1, up: true}, {id: 2, up: true}}
	r := &runner{byService: [][]target{{{host: hosts[0]}, {host: hosts[1]}, {host: hosts[2]}}}, rrNext: make([]int, 1)}
	picks := func(n int) []int {
		var ids []int
		for i := 0; i < n; i++ {
			h, _ := r.pickHost(0)
			if h == nil {
				ids = append(ids, -1)
				continue
			}
			ids = append(ids, h.id)
		}
		return ids
	}
	equal := func(got, want []int) bool {
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}

	if got := picks(4); !equal(got, []int{0, 1, 2, 0}) {
		t.Fatalf("healthy rotation %v", got)
	}
	hosts[1].up = false
	if got := picks(4); !equal(got, []int{2, 0, 2, 0}) {
		t.Fatalf("rotation with host 1 down: %v", got)
	}
	hosts[1].up = true
	if got := picks(3); !equal(got, []int{1, 2, 0}) {
		t.Fatalf("rotation after repair %v", got)
	}
	hosts[0].up, hosts[1].up, hosts[2].up = false, false, false
	if got := picks(2); !equal(got, []int{-1, -1}) {
		t.Fatalf("all-down pool returned %v", got)
	}
	if h, _ := r.pickHost(0); h != nil {
		t.Fatal("all-down pool yielded a host")
	}
}

// TestRebalanceTickDeterministic runs a partitioned consolidated fleet
// whose VMs demand three resources, rebalanced every 10 ms, and requires
// bit-identical results across repeated runs. With three or more stations
// per VM the tick's float backlog sum and its rescheduling order depend on
// the order it visits them, so that order must not be map order.
func TestRebalanceTickDeterministic(t *testing.T) {
	spec := func(name string, rate float64) ServiceSpec {
		return ServiceSpec{
			Profile: workload.ServiceProfile{
				Name: name,
				Demands: map[string]stats.Distribution{
					workload.CPU:    stats.NewExponential(300),
					workload.DiskIO: stats.NewExponential(200),
					"net":           stats.NewExponential(400),
				},
			},
			Arrivals: workload.NewPoisson(rate),
		}
	}
	cfg := Config{
		Mode:                Consolidated,
		Services:            []ServiceSpec{spec("a", 200), spec("b", 170)},
		ConsolidatedServers: 2,
		Alloc:               rainbow.Proportional{RebalancePeriod: 0.01, Cost: 0.01, MinShare: 0.05},
		Horizon:             5,
		Seed:                3,
	}
	want, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 39; i++ {
		got, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d differs from the first:\n%+v\nvs\n%+v", i+2, got.Services, want.Services)
		}
	}
}
