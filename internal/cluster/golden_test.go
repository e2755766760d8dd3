package cluster

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/rainbow"
	"repro/internal/stats"
	"repro/internal/virt"
	"repro/internal/workload"
)

// The golden-metrics equivalence test pins the observable output of fixed-seed
// cluster runs across internal rewrites of the simulation core. The stored
// goldens were captured from the original O(k)-per-event station physics and
// the boxed-event desim heap; the virtual-time / event-arena implementations
// must reproduce them: integer counters exactly, float metrics to within
// goldenTol relative error (the rewrites are algebraically identical but
// associate float additions differently).
//
// Regenerate with: go test ./internal/cluster -run TestGoldenMetrics -update

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_metrics.json from the current implementation")

const goldenTol = 1e-9

// goldenService is the per-service slice of a Result we pin.
type goldenService struct {
	Name     string  `json:"name"`
	Arrivals int64   `json:"arrivals"`
	Served   int64   `json:"served"`
	Lost     int64   `json:"lost"`
	LossProb float64 `json:"loss_prob"`
	Thr      float64 `json:"throughput"`
	MeanResp float64 `json:"mean_resp"`
	RespP95  float64 `json:"resp_p95"`
	RespP99  float64 `json:"resp_p99"`
}

// goldenHost pins one host's utilization map.
type goldenHost struct {
	ID          int                `json:"id"`
	Utilization map[string]float64 `json:"utilization"`
	Bottleneck  float64            `json:"bottleneck"`
}

type goldenResult struct {
	Case     string          `json:"case"`
	Failures int64           `json:"failures"`
	Window   float64         `json:"window"`
	Services []goldenService `json:"services"`
	Hosts    []goldenHost    `json:"hosts"`
}

// goldenCases are the fixed-seed runs the equivalence test replays. They
// cover both modes, open and closed loops, partitioned allocation with
// periodic rebalancing, and failure injection — every code path through
// station add/advance/complete/setCapacity/clear.
func goldenCases() map[string]Config {
	webOpen := func(rate float64) ServiceSpec {
		return ServiceSpec{
			Profile:          workload.SPECwebEcommerce(),
			Overhead:         virt.WebHostOverhead(),
			Arrivals:         workload.NewPoisson(rate),
			DedicatedServers: 2,
		}
	}
	dbOpen := func(rate float64) ServiceSpec {
		return ServiceSpec{
			Profile:          workload.TPCWEbook(),
			Overhead:         virt.DBHostOverhead(),
			Arrivals:         workload.NewPoisson(rate),
			DedicatedServers: 2,
		}
	}
	dbClosed := func(clients int) ServiceSpec {
		return ServiceSpec{
			Profile:          workload.TPCWEbook(),
			Overhead:         virt.DBHostOverhead(),
			Clients:          clients,
			ThinkTime:        stats.NewExponential(1.0 / 3.5),
			DedicatedServers: 2,
		}
	}
	return map[string]Config{
		"consolidated-flowing-open": {
			Mode:                Consolidated,
			Services:            []ServiceSpec{webOpen(0.7 * 2 * workload.WebDiskRate), dbOpen(0.7 * 2 * workload.DBCPURate)},
			ConsolidatedServers: 3,
			Horizon:             300,
			Warmup:              50,
			Seed:                7,
		},
		"dedicated-closed": {
			Mode: Dedicated,
			Services: []ServiceSpec{
				{
					Profile:          workload.SPECwebEcommerce(),
					Overhead:         virt.WebHostOverhead(),
					Clients:          40,
					ThinkTime:        stats.NewExponential(1.0 / 2),
					DedicatedServers: 2,
				},
				dbClosed(20),
			},
			Horizon: 200,
			Warmup:  40,
			Seed:    11,
		},
		"consolidated-partitioned-failures": {
			Mode:                Consolidated,
			Services:            []ServiceSpec{webOpen(0.6 * 2 * workload.WebDiskRate), dbClosed(30)},
			ConsolidatedServers: 3,
			Alloc:               rainbow.Proportional{RebalancePeriod: 0.5, MinShare: 0.05, Cost: 0.01},
			MTBF:                120,
			MTTR:                20,
			Horizon:             300,
			Warmup:              50,
			Seed:                13,
		},
	}
}

func captureGolden(name string, res *Result) goldenResult {
	g := goldenResult{Case: name, Failures: res.Failures, Window: res.Window}
	for _, s := range res.Services {
		mean := s.ResponseTimes.Mean()
		if math.IsNaN(mean) {
			mean = 0
		}
		g.Services = append(g.Services, goldenService{
			Name:     s.Name,
			Arrivals: s.Arrivals,
			Served:   s.Served,
			Lost:     s.Lost,
			LossProb: s.LossProb,
			Thr:      s.Throughput,
			MeanResp: mean,
			RespP95:  s.RespP95,
			RespP99:  s.RespP99,
		})
	}
	for _, h := range res.Hosts {
		g.Hosts = append(g.Hosts, goldenHost{ID: h.ID, Utilization: h.Utilization, Bottleneck: h.Bottleneck})
	}
	return g
}

func closeEnough(a, b float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= goldenTol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func TestGoldenMetrics(t *testing.T) {
	path := filepath.Join("testdata", "golden_metrics.json")
	got := map[string]goldenResult{}
	for name, cfg := range goldenCases() {
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got[name] = captureGolden(name, res)
	}

	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing goldens (run with -update first): %v", err)
	}
	var want map[string]goldenResult
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}

	for name := range got {
		g, w := got[name], want[name]
		if w.Case == "" {
			t.Errorf("%s: no golden recorded", name)
			continue
		}
		check := func(field string, gv, wv float64) {
			if !closeEnough(gv, wv) {
				t.Errorf("%s: %s = %v, golden %v", name, field, gv, wv)
			}
		}
		if g.Failures != w.Failures {
			t.Errorf("%s: failures = %d, golden %d", name, g.Failures, w.Failures)
		}
		check("window", g.Window, w.Window)
		if len(g.Services) != len(w.Services) {
			t.Fatalf("%s: %d services, golden %d", name, len(g.Services), len(w.Services))
		}
		for i := range g.Services {
			gs, ws := g.Services[i], w.Services[i]
			pre := fmt.Sprintf("service %s", gs.Name)
			if gs.Arrivals != ws.Arrivals || gs.Served != ws.Served || gs.Lost != ws.Lost {
				t.Errorf("%s: %s counters = (%d,%d,%d), golden (%d,%d,%d)", name, pre,
					gs.Arrivals, gs.Served, gs.Lost, ws.Arrivals, ws.Served, ws.Lost)
			}
			check(pre+" loss", gs.LossProb, ws.LossProb)
			check(pre+" throughput", gs.Thr, ws.Thr)
			check(pre+" mean resp", gs.MeanResp, ws.MeanResp)
			check(pre+" p95", gs.RespP95, ws.RespP95)
			check(pre+" p99", gs.RespP99, ws.RespP99)
		}
		if len(g.Hosts) != len(w.Hosts) {
			t.Fatalf("%s: %d hosts, golden %d", name, len(g.Hosts), len(w.Hosts))
		}
		for i := range g.Hosts {
			gh, wh := g.Hosts[i], w.Hosts[i]
			check(fmt.Sprintf("host %d bottleneck", gh.ID), gh.Bottleneck, wh.Bottleneck)
			for res, u := range wh.Utilization {
				check(fmt.Sprintf("host %d util[%s]", gh.ID, res), gh.Utilization[res], u)
			}
		}
	}
}
