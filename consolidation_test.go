package consolidation

import (
	"math"
	"testing"
)

// TestFacadeEndToEnd exercises the public API exactly as the doc.go
// quick-start shows.
func TestFacadeEndToEnd(t *testing.T) {
	m := &Model{
		Services: []Service{
			{
				Name:        "web",
				ArrivalRate: 1280,
				ServingRates: map[Resource]float64{
					DiskIO: 1420,
					CPU:    3360,
				},
				ImpactFactors: map[Resource]float64{
					DiskIO: 0.98,
					CPU:    0.63,
				},
			},
			{
				Name:        "db",
				ArrivalRate: 90,
				ServingRates: map[Resource]float64{
					CPU: 100,
				},
			},
		},
		LossTarget: 0.05,
	}
	res, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if res.Dedicated.Servers <= 0 || res.Consolidated.Servers <= 0 {
		t.Fatalf("degenerate plan: %+v", res)
	}
	if res.Consolidated.Servers > res.Dedicated.Servers {
		t.Fatalf("consolidation made things worse: M=%d N=%d",
			res.Dedicated.Servers, res.Consolidated.Servers)
	}
	bound, err := m.AllocatorBound(res.Dedicated.Servers)
	if err != nil {
		t.Fatal(err)
	}
	if bound.ThroughputImprovement < 1 {
		t.Fatalf("bound %v", bound)
	}
	rep, err := m.Sensitivity(0.1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.BaseN != res.Consolidated.Servers {
		t.Fatalf("sensitivity base N = %d, want %d", rep.BaseN, res.Consolidated.Servers)
	}
}

func TestFacadeErlangHelpers(t *testing.T) {
	b, err := ErlangB(4, 1.52)
	if err != nil {
		t.Fatal(err)
	}
	if b <= 0 || b > 0.05 {
		t.Fatalf("ErlangB(4, 1.52) = %g", b)
	}
	n, err := ErlangServers(1.52, 0.05, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("ErlangServers = %d, want 4", n)
	}
	rho, err := ErlangTraffic(4, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rho-1.5255) > 0.01 {
		t.Fatalf("ErlangTraffic = %g", rho)
	}
}

func TestFacadeConstants(t *testing.T) {
	if TrafficEq5Restricted != 0 {
		t.Fatal("restricted form must be the zero value")
	}
	if CPU != "cpu" || DiskIO != "diskio" || Memory != "memory" || Network != "network" {
		t.Fatal("resource constants wrong")
	}
	if DefaultPower.Base <= 0 || DefaultPower.Max <= DefaultPower.Base {
		t.Fatal("default power model wrong")
	}
}

func TestFacadeParseModelJSON(t *testing.T) {
	m, err := ParseModelJSON([]byte(`{
		"lossTarget": 0.05,
		"services": [{
			"name": "svc",
			"arrivalRate": 10,
			"servingRates": {"cpu": 100}
		}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if res.Dedicated.Servers <= 0 {
		t.Fatal("degenerate plan")
	}
	if _, err := ParseModelJSON([]byte("garbage")); err == nil {
		t.Fatal("garbage accepted")
	}
}
