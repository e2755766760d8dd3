package core

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/power"
)

// webService and dbService build the paper's case-study services with the
// reconstructed constants of DESIGN.md §2. Impact factors are the paper's
// fitted curves evaluated at the number of VMs that actively contend for
// each resource on a consolidated host (one Web VM + one DB VM), clamped
// to (0, 1]:
//
//	a_wi = a_wi(v=1) = 1.082 − 0.102·1 = 0.98  (disk I/O, Fig. 5b; only
//	       the Web VM touches disk)
//	a_wc = a_wc(v=2) = 0.658 − 0.0139·2 ≈ 0.63 (CPU, Fig. 6b)
//	a_dc = a_dc(v=2) = 1.85·4/(1+4) = 1.48 → 1.00 (CPU&software, Fig. 8b)
func webService(lambda float64) Service {
	return Service{
		Name:        "web",
		ArrivalRate: lambda,
		ServingRates: map[Resource]float64{
			DiskIO: 1420, // μ_wi
			CPU:    3360, // μ_wc
		},
		ImpactFactors: map[Resource]float64{
			DiskIO: 0.98, // a_wi at v=1 (only the Web VM does disk I/O)
			CPU:    0.63, // a_wc at v=2
		},
	}
}

func dbService(lambda float64) Service {
	return Service{
		Name:        "db",
		ArrivalRate: lambda,
		ServingRates: map[Resource]float64{
			CPU: 100, // μ_dc
			// Disk I/O demand "close to zero": resource omitted.
		},
		ImpactFactors: map[Resource]float64{
			CPU: 1.00, // a_dc at v=2, clamped
		},
	}
}

func caseStudyModel(lambdaW, lambdaD, lossTarget float64) *Model {
	return &Model{
		Services:   []Service{webService(lambdaW), dbService(lambdaD)},
		Resources:  []Resource{CPU, DiskIO},
		LossTarget: lossTarget,
	}
}

func TestValidateRejectsBadInputs(t *testing.T) {
	valid := caseStudyModel(100, 10, 0.05)
	if err := valid.Validate(); err != nil {
		t.Fatalf("valid model rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Model)
	}{
		{"no services", func(m *Model) { m.Services = nil }},
		{"loss target 0", func(m *Model) { m.LossTarget = 0 }},
		{"loss target 1", func(m *Model) { m.LossTarget = 1 }},
		{"loss target NaN", func(m *Model) { m.LossTarget = math.NaN() }},
		{"negative scale", func(m *Model) { m.UtilizationScale = -1 }},
		{"unnamed service", func(m *Model) { m.Services[0].Name = "" }},
		{"duplicate names", func(m *Model) { m.Services[1].Name = "web" }},
		{"zero arrival", func(m *Model) { m.Services[0].ArrivalRate = 0 }},
		{"negative arrival", func(m *Model) { m.Services[0].ArrivalRate = -5 }},
		{"infinite arrival", func(m *Model) { m.Services[0].ArrivalRate = math.Inf(1) }},
		{"zero serving rate", func(m *Model) { m.Services[0].ServingRates[CPU] = 0 }},
		{"impact factor 0", func(m *Model) { m.Services[0].ImpactFactors[CPU] = 0 }},
		{"impact factor >1", func(m *Model) { m.Services[0].ImpactFactors[CPU] = 1.5 }},
		{"no demand", func(m *Model) {
			m.Services[0].ServingRates = map[Resource]float64{CPU: math.Inf(1)}
		}},
		{"bad power", func(m *Model) { m.Power = PowerParams{Base: 100, Max: 50} }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := caseStudyModel(100, 10, 0.05)
			c.mutate(m)
			if err := m.Validate(); !errors.Is(err, ErrInvalidModel) {
				t.Fatalf("mutation %q not rejected (err=%v)", c.name, err)
			}
		})
	}
}

func TestOfferedTrafficEq3(t *testing.T) {
	w := webService(2840)
	if got := w.offeredTraffic(DiskIO); math.Abs(got-2.0) > 1e-12 {
		t.Fatalf("rho_wi = %g, want 2", got)
	}
	d := dbService(50)
	if got := d.offeredTraffic(DiskIO); got != 0 {
		t.Fatalf("zero-demand traffic = %g", got)
	}
	if got := d.offeredTraffic(CPU); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("rho_dc = %g", got)
	}
}

func TestResourcesDefaultUnion(t *testing.T) {
	m := &Model{Services: []Service{webService(1), dbService(1)}, LossTarget: 0.05}
	rs := m.resources()
	if len(rs) != 2 || rs[0] != CPU || rs[1] != DiskIO {
		t.Fatalf("resources = %v", rs)
	}
}

func TestConsolidatedTrafficForms(t *testing.T) {
	m := caseStudyModel(1000, 100, 0.05)
	lambda := m.TotalArrivalRate()
	if lambda != 1100 {
		t.Fatalf("lambda = %g", lambda)
	}

	// Eq5 verbatim on CPU: λ²/(λw·μwc·awc + λd·μdc·adc).
	wantCPU := lambda * lambda / (1000*3360*0.63 + 100*100*1.00)
	if got := m.ConsolidatedTraffic(CPU, TrafficEq5Verbatim); math.Abs(got-wantCPU) > 1e-9 {
		t.Fatalf("eq5 cpu = %g, want %g", got, wantCPU)
	}
	// Eq5 verbatim on disk: DB's infinite rate zeroes the traffic.
	if got := m.ConsolidatedTraffic(DiskIO, TrafficEq5Verbatim); got != 0 {
		t.Fatalf("eq5 disk = %g, want 0", got)
	}
	// Restricted Eq5 on disk: only the web service participates.
	wantDisk := 1000.0 * 1000.0 / (1000 * 1420 * 0.98)
	if got := m.ConsolidatedTraffic(DiskIO, TrafficEq5Restricted); math.Abs(got-wantDisk) > 1e-9 {
		t.Fatalf("restricted disk = %g, want %g", got, wantDisk)
	}
	// Harmonic on CPU: Σ λi/(μij·aij).
	wantHarm := 1000/(3360*0.63) + 100/(100*1.00)
	if got := m.ConsolidatedTraffic(CPU, TrafficHarmonic); math.Abs(got-wantHarm) > 1e-9 {
		t.Fatalf("harmonic cpu = %g, want %g", got, wantHarm)
	}
	// Harmonic always >= Eq5 (arithmetic-mean rate understates work,
	// AM-HM inequality).
	for _, j := range []Resource{CPU, DiskIO} {
		if m.ConsolidatedTraffic(j, TrafficHarmonic) < m.ConsolidatedTraffic(j, TrafficEq5Verbatim)-1e-12 {
			t.Fatalf("harmonic < eq5 on %s", j)
		}
	}
}

func TestConsolidatedTrafficSingleServiceFormsAgree(t *testing.T) {
	// With one service all three forms must coincide: λ/(μ·a).
	m := &Model{Services: []Service{webService(710)}, LossTarget: 0.05}
	want := 710.0 / (1420 * 0.98)
	for _, f := range []TrafficForm{TrafficEq5Verbatim, TrafficEq5Restricted, TrafficHarmonic} {
		if got := m.ConsolidatedTraffic(DiskIO, f); math.Abs(got-want) > 1e-9 {
			t.Fatalf("%v disk = %g, want %g", f, got, want)
		}
	}
}

func TestConsolidatedServingRateEq4(t *testing.T) {
	m := caseStudyModel(1000, 100, 0.05)
	mu := m.ConsolidatedServingRate(CPU, TrafficEq5Verbatim)
	// μ' = λ/ρ' = Σ λi·μi·ai / λ (arithmetic mean).
	want := (1000*3360*0.63 + 100*100*1.00) / 1100
	if math.Abs(mu-want) > 1e-6 {
		t.Fatalf("mu' = %g, want %g", mu, want)
	}
	if !math.IsInf(m.ConsolidatedServingRate(DiskIO, TrafficEq5Verbatim), 1) {
		t.Fatal("zero-traffic resource should have infinite rate")
	}
}

func TestTrafficFormString(t *testing.T) {
	if TrafficEq5Verbatim.String() != "eq5-verbatim" ||
		TrafficEq5Restricted.String() != "eq5-restricted" ||
		TrafficHarmonic.String() != "harmonic" {
		t.Fatal("TrafficForm names wrong")
	}
	if TrafficForm(99).String() == "" {
		t.Fatal("unknown form should still render")
	}
}

// PowerParams is power's server model: Eq. (12)–(14) read its draw on
// native Linux, where the factors of Xen do not apply.
func TestPowerParams(t *testing.T) {
	p := PowerParams{Base: 250, Max: 340}
	draw := func(u float64) float64 { return p.Draw(u, power.NativeLinux) }
	if draw(0) != 250 || draw(1) != 340 {
		t.Fatal("power endpoints wrong")
	}
	if math.Abs(draw(0.5)-295) > 1e-12 {
		t.Fatal("power midpoint wrong")
	}
	// Clamping.
	if draw(-1) != 250 || draw(2) != 340 {
		t.Fatal("power clamp broken")
	}
	if err := (PowerParams{Base: -1, Max: 10}).Validate(); err == nil {
		t.Fatal("negative base accepted")
	}
	if DefaultPower != power.DefaultServer {
		t.Fatalf("DefaultPower %+v, power.DefaultServer %+v", DefaultPower, power.DefaultServer)
	}
}

func TestImpactFactorDefaults(t *testing.T) {
	s := Service{Name: "x", ArrivalRate: 1, ServingRates: map[Resource]float64{CPU: 10}}
	if s.impactFactor(CPU) != 1 {
		t.Fatal("missing impact factor should default to 1")
	}
}

// Property: for any positive arrival rates, harmonic traffic >= eq5 traffic
// on every resource (AM-HM), and the restricted form falls between 0 and
// the harmonic form.
func TestTrafficFormOrderingProperty(t *testing.T) {
	f := func(lw, ld uint16) bool {
		m := caseStudyModel(float64(lw)+1, float64(ld)+1, 0.05)
		for _, j := range []Resource{CPU, DiskIO} {
			e5 := m.ConsolidatedTraffic(j, TrafficEq5Verbatim)
			re := m.ConsolidatedTraffic(j, TrafficEq5Restricted)
			ha := m.ConsolidatedTraffic(j, TrafficHarmonic)
			if e5 < 0 || re < 0 || ha < 0 {
				return false
			}
			if ha < e5-1e-9 || ha < re-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
