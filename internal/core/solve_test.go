package core

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

// TestCaseStudyGroup1 reproduces the paper's group-1 experiment: six
// dedicated servers (3 Web + 3 DB) consolidate to three shared servers
// (Fig. 10, Table I row 1) at the reconstructed loss target B = 0.05, with
// each service offered the "intensive workload" its dedicated pool can
// afford (Fig. 9 rule).
func TestCaseStudyGroup1(t *testing.T) {
	base := caseStudyModel(1, 1, 0.05) // rates replaced below
	m, err := base.WithIntensiveWorkloads([]int{3, 3})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if res.Dedicated.Servers != 6 {
		t.Fatalf("M = %d, want 6", res.Dedicated.Servers)
	}
	if res.Consolidated.Servers != 3 {
		t.Fatalf("N = %d, want 3 (paper Table I / Fig. 10)", res.Consolidated.Servers)
	}
	if math.Abs(res.ServerRatio-2.0) > 1e-12 {
		t.Fatalf("server ratio = %g", res.ServerRatio)
	}
}

// TestCaseStudyGroup2 reproduces group 2: eight dedicated servers (4+4)
// consolidate to four (Fig. 11, Table I row 2), with a model-side
// utilization improvement near the paper's 1.5×.
func TestCaseStudyGroup2(t *testing.T) {
	base := caseStudyModel(1, 1, 0.05)
	m, err := base.WithIntensiveWorkloads([]int{4, 4})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if res.Dedicated.Servers != 8 {
		t.Fatalf("M = %d, want 8", res.Dedicated.Servers)
	}
	if res.Consolidated.Servers != 4 {
		t.Fatalf("N = %d, want 4 (paper Table I / Fig. 11)", res.Consolidated.Servers)
	}
	// Paper: model predicts ≈1.5× utilization improvement (measured 1.7×).
	if res.UtilizationImprovement < 1.3 || res.UtilizationImprovement > 1.7 {
		t.Fatalf("utilization improvement = %.3f, want ~1.5", res.UtilizationImprovement)
	}
	// Paper: up to 53 % power saving (model side lands lower because it
	// excludes the Xen platform offsets; expect >= 35 %).
	if res.PowerSaving < 0.35 || res.PowerSaving > 0.60 {
		t.Fatalf("power saving = %.3f", res.PowerSaving)
	}
	if res.String() == "" {
		t.Fatal("empty result string")
	}
}

func TestIntensiveWorkloadSaturates(t *testing.T) {
	w := webService(1)
	lambda, err := w.IntensiveWorkload(4, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	// At the intensive workload, exactly 4 servers are needed for the
	// bottleneck resource (disk I/O) — not 3, not 5.
	m := &Model{Services: []Service{webService(lambda)}, LossTarget: 0.05}
	plan, err := m.DedicatedPlan()
	if err != nil {
		t.Fatal(err)
	}
	if plan.Servers != 4 {
		t.Fatalf("intensive workload needs %d servers, want 4", plan.Servers)
	}
	if plan.PerService[0].Bottleneck != DiskIO {
		t.Fatalf("bottleneck = %s, want diskio", plan.PerService[0].Bottleneck)
	}
	// 1 % more load must push past 4 servers' admissible traffic.
	m2 := &Model{Services: []Service{webService(lambda * 1.02)}, LossTarget: 0.05}
	plan2, err := m2.DedicatedPlan()
	if err != nil {
		t.Fatal(err)
	}
	if plan2.Servers <= 4 {
		t.Fatalf("workload not intensive: %d servers at 1.02x", plan2.Servers)
	}
}

func TestIntensiveWorkloadErrors(t *testing.T) {
	w := webService(1)
	if _, err := w.IntensiveWorkload(0, 0.05); err == nil {
		t.Fatal("zero servers accepted")
	}
	s := Service{Name: "none", ArrivalRate: 1,
		ServingRates: map[Resource]float64{CPU: math.Inf(1)}}
	if _, err := s.IntensiveWorkload(2, 0.05); err == nil {
		t.Fatal("demandless service accepted")
	}
}

func TestWithIntensiveWorkloadsLengthMismatch(t *testing.T) {
	m := caseStudyModel(1, 1, 0.05)
	if _, err := m.WithIntensiveWorkloads([]int{3}); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestDedicatedPlanBreakdown(t *testing.T) {
	m := caseStudyModel(2000, 150, 0.05)
	plan, err := m.DedicatedPlan()
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.PerService) != 2 {
		t.Fatalf("per-service entries = %d", len(plan.PerService))
	}
	total := 0
	for _, sp := range plan.PerService {
		if sp.Servers <= 0 {
			t.Fatalf("service %s sized to %d", sp.Service, sp.Servers)
		}
		// The binding resource's requirement equals the service total.
		if sp.PerResource[sp.Bottleneck] != sp.Servers {
			t.Fatalf("bottleneck inconsistency in %+v", sp)
		}
		total += sp.Servers
	}
	if total != plan.Servers {
		t.Fatalf("M = %d != sum %d", plan.Servers, total)
	}
	// Dedicated traffic is the plain sum of per-service offered loads.
	wantCPU := 2000.0/3360 + 150.0/100
	if math.Abs(plan.Traffic[CPU]-wantCPU) > 1e-9 {
		t.Fatalf("dedicated cpu traffic = %g, want %g", plan.Traffic[CPU], wantCPU)
	}
}

func TestConsolidatedPlanUsesSizingForm(t *testing.T) {
	m := caseStudyModel(2000, 150, 0.05)
	eq5Plan, err := m.ConsolidatedPlan()
	if err != nil {
		t.Fatal(err)
	}
	m.Form = TrafficHarmonic
	harmPlan, err := m.ConsolidatedPlan()
	if err != nil {
		t.Fatal(err)
	}
	if harmPlan.Servers < eq5Plan.Servers {
		t.Fatalf("harmonic sizing %d < eq5 sizing %d", harmPlan.Servers, eq5Plan.Servers)
	}
}

func TestSolveInvalidModel(t *testing.T) {
	m := &Model{}
	if _, err := m.Solve(); err == nil {
		t.Fatal("empty model solved")
	}
	if _, err := m.DedicatedPlan(); err == nil {
		t.Fatal("empty model planned")
	}
	if _, err := m.ConsolidatedPlan(); err == nil {
		t.Fatal("empty model planned")
	}
}

func TestLossAtServersConsolidated(t *testing.T) {
	m := caseStudyModel(2000, 150, 0.05)
	// Sized N must meet the target; N-1 must not (tightness of Fig. 4).
	plan, err := m.ConsolidatedPlan()
	if err != nil {
		t.Fatal(err)
	}
	loss, err := m.LossAtServers(plan.Servers, false, TrafficEq5Restricted)
	if err != nil {
		t.Fatal(err)
	}
	if loss > m.LossTarget {
		t.Fatalf("loss at N = %g exceeds target", loss)
	}
	lossLess, err := m.LossAtServers(plan.Servers-1, false, TrafficEq5Restricted)
	if err != nil {
		t.Fatal(err)
	}
	if lossLess <= m.LossTarget {
		t.Fatalf("N not minimal: loss at N-1 = %g", lossLess)
	}
}

func TestLossAtServersDedicatedWeighting(t *testing.T) {
	m := caseStudyModel(2000, 150, 0.05)
	plan, err := m.DedicatedPlan()
	if err != nil {
		t.Fatal(err)
	}
	loss, err := m.LossAtServers(plan.Servers, true, TrafficEq5Restricted)
	if err != nil {
		t.Fatal(err)
	}
	if loss <= 0 || loss > m.LossTarget+0.05 {
		t.Fatalf("dedicated loss = %g", loss)
	}
	if _, err := m.LossAtServers(-1, true, TrafficEq5Restricted); err == nil {
		t.Fatal("negative servers accepted")
	}
}

func TestApportionServers(t *testing.T) {
	m := caseStudyModel(2840, 200, 0.05) // rho_w=2, rho_d=2: equal bottlenecks
	alloc := m.ApportionServers(8)
	if alloc[0]+alloc[1] != 8 {
		t.Fatalf("allocation %v does not sum to 8", alloc)
	}
	if alloc[0] != 4 || alloc[1] != 4 {
		t.Fatalf("equal traffic should split evenly, got %v", alloc)
	}
	// Every service gets at least one server when possible.
	m2 := caseStudyModel(28400, 1, 0.05) // web dominates
	alloc2 := m2.ApportionServers(5)
	if alloc2[1] < 1 {
		t.Fatalf("starved service: %v", alloc2)
	}
	if alloc2[0]+alloc2[1] != 5 {
		t.Fatalf("allocation %v does not sum to 5", alloc2)
	}
	// Degenerate pool.
	zero := m.ApportionServers(0)
	if zero[0] != 0 || zero[1] != 0 {
		t.Fatalf("zero pool allocated %v", zero)
	}
}

func TestApportionSumsProperty(t *testing.T) {
	f := func(lw, ld uint16, srv uint8) bool {
		m := caseStudyModel(float64(lw)+1, float64(ld)+1, 0.05)
		n := int(srv) % 64
		alloc := m.ApportionServers(n)
		sum := 0
		for _, a := range alloc {
			if a < 0 {
				return false
			}
			sum += a
		}
		return sum == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: consolidation never needs more servers than dedication when
// virtualization is free (a ≡ 1) and sizing uses the work-conserving
// harmonic form. (Pooling Erlang servers is always at least as efficient —
// the core economic claim of the paper.)
func TestConsolidationNeverWorseProperty(t *testing.T) {
	f := func(lw, ld uint16, bRaw uint8) bool {
		lambdaW := float64(lw%5000) + 10
		lambdaD := float64(ld%400) + 1
		target := 0.005 + float64(bRaw)/256*0.2
		m := caseStudyModel(lambdaW, lambdaD, target)
		for i := range m.Services {
			m.Services[i].ImpactFactors = nil // ideal virtualization
		}
		m.Form = TrafficHarmonic
		res, err := m.Solve()
		if err != nil {
			return false
		}
		return res.Consolidated.Servers <= res.Dedicated.Servers
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: the utilization ratio U_M/U_N is independent of the
// proportionality constant b (Eq. 11: "the exact value of parameter b has
// no impact on this ratio").
func TestUtilizationRatioIndependentOfScale(t *testing.T) {
	f := func(bRaw uint8) bool {
		scale := 0.1 + float64(bRaw)/256*0.9
		m1 := caseStudyModel(2000, 150, 0.05)
		m2 := caseStudyModel(2000, 150, 0.05)
		m2.UtilizationScale = scale
		r1, err1 := m1.Solve()
		r2, err2 := m2.Solve()
		if err1 != nil || err2 != nil {
			return false
		}
		return math.Abs(r1.UtilizationRatio-r2.UtilizationRatio) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: sizing is monotone — lowering the loss target can never reduce
// the number of servers, and raising traffic can never reduce it.
func TestSizingMonotonicityProperty(t *testing.T) {
	f := func(lw uint16) bool {
		lambda := float64(lw%4000) + 100
		tight := caseStudyModel(lambda, lambda/10, 0.01)
		loose := caseStudyModel(lambda, lambda/10, 0.10)
		rt, err1 := tight.Solve()
		rl, err2 := loose.Solve()
		if err1 != nil || err2 != nil {
			return false
		}
		if rt.Dedicated.Servers < rl.Dedicated.Servers {
			return false
		}
		return rt.Consolidated.Servers >= rl.Consolidated.Servers
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultFormIsRestricted(t *testing.T) {
	var m Model
	if m.Form != TrafficEq5Restricted {
		t.Fatal("zero-value Form should be the restricted (canonical) reading")
	}
}

func TestExplicitResourceSubset(t *testing.T) {
	// Restricting Model.Resources to CPU makes the model blind to disk
	// load: the Web service sizes from its (light) CPU demand only.
	full := caseStudyModel(2000, 150, 0.05)
	fullPlan, err := full.DedicatedPlan()
	if err != nil {
		t.Fatal(err)
	}
	cpuOnly := caseStudyModel(2000, 150, 0.05)
	cpuOnly.Resources = []Resource{CPU}
	cpuPlan, err := cpuOnly.DedicatedPlan()
	if err != nil {
		t.Fatal(err)
	}
	if cpuPlan.Servers >= fullPlan.Servers {
		t.Fatalf("cpu-only plan %d >= full plan %d", cpuPlan.Servers, fullPlan.Servers)
	}
	if _, ok := cpuPlan.Traffic[DiskIO]; ok {
		t.Fatal("disk traffic leaked into a cpu-only plan")
	}
}

func TestManyServicesModel(t *testing.T) {
	// A 12-service mix solves and consolidation still wins under the
	// canonical form (statistical multiplexing at scale).
	var services []Service
	for i := 0; i < 12; i++ {
		services = append(services, Service{
			Name:        fmt.Sprintf("svc%d", i),
			ArrivalRate: 40 + 15*float64(i),
			ServingRates: map[Resource]float64{
				CPU: 100 + 10*float64(i%4),
			},
			ImpactFactors: map[Resource]float64{CPU: 0.9},
		})
	}
	m := &Model{Services: services, LossTarget: 0.02}
	res, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if res.Consolidated.Servers >= res.Dedicated.Servers {
		t.Fatalf("no multiplexing gain at scale: M=%d N=%d",
			res.Dedicated.Servers, res.Consolidated.Servers)
	}
	if res.ServerRatio < 1.2 {
		t.Fatalf("server ratio %.2f too small for 12 services", res.ServerRatio)
	}
}
