package experiments

import (
	"testing"

	"repro/internal/core"
	"repro/internal/plan"
)

func TestHeteroFleets(t *testing.T) {
	r, err := Hetero(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 6 { // 3 fleets x 2 objectives
		t.Fatalf("rows = %d", len(r.Rows))
	}
	byFleet := map[string]HeteroRow{}
	for _, row := range r.Rows {
		if row.Objective == plan.MinServers {
			byFleet[row.Fleet] = row
		}
		// Every placement meets the loss target under the model.
		if row.ModelLoss > LossTarget {
			t.Fatalf("fleet %s (%s): model loss %g above target", row.Fleet, row.Objective, row.ModelLoss)
		}
		// QoS survives the placement: no meaningful simulated losses.
		if row.SimDBLoss > 0.05 || row.SimWebLoss > 0.05 {
			t.Fatalf("fleet %s (%s) lost web=%.3f db=%.3f",
				row.Fleet, row.Objective, row.SimWebLoss, row.SimDBLoss)
		}
	}
	// The reference fleet uses exactly N machines; slower Intel fleets
	// need at least as many.
	if byFleet["all-amd"].Machines != r.Homogeneous.Consolidated.Servers {
		t.Fatalf("all-amd machines = %d", byFleet["all-amd"].Machines)
	}
	if byFleet["all-intel"].Machines <= byFleet["all-amd"].Machines {
		t.Fatalf("intel fleet %d <= amd fleet %d machines",
			byFleet["all-intel"].Machines, byFleet["all-amd"].Machines)
	}
	if len(r.Tables()) != 1 {
		t.Fatal("table count")
	}
}

func TestFormAblationDivergence(t *testing.T) {
	rows, err := FormAblation(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		verbatim := r.NPer[core.TrafficEq5Verbatim]
		restricted := r.NPer[core.TrafficEq5Restricted]
		harmonic := r.NPer[core.TrafficHarmonic]
		// The harmonic (work-conserving) reading never sizes smaller than
		// the others.
		if harmonic < verbatim || harmonic < restricted {
			t.Fatalf("%s B=%g: harmonic %d below eq5 readings %d/%d",
				r.Mix, r.B, harmonic, verbatim, restricted)
		}
		// Homogeneous mixes agree across readings.
		if r.Mix == "homogeneous (2x web)" && (verbatim != restricted || restricted != harmonic) {
			t.Fatalf("homogeneous mix diverged: %v", r.NPer)
		}
	}
	// The extreme mix must actually diverge.
	diverged := false
	for _, r := range rows {
		if r.Mix == "extreme (web + 10x-slow db)" &&
			r.NPer[core.TrafficHarmonic] > r.NPer[core.TrafficEq5Verbatim] {
			diverged = true
		}
	}
	if !diverged {
		t.Fatal("extreme mix did not separate the readings")
	}
}

func TestSCVAblationInsensitivity(t *testing.T) {
	rows, err := SCVAblation(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.AbsErr > 0.03 {
			t.Fatalf("SCV %g: |err| %.4f — insensitivity violated", r.SCV, r.AbsErr)
		}
	}
}

func TestBurstAblationMonotone(t *testing.T) {
	rows, err := BurstAblation(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Poisson row matches Erlang B.
	if rows[0].Ratio < 0.85 || rows[0].Ratio > 1.15 {
		t.Fatalf("Poisson row ratio %.3f", rows[0].Ratio)
	}
	// Burstiness inflates loss beyond the model, monotonically in the
	// sweep's tail.
	if rows[len(rows)-1].Ratio < 1.3 {
		t.Fatalf("max burstiness ratio %.3f — no sensitivity detected", rows[len(rows)-1].Ratio)
	}
	if rows[len(rows)-1].SimLoss <= rows[1].SimLoss {
		t.Fatalf("loss not growing with burstiness: %v", rows)
	}
}

func TestAllocAblationOrdering(t *testing.T) {
	rows, err := AllocAblation(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]AllocAblationRow{}
	for _, r := range rows {
		byName[r.Policy] = r
	}
	ideal := byName["ideal-flowing"]
	static := byName["static"]
	fine := byName["proportional T=0.1s"]
	coarse := byName["proportional T=10s"]
	if ideal.Goodput < 0.97 {
		t.Fatalf("ideal flowing goodput %.3f", ideal.Goodput)
	}
	if static.Goodput >= ideal.Goodput {
		t.Fatalf("static %.3f >= ideal %.3f", static.Goodput, ideal.Goodput)
	}
	if fine.Goodput <= static.Goodput {
		t.Fatalf("fine-grained flowing %.3f <= static %.3f", fine.Goodput, static.Goodput)
	}
	if coarse.Goodput > fine.Goodput+0.02 {
		t.Fatalf("coarse %.3f should not beat fine %.3f", coarse.Goodput, fine.Goodput)
	}
}

func TestDiurnalSizingStrategies(t *testing.T) {
	r, err := Diurnal(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	byName := map[string]DiurnalRow{}
	for _, row := range r.Rows {
		byName[row.Strategy] = row
	}
	mean := byName["size-for-mean"]
	peak := byName["size-for-peak"]
	p95 := byName["size-for-p95"]
	// Mean sizing misses the target badly; peak sizing meets it.
	if mean.SimLoss < 2*mean.ModelB {
		t.Fatalf("mean sizing lost only %.4f (model %.4f) — nonstationarity not visible",
			mean.SimLoss, mean.ModelB)
	}
	if peak.SimLoss > 0.02 {
		t.Fatalf("peak sizing lost %.4f, want <= target", peak.SimLoss)
	}
	// Provisioning cost ordering.
	if !(mean.Servers < p95.Servers && p95.Servers <= peak.Servers) {
		t.Fatalf("server ordering broken: %d / %d / %d",
			mean.Servers, p95.Servers, peak.Servers)
	}
	if len(r.Tables()) != 1 {
		t.Fatal("table count")
	}
}
