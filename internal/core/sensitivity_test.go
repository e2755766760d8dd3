package core

import (
	"strings"
	"testing"
)

func TestSensitivityBasics(t *testing.T) {
	base := caseStudyModel(1, 1, 0.05)
	m, err := base.WithIntensiveWorkloads([]int{4, 4})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := m.Sensitivity(0.1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.BaseM != 8 || rep.BaseN != 4 {
		t.Fatalf("base plan M=%d N=%d", rep.BaseM, rep.BaseN)
	}
	// Two services: 2 arrival params + 3 serving rates (web disk, web cpu,
	// db cpu) + 3 impact factors + lossTarget = 9 params x 2 directions.
	if len(rep.Rows) != 18 {
		t.Fatalf("rows = %d, want 18", len(rep.Rows))
	}
	// The model must not be mutated by the sweep.
	res, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if res.Dedicated.Servers != 8 || res.Consolidated.Servers != 4 {
		t.Fatal("Sensitivity mutated the model")
	}
	if rep.String() == "" {
		t.Fatal("empty report")
	}
}

func TestSensitivityDirections(t *testing.T) {
	base := caseStudyModel(1, 1, 0.05)
	m, err := base.WithIntensiveWorkloads([]int{4, 4})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := m.Sensitivity(0.1)
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]Perturbation{}
	for _, p := range rep.Rows {
		byKey[p.Parameter+sign(p.Factor)] = p
	}
	// More web traffic can only grow the plan; less can only shrink it.
	if p := byKey["web.arrivalRate+"]; p.DeltaM < 0 || p.DeltaN < 0 {
		t.Fatalf("raising web traffic shrank the plan: %+v", p)
	}
	if p := byKey["web.arrivalRate-"]; p.DeltaM > 0 || p.DeltaN > 0 {
		t.Fatalf("lowering web traffic grew the plan: %+v", p)
	}
	// Faster disks can only shrink the plan.
	if p := byKey["web.servingRate[diskio]+"]; p.DeltaM > 0 || p.DeltaN > 0 {
		t.Fatalf("faster disks grew the plan: %+v", p)
	}
	// A tighter loss target can only grow the plan.
	if p := byKey["lossTarget-"]; p.DeltaM < 0 || p.DeltaN < 0 {
		t.Fatalf("tighter QoS shrank the plan: %+v", p)
	}
	// The report marks every row that changed N.
	for _, p := range rep.Rows {
		if p.DeltaN != 0 && !strings.Contains(rep.String(), p.Parameter) {
			t.Fatalf("critical row %s missing from report", p.Parameter)
		}
	}
}

func sign(f float64) string {
	if f > 1 {
		return "+"
	}
	return "-"
}

func TestSensitivityStepValidation(t *testing.T) {
	m := caseStudyModel(100, 10, 0.05)
	if _, err := m.Sensitivity(-0.1); err == nil {
		t.Fatal("negative step accepted")
	}
	if _, err := m.Sensitivity(1.5); err == nil {
		t.Fatal("step >= 1 accepted")
	}
	// Zero defaults to 0.1 and succeeds.
	if _, err := m.Sensitivity(0); err != nil {
		t.Fatal(err)
	}
	// Invalid model propagates.
	if _, err := (&Model{}).Sensitivity(0.1); err == nil {
		t.Fatal("invalid model accepted")
	}
}

func TestCloneIsolation(t *testing.T) {
	m := caseStudyModel(100, 10, 0.05)
	c := m.clone()
	c.Services[0].ServingRates[CPU] = 1
	c.Services[0].ImpactFactors[CPU] = 0.5
	c.Services[0].ArrivalRate = 999
	if m.Services[0].ServingRates[CPU] == 1 ||
		m.Services[0].ImpactFactors[CPU] == 0.5 ||
		m.Services[0].ArrivalRate == 999 {
		t.Fatal("clone shares state with the original")
	}
}
