package experiments

import (
	"strings"
	"testing"

	"repro/internal/core"
)

// quickCfg runs experiments in the reduced mode used by CI-style tests.
func quickCfg() Config { return Config{Seed: 42, Quick: true} }

func TestTableRendering(t *testing.T) {
	tab := &Table{
		ID:      "x",
		Title:   "demo",
		Columns: []string{"a", "bee"},
	}
	tab.AddRow(1, 2.5)
	tab.AddRow("str", int64(7))
	tab.AddRow(12345.6, 0.00001)
	tab.Notes = append(tab.Notes, "hello")
	s := tab.String()
	for _, want := range []string{"demo", "a", "bee", "str", "hello", "12346"} {
		if !strings.Contains(s, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, s)
		}
	}
}

func TestRegistry(t *testing.T) {
	all := All()
	if len(all) != 22 {
		t.Fatalf("registry has %d experiments", len(all))
	}
	seen := map[string]bool{}
	for _, e := range all {
		if e.ID == "" || e.Title == "" || e.Run == nil {
			t.Fatalf("incomplete experiment %+v", e)
		}
		if seen[e.ID] {
			t.Fatalf("duplicate id %s", e.ID)
		}
		seen[e.ID] = true
	}
	if _, ok := Lookup("table1"); !ok {
		t.Fatal("lookup table1 failed")
	}
	if _, ok := Lookup("nope"); ok {
		t.Fatal("phantom experiment found")
	}
}

func TestFig2Headroom(t *testing.T) {
	r, err := Fig2(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if r.Headroom.PeakOfSum >= r.Headroom.SumOfPeaks {
		t.Fatal("no consolidation headroom")
	}
	if r.Headroom.ServersConsolidated >= r.Headroom.ServersDedicated {
		t.Fatalf("servers %d -> %d", r.Headroom.ServersDedicated, r.Headroom.ServersConsolidated)
	}
	if r.Line99 <= 0 || r.Line99 > r.Sum.Peak() {
		t.Fatalf("capacity line %g", r.Line99)
	}
	if len(r.Tables()) != 2 {
		t.Fatal("fig2 table count")
	}
}

func TestTable1PaperRows(t *testing.T) {
	r, err := Table1(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	if r.Rows[0].M != 6 || r.Rows[0].N != 3 {
		t.Fatalf("row 1: M=%d N=%d, want 6->3", r.Rows[0].M, r.Rows[0].N)
	}
	if r.Rows[1].M != 8 || r.Rows[1].N != 4 {
		t.Fatalf("row 2: M=%d N=%d, want 8->4", r.Rows[1].M, r.Rows[1].N)
	}
	// Headline claims.
	if r.Rows[1].UtilizationImprovement < 1.3 || r.Rows[1].UtilizationImprovement > 1.7 {
		t.Fatalf("utilization improvement %.2f", r.Rows[1].UtilizationImprovement)
	}
	if r.Rows[1].PowerSaving < 0.35 || r.Rows[1].PowerSaving > 0.60 {
		t.Fatalf("power saving %.2f", r.Rows[1].PowerSaving)
	}
	if r.Rows[0].ServerSaving != 0.5 || r.Rows[1].ServerSaving != 0.5 {
		t.Fatal("server saving should be 50% in both rows")
	}
	// Extended sweep keeps saving at or above ~40 %.
	for _, row := range r.Extended {
		if row.N > row.M {
			t.Fatalf("extended row M=%d N=%d", row.M, row.N)
		}
	}
}

func TestFig5Shape(t *testing.T) {
	r, err := Fig5(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if r.FitLinear == nil {
		t.Fatal("no linear fit")
	}
	// Impact factor declines with VM count.
	if r.FitLinear.Slope >= 0 {
		t.Fatalf("slope %.4f should be negative", r.FitLinear.Slope)
	}
	// First VM is near-native (intercept+slope ~0.98).
	if a1 := r.Impacts[r.VMCounts[0]]; a1 < 0.85 || a1 > 1.1 {
		t.Fatalf("impact at v=1 is %.3f", a1)
	}
	// Throughput at 4 VMs is clearly below native at saturation.
	last := len(r.Loads) - 1
	vMax := r.VMCounts[len(r.VMCounts)-1]
	if r.PerVM[vMax][last] >= r.Native[last] {
		t.Fatalf("v=%d throughput %.0f >= native %.0f at saturation",
			vMax, r.PerVM[vMax][last], r.Native[last])
	}
	if len(r.Tables()) != 2 {
		t.Fatal("table count")
	}
}

func TestFig6Shape(t *testing.T) {
	r, err := Fig6(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if r.FitLinear == nil || r.FitLinear.Slope >= 0 {
		t.Fatal("CPU impact should decline")
	}
	// Fig. 6: virtualized CPU performance is much worse than native —
	// impact well below 1 even at v=1 (~0.64).
	if a1 := r.Impacts[1]; a1 > 0.80 {
		t.Fatalf("CPU impact at v=1 = %.3f, want well below 1", a1)
	}
}

func TestFig7PinningPenalty(t *testing.T) {
	r, err := Fig7(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	ratio := r.PlateauRatio()
	if ratio < 0.65 || ratio > 0.85 {
		t.Fatalf("unpinned/pinned plateau ratio %.3f, want ~0.75", ratio)
	}
	if len(r.Tables()) != 1 {
		t.Fatal("table count")
	}
}

func TestFig8OSCeiling(t *testing.T) {
	r, err := Fig8(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if r.FitRational == nil {
		t.Fatal("no rational fit")
	}
	// Native and 1 VM deliver roughly half of the multi-VM plateau.
	a1 := r.Impacts[1]
	if a1 < 0.8 || a1 > 1.05 {
		t.Fatalf("v=1 impact %.3f, want ~0.92", a1)
	}
	aMax := r.Impacts[r.VMCounts[len(r.VMCounts)-1]]
	if aMax < 1.3 {
		t.Fatalf("multi-VM impact %.3f, want > 1.3 (Fig. 8's doubling)", aMax)
	}
	// The fitted coefficient approximates the reconstructed 1.85.
	if r.FitRational.C < 1.5 || r.FitRational.C > 2.2 {
		t.Fatalf("fitted C = %.3f", r.FitRational.C)
	}
}

func TestFig9Knees(t *testing.T) {
	r, err := Fig9(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	// DB WIPS saturates at (roughly) the pool limit.
	maxWIPS := 0.0
	for _, w := range r.WIPS {
		if w > maxWIPS {
			maxWIPS = w
		}
	}
	if maxWIPS > r.WIPSLimit*1.05 {
		t.Fatalf("WIPS %.1f exceeded the limit %.1f", maxWIPS, r.WIPSLimit)
	}
	if maxWIPS < r.WIPSLimit*0.85 {
		t.Fatalf("WIPS never approached the limit: %.1f vs %.1f", maxWIPS, r.WIPSLimit)
	}
	// Web response time grows with sessions.
	first, last := r.RespTime[0], r.RespTime[len(r.RespTime)-1]
	if last <= first {
		t.Fatalf("response time flat: %.5f .. %.5f", first, last)
	}
	// Selected operating points sit inside the sweep.
	if r.SelectedEBs <= r.EBs[0] || r.SelectedSessions <= r.Sessions[0] {
		t.Fatal("selected workloads out of range")
	}
}

func TestFig10GroupOne(t *testing.T) {
	r, err := Fig10(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	ded, c2, c3, c4 := r.Rows[0], r.Rows[1], r.Rows[2], r.Rows[3]
	// 2 consolidated hosts collapse the DB service.
	if c2.DBWips > 0.8*ded.DBWips {
		t.Fatalf("2-host DB WIPS %.1f vs dedicated %.1f — no collapse", c2.DBWips, ded.DBWips)
	}
	// 3 consolidated hosts match dedicated within 10 %.
	if rel := relErr(c3.DBWips, ded.DBWips); rel > 0.10 {
		t.Fatalf("3-host DB WIPS %.1f vs dedicated %.1f", c3.DBWips, ded.DBWips)
	}
	if c3.WebLoss > ded.WebLoss+0.10 {
		t.Fatalf("3-host web loss %.3f vs dedicated %.3f", c3.WebLoss, ded.WebLoss)
	}
	// 4 consolidated hosts also fine.
	if rel := relErr(c4.DBWips, ded.DBWips); rel > 0.10 {
		t.Fatalf("4-host DB WIPS %.1f vs dedicated %.1f", c4.DBWips, ded.DBWips)
	}
}

func TestFig11GroupTwo(t *testing.T) {
	r, err := Fig11(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	ded, cons := r.Rows[0], r.Rows[1]
	if rel := relErr(cons.DBWips, ded.DBWips); rel > 0.10 {
		t.Fatalf("consolidated DB WIPS %.1f vs dedicated %.1f", cons.DBWips, ded.DBWips)
	}
	// CPU utilization improvement in the paper's neighbourhood (1.5–2.2x
	// across our reconstruction; paper measured 1.7x).
	if r.CPUImprovement < 1.4 || r.CPUImprovement > 2.3 {
		t.Fatalf("CPU improvement %.2fx", r.CPUImprovement)
	}
}

func TestFig12And13Power(t *testing.T) {
	r, err := Fig12(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	// Paper: up to 53 % total power saving; our reconstruction lands
	// nearby.
	if r.TotalSaving < 0.45 || r.TotalSaving > 0.62 {
		t.Fatalf("total saving %.3f", r.TotalSaving)
	}
	// Idle Xen platform saves (halved servers x 0.91).
	if r.IdleSaving < 0.50 || r.IdleSaving > 0.60 {
		t.Fatalf("idle saving %.3f", r.IdleSaving)
	}
	// Workload-only (Fig. 13): positive, dominated by the Xen 30 % active
	// factor.
	if r.WorkloadSaving < 0.10 {
		t.Fatalf("workload saving %.3f", r.WorkloadSaving)
	}
	if len(r.Tables()) != 1 || len(r.Fig13Tables()) != 1 {
		t.Fatal("table counts")
	}
}

func TestAppAScores(t *testing.T) {
	r, err := AppA(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	var flowing, static *AppARow
	for i := range r.Rows {
		switch r.Rows[i].Policy {
		case "ideal-flowing":
			flowing = &r.Rows[i]
		case "static-partition":
			static = &r.Rows[i]
		}
	}
	if flowing == nil || static == nil {
		t.Fatal("rows missing")
	}
	// Ideal flowing approaches the bound; static stays below it.
	if flowing.Score < 0.7 {
		t.Fatalf("ideal flowing scored %.3f against its own bound", flowing.Score)
	}
	if static.Score >= flowing.Score {
		t.Fatalf("static %.3f >= flowing %.3f", static.Score, flowing.Score)
	}
	if flowing.MeasuredImprovement <= 1 {
		t.Fatalf("flowing improvement %.4f <= 1", flowing.MeasuredImprovement)
	}
}

func TestAppBVirtualizationGap(t *testing.T) {
	r, err := AppB(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if r.IdealVirt.ThroughputImprovement < r.WithXen.ThroughputImprovement-1e-9 {
		t.Fatal("ideal virtualization should dominate")
	}
	if r.IdealVirt.ConsolidatedLoss > r.WithXen.ConsolidatedLoss+1e-12 {
		t.Fatal("ideal virtualization should lose fewer requests")
	}
}

func TestModelValAccuracy(t *testing.T) {
	r, err := ModelVal(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	var homoErr float64
	homoCount := 0
	harmBetter := 0
	harmTotal := 0
	for _, row := range r.Rows {
		// A loss interval is an interval of probabilities.
		if ci := row.SimCI; !(0 <= ci.Lo && ci.Lo <= ci.Hi && ci.Hi <= 1) {
			t.Errorf("%s: loss CI [%g, %g] is not inside [0, 1]", row.Label, ci.Lo, ci.Hi)
		}
		if strings.HasPrefix(row.Label, "case-study") {
			continue
		}
		homoErr += row.AbsErr
		homoCount++
	}
	if homoCount == 0 {
		t.Fatal("no homogeneous rows")
	}
	if avg := homoErr / float64(homoCount); avg > 0.02 {
		t.Fatalf("homogeneous mean |err| %.4f — Erlang machinery off", avg)
	}
	// In heterogeneous rows, the harmonic reading should beat Eq. (5)
	// verbatim for the same n.
	byN := map[int]map[core.TrafficForm]float64{}
	for _, row := range r.Rows {
		if !strings.HasPrefix(row.Label, "case-study") {
			continue
		}
		if byN[row.Servers] == nil {
			byN[row.Servers] = map[core.TrafficForm]float64{}
		}
		byN[row.Servers][row.Form] = row.AbsErr
	}
	for _, errs := range byN {
		harmTotal++
		if errs[core.TrafficHarmonic] <= errs[core.TrafficEq5Verbatim] {
			harmBetter++
		}
	}
	if harmBetter*2 < harmTotal {
		t.Fatalf("harmonic beat eq5 in only %d/%d heterogeneous points", harmBetter, harmTotal)
	}
}

func TestRunnersProduceTables(t *testing.T) {
	// Smoke-run the whole registry through the cmd/repro entry points,
	// skipping the heavyweight sweeps already covered above.
	skip := map[string]bool{"fig5": true, "fig6": true, "fig7": true, "fig8": true,
		"fig9": true, "fig10": true, "fig11": true, "fig12": true, "fig13": true,
		"appa": true, "modelval": true}
	for _, e := range All() {
		if skip[e.ID] {
			continue
		}
		tables, err := e.Run(quickCfg())
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		if len(tables) == 0 {
			t.Fatalf("%s produced no tables", e.ID)
		}
		for _, tab := range tables {
			if len(tab.Rows) == 0 {
				t.Fatalf("%s table %s is empty", e.ID, tab.ID)
			}
			if tab.String() == "" {
				t.Fatalf("%s table %s renders empty", e.ID, tab.ID)
			}
		}
	}
}

func relErr(got, want float64) float64 {
	if want == 0 {
		if got == 0 {
			return 0
		}
		return 1
	}
	d := got - want
	if d < 0 {
		d = -d
	}
	return d / want
}

func TestTableMarkdown(t *testing.T) {
	tab := &Table{
		ID:      "demo",
		Title:   "demo title",
		Columns: []string{"x", "y"},
	}
	tab.AddRow(1, 2)
	tab.Notes = append(tab.Notes, "a note")
	md := tab.Markdown()
	for _, want := range []string{"### demo", "| x | y |", "|---|---|", "| 1 | 2 |", "*a note*"} {
		if !strings.Contains(md, want) {
			t.Fatalf("markdown missing %q:\n%s", want, md)
		}
	}
	// Short rows pad instead of panicking.
	tab.Rows = append(tab.Rows, []string{"only"})
	if !strings.Contains(tab.Markdown(), "| only |  |") {
		t.Fatal("short row not padded")
	}
}
