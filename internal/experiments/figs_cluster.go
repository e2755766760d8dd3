package experiments

import (
	"fmt"

	"repro/internal/power"
	"repro/internal/scenario"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// SessionRate converts the paper's Fig. 9(b) x-axis (SPECweb2005 sessions)
// into request rate: each session issues this many requests per second
// (reconstructed; see DESIGN.md). Canonical value: the scenario presets.
const SessionRate = scenario.SessionRate

// Fig9Result is the workload-selection experiment on 4-server pools.
type Fig9Result struct {
	// DB part (Fig. 9a): WIPS vs emulated browsers with the upper limit.
	EBs       []float64
	WIPS      []float64
	WIPSLimit float64
	// Web part (Fig. 9b): mean response time vs sessions.
	Sessions []float64
	RespTime []float64
	// Selected operating points (the red circles).
	SelectedEBs      float64
	SelectedSessions float64
}

// Fig9 sweeps both services on dedicated 4-server pools to locate the
// intensive workloads: the knees where more load stops helping (DB WIPS
// saturates at the pool limit; Web response time turns upward). Both
// sweeps run as one point list through the shared engine; each point
// averages two replications — the knees are read off noisy curves, so the
// variance reduction matters here.
func Fig9(cfg Config) (*Fig9Result, error) {
	// Closed-loop emulated browsers think for 7 s between interactions, so
	// the horizon must dominate the think time even in Quick mode.
	horizon := cfg.scale(240)
	warmup := horizon / 4
	res := &Fig9Result{WIPSLimit: 4 * workload.DBCPURate}

	point := func(label string, svc scenario.Service, seed uint64) sweep.Point {
		return sweep.Point{
			Label: label,
			Scenario: scenario.Scenario{
				Mode:        "dedicated",
				Services:    []scenario.Service{svc},
				Horizon:     horizon,
				Warmup:      &warmup,
				Seed:        seed,
				Replication: &scenario.Replication{Reps: 2},
			},
		}
	}

	ebs := sweepLoads(cfg, 500, 5000, 500)
	sessions := sweepLoads(cfg, 400, 3200, 400)
	var pts []sweep.Point
	for _, eb := range ebs {
		pts = append(pts, point(fmt.Sprintf("db ebs=%g", eb),
			scenario.DBClosedSpec(int(eb), 4), cfg.Seed+uint64(eb)))
	}
	for _, n := range sessions {
		// Drive the Web pool with real SPECweb-style sessions: trains of
		// ~10 requests separated by half-second think gaps, at a session
		// arrival rate that offers sessions*SessionRate requests/s overall.
		pts = append(pts, point(fmt.Sprintf("web sessions=%g", n),
			scenario.WebSessionsSpec(n, 4), cfg.Seed+uint64(n)*3))
	}
	out, err := cfg.runPoints("fig9", pts)
	if err != nil {
		return nil, err
	}
	for i, eb := range ebs {
		res.EBs = append(res.EBs, eb)
		res.WIPS = append(res.WIPS, float64(out[i].TotalThroughput.Point))
	}
	for i, n := range sessions {
		res.Sessions = append(res.Sessions, n)
		res.RespTime = append(res.RespTime, float64(out[len(ebs)+i].Services[0].RespMean.Point))
	}

	// The selection rule: the knee sits at scenario.SaturationIntensity of
	// pool capacity.
	lambdaW, lambdaD := scenario.SaturationRates(4, 4)
	res.SelectedSessions = lambdaW / SessionRate
	res.SelectedEBs = lambdaD * 7 // Little's law with 7 s think time
	return res, nil
}

// Tables renders both panels.
func (r *Fig9Result) Tables() []*Table {
	a := &Table{
		ID:      "fig9a",
		Title:   "DB service on 4 servers: WIPS vs EBs (with wips upper limit)",
		Columns: []string{"EBs", "WIPS", "wips upper limit"},
	}
	for i := range r.EBs {
		a.AddRow(r.EBs[i], r.WIPS[i], r.WIPSLimit)
	}
	a.Notes = append(a.Notes,
		fmt.Sprintf("selected intensive workload: %.0f EBs (red circle)", r.SelectedEBs))
	b := &Table{
		ID:      "fig9b",
		Title:   "Web service on 4 servers: avg response time vs sessions",
		Columns: []string{"sessions", "avg resp time (s)"},
	}
	for i := range r.Sessions {
		b.AddRow(r.Sessions[i], r.RespTime[i])
	}
	b.Notes = append(b.Notes,
		fmt.Sprintf("selected intensive workload: %.0f sessions (red circle)", r.SelectedSessions))
	return []*Table{a, b}
}

func runFig9(cfg Config) ([]*Table, error) {
	r, err := Fig9(cfg)
	if err != nil {
		return nil, err
	}
	return r.Tables(), nil
}

// DeploymentRow summarizes one deployment bar of Fig. 10/11.
type DeploymentRow struct {
	Label      string
	Servers    int
	DBWips     float64
	WebResp    float64
	DBLoss     float64
	WebLoss    float64
	CPUUtil    float64 // mean CPU utilization across hosts
	DiskUtil   float64
	Bottleneck float64
	Point      *sweep.PointResult
}

// GroupResult carries one case-study group comparison.
type GroupResult struct {
	ID   string
	Rows []DeploymentRow
	// CPUImprovement is consolidated/dedicated mean CPU utilization for
	// the group's headline deployment (Fig. 11's 1.7x claim).
	CPUImprovement float64
}

// runGroup simulates the dedicated deployment (webServers+dbServers) and
// each consolidated size in consSizes, at the group's saturation
// workloads — one declarative point list over the CaseStudy preset.
func runGroup(cfg Config, id string, webServers, dbServers int, consSizes []int) (*GroupResult, error) {
	horizon := cfg.scale(120)
	warmup := horizon / 6

	point := func(label, mode string, consolidated int, seed uint64) sweep.Point {
		s := scenario.CaseStudy(webServers, dbServers, mode, consolidated)
		s.Horizon = horizon
		s.Warmup = &warmup
		s.Seed = seed
		return sweep.Point{Label: label, Scenario: s}
	}

	dedLabel := fmt.Sprintf("%d dedicated", webServers+dbServers)
	pts := []sweep.Point{point(dedLabel, "dedicated", 0, cfg.Seed+1)}
	labels := []string{dedLabel}
	servers := []int{webServers + dbServers}
	for i, n := range consSizes {
		label := fmt.Sprintf("%d consolidated", n)
		pts = append(pts, point(label, "consolidated", n, cfg.Seed+10+uint64(i)))
		labels = append(labels, label)
		servers = append(servers, n)
	}
	out, err := cfg.runPoints(id, pts)
	if err != nil {
		return nil, err
	}

	res := &GroupResult{ID: id}
	for i := range out {
		pr := &out[i]
		res.Rows = append(res.Rows, DeploymentRow{
			Label:      labels[i],
			Servers:    servers[i],
			DBWips:     float64(pr.Services[1].Throughput.Point),
			WebResp:    float64(pr.Services[0].RespMean.Point),
			DBLoss:     float64(pr.Services[1].Loss.Point),
			WebLoss:    float64(pr.Services[0].Loss.Point),
			CPUUtil:    float64(pr.Utilization[workload.CPU]),
			DiskUtil:   float64(pr.Utilization[workload.DiskIO]),
			Bottleneck: float64(pr.BottleneckUtil.Point),
			Point:      pr,
		})
	}

	// Headline CPU improvement: last consolidated row vs dedicated.
	last := res.Rows[len(res.Rows)-1]
	if res.Rows[0].CPUUtil > 0 {
		res.CPUImprovement = last.CPUUtil / res.Rows[0].CPUUtil
	}
	return res, nil
}

// Tables renders the group bars.
func (r *GroupResult) Tables() []*Table {
	t := &Table{
		ID:    r.ID,
		Title: "dedicated vs consolidated deployments at the case-study workloads",
		Columns: []string{"deployment", "servers", "DB WIPS", "web resp (s)",
			"DB loss", "web loss", "cpu util", "disk util"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Label, row.Servers, row.DBWips, row.WebResp,
			row.DBLoss, row.WebLoss, row.CPUUtil, row.DiskUtil)
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"CPU utilization improvement (consolidated vs dedicated): %.2fx (paper: 1.7x measured, 1.5x model)",
		r.CPUImprovement))
	return []*Table{t}
}

// Fig10 is group 1: 6 dedicated servers (3 Web + 3 DB) against 2, 3 and 4
// consolidated servers. The 2-server deployment overloads — the paper's
// missing bar ("the failure of this experiment because of too many
// workloads for servers to afford") — and 3 consolidated servers match the
// dedicated performance.
func Fig10(cfg Config) (*GroupResult, error) {
	return runGroup(cfg, "fig10", 3, 3, []int{2, 3, 4})
}

func runFig10(cfg Config) ([]*Table, error) {
	r, err := Fig10(cfg)
	if err != nil {
		return nil, err
	}
	return r.Tables(), nil
}

// Fig11 is group 2: 8 dedicated servers (4 + 4) against 4 consolidated
// servers, with the 1.7x CPU utilization improvement.
func Fig11(cfg Config) (*GroupResult, error) {
	return runGroup(cfg, "fig11", 4, 4, []int{4})
}

func runFig11(cfg Config) ([]*Table, error) {
	r, err := Fig11(cfg)
	if err != nil {
		return nil, err
	}
	return r.Tables(), nil
}

// PowerResult carries the Fig. 12/13 power comparison of group 2.
type PowerResult struct {
	// Energies in joules over the observation window.
	DedicatedBusy    float64
	DedicatedIdle    float64
	ConsolidatedBusy float64
	ConsolidatedIdle float64
	Window           float64

	TotalSaving    float64 // Fig. 12 headline (busy deployments)
	IdleSaving     float64
	WorkloadSaving float64 // Fig. 13 headline (busy minus idle)
}

// Fig12 measures total power of the group-2 deployments — 8 dedicated
// Linux servers vs 4 consolidated Xen servers — busy and idle, through the
// simulated electric parameter tester. The energies come straight off the
// sweep points: each point's compiled power model is the testbed server on
// the platform its mode implies (native Linux dedicated, Xen Rainbow
// consolidated).
func Fig12(cfg Config) (*PowerResult, error) {
	group, err := Fig11(cfg)
	if err != nil {
		return nil, err
	}
	ded := group.Rows[0].Point
	cons := group.Rows[len(group.Rows)-1].Point

	res := &PowerResult{Window: ded.Window}
	res.DedicatedBusy = float64(ded.EnergyBusyJ)
	res.DedicatedIdle = float64(ded.EnergyIdleJ)
	res.ConsolidatedBusy = float64(cons.EnergyBusyJ)
	res.ConsolidatedIdle = float64(cons.EnergyIdleJ)

	cmp := power.Comparison{
		DedicatedTotal:    res.DedicatedBusy,
		ConsolidatedTotal: res.ConsolidatedBusy,
		DedicatedIdle:     res.DedicatedIdle,
		ConsolidatedIdle:  res.ConsolidatedIdle,
	}
	res.TotalSaving = cmp.TotalSaving()
	res.IdleSaving = cmp.IdleSaving()
	res.WorkloadSaving = cmp.WorkloadSaving()
	return res, nil
}

// Tables renders the Fig. 12 bars (total power, busy and idle).
func (r *PowerResult) Tables() []*Table {
	t := &Table{
		ID:      "fig12",
		Title:   "total power: 8 dedicated (Linux) vs 4 consolidated (Xen)",
		Columns: []string{"deployment", "busy (W)", "idle (W)", "busy/idle"},
	}
	w := r.Window
	t.AddRow("8 dedicated", r.DedicatedBusy/w, r.DedicatedIdle/w,
		r.DedicatedBusy/r.DedicatedIdle)
	t.AddRow("4 consolidated", r.ConsolidatedBusy/w, r.ConsolidatedIdle/w,
		r.ConsolidatedBusy/r.ConsolidatedIdle)
	t.Notes = append(t.Notes,
		fmt.Sprintf("total power saving: %.1f%% (paper: up to 53%%)", r.TotalSaving*100),
		"busy servers draw only a few percent more than idle ones (paper: up to 7%)")
	return []*Table{t}
}

func runFig12(cfg Config) ([]*Table, error) {
	r, err := Fig12(cfg)
	if err != nil {
		return nil, err
	}
	return r.Tables(), nil
}

// Fig13 isolates the power consumed by the workloads themselves (total
// minus idle), reproducing the paper's 30 % Xen active-energy saving.
func Fig13(cfg Config) (*PowerResult, error) {
	return Fig12(cfg)
}

// Fig13Tables renders the workload-only view.
func (r *PowerResult) Fig13Tables() []*Table {
	t := &Table{
		ID:      "fig13",
		Title:   "power consumed by workloads (total minus idle)",
		Columns: []string{"deployment", "workload power (W)"},
	}
	w := r.Window
	t.AddRow("8 dedicated", (r.DedicatedBusy-r.DedicatedIdle)/w)
	t.AddRow("4 consolidated", (r.ConsolidatedBusy-r.ConsolidatedIdle)/w)
	t.Notes = append(t.Notes,
		fmt.Sprintf("workload power saving: %.1f%% (paper: ~30%% from the Xen platform alone)", r.WorkloadSaving*100),
		fmt.Sprintf("idle power saving: %.1f%% (server count halves; idle Xen draws 9%% less)", r.IdleSaving*100))
	return []*Table{t}
}

func runFig13(cfg Config) ([]*Table, error) {
	r, err := Fig13(cfg)
	if err != nil {
		return nil, err
	}
	return r.Fig13Tables(), nil
}
