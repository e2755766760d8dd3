package experiments

// Extension experiments beyond the paper's artifacts: the heterogeneous-
// server planning the paper names as future work, and ablations of the
// modelling choices DESIGN.md calls out (the Eq. 5 reading, service-time
// variability, arrival burstiness, and the resource-flowing granularity).

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/erlang"
	"repro/internal/plan"
	"repro/internal/queueing"
	"repro/internal/scenario"
	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// HeteroRow is one fleet configuration of the heterogeneous-planning
// experiment: the planner's placement, its analytic score, and the
// simulated per-service losses of the same placement.
type HeteroRow struct {
	Fleet      string
	Objective  string
	Machines   int
	Units      float64
	Watts      float64
	ModelLoss  float64
	SimDBLoss  float64
	SimWebLoss float64
}

// HeteroResult is the future-work experiment: the group-2 case study
// planned onto heterogeneous fleets (the paper's AMD-vs-Intel Discussion
// observation: Intel machines run the case-study workloads ~20 % slower).
type HeteroResult struct {
	Homogeneous *core.Result
	Rows        []HeteroRow
}

// heteroSupply is the per-class host supply of the hetero fleets (the
// mixed fleet's AMD class aside): twice the homogeneous N, ample for
// every objective.
const heteroSupply = 8

// Hetero places the group-2 consolidated workload on three finite class
// supplies — all-AMD (reference), all-Intel (0.83× capability, cheaper
// power envelope), and a mixed fleet with only two AMD machines — under
// both planner objectives. The planner (plan.Search over eval.Analytic)
// scores the analytic model's own workload, CaseStudyModel(4, 4)'s
// arrival rates; each chosen placement is then re-simulated at the
// saturation workloads, one point batch on the sweep engine.
func Hetero(cfg Config) (*HeteroResult, error) {
	m, err := CaseStudyModel(4, 4)
	if err != nil {
		return nil, err
	}
	res, err := m.Solve()
	if err != nil {
		return nil, err
	}
	base := scenario.CaseStudy(4, 4, "consolidated", 0)
	base.Seed = cfg.Seed
	for i := range base.Services {
		base.Services[i].Arrivals = workload.PoissonSpec(m.Services[i].ArrivalRate)
	}

	amd := func(n int) scenario.HostClass {
		return scenario.HostClass{Name: "amd-2350", Preset: "amd", Count: n}
	}
	intel := func(n int) scenario.HostClass {
		return scenario.HostClass{Name: "intel-5140", Preset: "intel", Count: n,
			Power: &scenario.Power{BaseW: 230, MaxW: 310}}
	}
	fleets := []struct {
		name    string
		classes []scenario.HostClass
	}{
		{"all-amd", []scenario.HostClass{amd(heteroSupply)}},
		{"all-intel", []scenario.HostClass{intel(heteroSupply)}},
		{"mixed-2amd", []scenario.HostClass{amd(2), intel(heteroSupply)}},
	}

	horizon := cfg.scale(120)
	warmup := horizon / 6
	var cases []placement
	for _, fleet := range fleets {
		for _, objective := range []string{plan.MinServers, plan.MinPower} {
			planned := base.Clone()
			planned.Fleet.Classes = fleet.classes
			validate := scenario.CaseStudy(4, 4, "consolidated", 0)
			validate.Fleet.Classes = fleet.classes
			validate.Horizon = horizon
			validate.Warmup = &warmup
			validate.Seed = cfg.Seed + uint64(len(cases))
			cases = append(cases, placement{fleet.name, objective, planned, validate})
		}
	}
	plans, sims, err := placeAndSimulate(cfg, "hetero", cases)
	if err != nil {
		return nil, err
	}
	out := &HeteroResult{Homogeneous: res}
	for i, c := range cases {
		p := plans[i]
		out.Rows = append(out.Rows, HeteroRow{
			Fleet:      c.fleet,
			Objective:  c.objective,
			Machines:   p.Hosts,
			Units:      p.Result.CapabilityUnits,
			Watts:      p.Result.Watts,
			ModelLoss:  p.Result.Loss,
			SimWebLoss: sims[i].Services[0].Loss,
			SimDBLoss:  sims[i].Services[1].Loss,
		})
	}
	return out, nil
}

// Tables renders the heterogeneous planning.
func (r *HeteroResult) Tables() []*Table {
	t := &Table{
		ID:    "hetero",
		Title: "heterogeneous fleets for the group-2 consolidated pool (future work of Section V)",
		Columns: []string{"fleet", "objective", "machines", "capability units",
			"watts", "model B", "sim web loss", "sim db loss"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Fleet, row.Objective, row.Machines, row.Units,
			row.Watts, row.ModelLoss, row.SimWebLoss, row.SimDBLoss)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("homogeneous model: N = %d reference servers", r.Homogeneous.Consolidated.Servers),
		"capability normalization per the paper's Section III-B.1 sketch; Intel = AMD/1.2 per its Discussion",
		fmt.Sprintf("placed by the planner (internal/plan) from %d hosts per class, 2 AMD in the mixed fleet", heteroSupply))
	return []*Table{t}
}

func runHetero(cfg Config) ([]*Table, error) {
	r, err := Hetero(cfg)
	if err != nil {
		return nil, err
	}
	return r.Tables(), nil
}

// FormAblationRow compares the three Eq. (5) readings for one service mix.
type FormAblationRow struct {
	Mix  string
	B    float64
	M    int
	NPer map[core.TrafficForm]int
}

// FormAblation sizes the consolidated pool under all three readings of
// Eq. (5) across service mixes of increasing heterogeneity — the
// quantitative version of the DESIGN.md §2 discussion of the paper's
// internally inconsistent formula.
func FormAblation(cfg Config) ([]FormAblationRow, error) {
	mixes := []struct {
		name     string
		services []core.Service
	}{
		{"homogeneous (2x web)", []core.Service{
			WebService(1), renameService(WebService(1), "web2"),
		}},
		{"case study (web+db)", []core.Service{WebService(1), DBService(1)}},
		{"extreme (web + 10x-slow db)", []core.Service{
			WebService(1),
			func() core.Service {
				s := DBService(1)
				s.ServingRates[core.CPU] = 10
				return s
			}(),
		}},
	}
	var rows []FormAblationRow
	for _, mix := range mixes {
		for _, b := range []float64{0.01, 0.05} {
			base := &core.Model{Services: mix.services, LossTarget: b}
			m, err := base.WithIntensiveWorkloads([]int{4, 4})
			if err != nil {
				return nil, err
			}
			row := FormAblationRow{Mix: mix.name, B: b, NPer: map[core.TrafficForm]int{}}
			ded, err := m.DedicatedPlan()
			if err != nil {
				return nil, err
			}
			row.M = ded.Servers
			for _, form := range []core.TrafficForm{
				core.TrafficEq5Verbatim, core.TrafficEq5Restricted, core.TrafficHarmonic,
			} {
				m.Form = form
				cons, err := m.ConsolidatedPlan()
				if err != nil {
					return nil, err
				}
				row.NPer[form] = cons.Servers
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

func renameService(s core.Service, name string) core.Service {
	s.Name = name
	return s
}

func runFormAblation(cfg Config) ([]*Table, error) {
	rows, err := FormAblation(cfg)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "ablation-form",
		Title:   "consolidated sizing N under the three Eq. (5) readings",
		Columns: []string{"service mix", "B", "M", "N(eq5-verbatim)", "N(eq5-restricted)", "N(harmonic)"},
	}
	for _, r := range rows {
		t.AddRow(r.Mix, r.B, r.M,
			r.NPer[core.TrafficEq5Verbatim],
			r.NPer[core.TrafficEq5Restricted],
			r.NPer[core.TrafficHarmonic])
	}
	t.Notes = append(t.Notes,
		"all readings coincide for homogeneous mixes; they diverge with service heterogeneity",
		"harmonic is the work-conserving (conservative) reading; verbatim erases minority-class work")
	return []*Table{t}, nil
}

// SCVAblationRow is one service-time-variability point.
type SCVAblationRow struct {
	SCV     float64
	SimLoss float64
	ErlangB float64
	AbsErr  float64
}

// SCVAblation probes the Erlang insensitivity the model's assumption 2
// leans on: M/G/n/n loss across service-time SCVs from deterministic to
// extremely bursty. The five sims run concurrently on the shared pool,
// memoized per (scv, horizon, seed).
func SCVAblation(cfg Config) ([]SCVAblationRow, error) {
	const n, rho = 4, 2.5
	want := erlang.MustB(n, rho)
	horizon := cfg.scale(8000)
	scvs := []float64{0, 0.25, 1, 4, 16}
	rows := make([]SCVAblationRow, len(scvs))
	e := cfg.engine().Scoped("ablation-scv")
	err := e.Go(context.Background(), len(scvs), func(ctx context.Context, i int) error {
		scv := scvs[i]
		seed := cfg.Seed + uint64(i)
		loss, err := sweep.Cached(ctx, e,
			cacheKey("ablation-scv/mgnn", n, rho, scv, horizon, seed),
			func(context.Context) (float64, error) {
				var svc stats.Distribution
				switch {
				case scv == 0:
					svc = stats.Deterministic{Value: 1}
				case scv < 1:
					svc = stats.ErlangKWithMean(1, int(1/scv+0.5))
				case scv == 1:
					svc = stats.NewExponential(1)
				default:
					svc = stats.HyperExpWithSCV(1, scv)
				}
				sim, err := queueing.Simulate(queueing.Config{
					Servers:  n,
					Arrivals: workload.NewPoisson(rho),
					Service:  svc,
					Horizon:  horizon,
					Warmup:   horizon / 10,
					Seed:     seed,
				})
				if err != nil {
					return 0, err
				}
				return sim.LossProb, nil
			})
		if err != nil {
			return err
		}
		rows[i] = SCVAblationRow{
			SCV:     scv,
			SimLoss: loss,
			ErlangB: want,
			AbsErr:  abs(loss - want),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

func runSCVAblation(cfg Config) ([]*Table, error) {
	rows, err := SCVAblation(cfg)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "ablation-scv",
		Title:   "Erlang insensitivity: M/G/4/4 loss at rho=2.5 across service-time SCV",
		Columns: []string{"service SCV", "sim B", "Erlang B", "|err|"},
	}
	for _, r := range rows {
		t.AddRow(r.SCV, r.SimLoss, r.ErlangB, r.AbsErr)
	}
	t.Notes = append(t.Notes,
		"the loss probability is insensitive to the service-time distribution beyond its mean — ",
		"the theorem behind the model's 'general steady distribution' assumption")
	return []*Table{t}, nil
}

// BurstAblationRow is one arrival-burstiness point.
type BurstAblationRow struct {
	Burstiness float64 // peak-to-mean rate ratio of the MMPP
	SimLoss    float64
	ErlangB    float64
	Ratio      float64 // sim/erlang
}

// BurstAblation quantifies the model's exposure to its Poisson assumption:
// MMPP arrivals with growing burstiness at a fixed mean rate, against the
// Erlang B value the model would predict. Concurrent and memoized like the
// SCV ablation.
func BurstAblation(cfg Config) ([]BurstAblationRow, error) {
	const n = 4
	meanRate := 2.5
	want := erlang.MustB(n, meanRate)
	horizon := cfg.scale(8000)
	bursts := []float64{1, 2, 4, 8}
	rows := make([]BurstAblationRow, len(bursts))
	e := cfg.engine().Scoped("ablation-burst")
	err := e.Go(context.Background(), len(bursts), func(ctx context.Context, i int) error {
		burst := bursts[i]
		seed := cfg.Seed + 100 + uint64(i)
		loss, err := sweep.Cached(ctx, e,
			cacheKey("ablation-burst/mmpp", n, meanRate, burst, horizon, seed),
			func(context.Context) (float64, error) {
				var arr workload.ArrivalProcess
				if burst == 1 {
					arr = workload.NewPoisson(meanRate)
				} else {
					// Two phases with rate ratio burst², holding times chosen so
					// the stationary mean stays meanRate and the hot phase carries
					// `burst` times the mean.
					hot := meanRate * burst
					cold := meanRate * (2 - burst)
					if cold < 0.05*meanRate {
						cold = 0.05 * meanRate
					}
					// Solve holding weights for the exact mean.
					// mean = (hot*h1 + cold*h2)/(h1+h2) with h2 = 1:
					// h1 = (mean - cold) / (hot - mean).
					h1 := (meanRate - cold) / (hot - meanRate)
					arr = workload.NewMMPP2(hot, cold, h1*2, 2)
				}
				sim, err := queueing.Simulate(queueing.Config{
					Servers:  n,
					Arrivals: arr,
					Service:  stats.NewExponential(1),
					Horizon:  horizon,
					Warmup:   horizon / 10,
					Seed:     seed,
				})
				if err != nil {
					return 0, err
				}
				return sim.LossProb, nil
			})
		if err != nil {
			return err
		}
		rows[i] = BurstAblationRow{
			Burstiness: burst,
			SimLoss:    loss,
			ErlangB:    want,
			Ratio:      loss / want,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

func runBurstAblation(cfg Config) ([]*Table, error) {
	rows, err := BurstAblation(cfg)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "ablation-burst",
		Title:   "Poisson-assumption sensitivity: MMPP/M/4/4 loss vs burstiness at fixed mean rate",
		Columns: []string{"peak/mean rate", "sim B", "Erlang B", "sim/model"},
	}
	for _, r := range rows {
		t.AddRow(r.Burstiness, r.SimLoss, r.ErlangB, r.Ratio)
	}
	t.Notes = append(t.Notes,
		"burstier-than-Poisson arrivals (Paxson & Floyd [11]) make the model optimistic —",
		"sizing from Erlang B under-provisions for correlated traffic")
	return []*Table{t}, nil
}

// AllocAblationRow is one resource-flowing-granularity point.
type AllocAblationRow struct {
	Policy    string
	Goodput   float64
	WebLoss   float64
	DBLoss    float64
	WebRespMS float64
}

// AllocAblation sweeps the Rainbow reallocation period and cost on the
// group-1 consolidated pool: how fine-grained must resource flowing be for
// the model's assumption 4 ("servers serve on demand") to hold? One
// declarative point per policy.
func AllocAblation(cfg Config) ([]AllocAblationRow, error) {
	horizon := cfg.scale(120)
	warmup := horizon / 6
	lambdaW, lambdaD := scenario.SaturationRates(3, 3)
	proportional := func(period, cost float64) *scenario.Alloc {
		return &scenario.Alloc{Policy: "proportional", Period: period, MinShare: 0.05, Cost: cost}
	}
	policies := []struct {
		name  string
		alloc *scenario.Alloc
	}{
		{"ideal-flowing", nil},
		{"proportional T=0.1s", proportional(0.1, 0.01)},
		{"proportional T=1s", proportional(1, 0.01)},
		{"proportional T=10s", proportional(10, 0.01)},
		{"proportional T=1s cost=10%", proportional(1, 0.10)},
		{"static", &scenario.Alloc{Policy: "static"}},
	}
	pts := make([]sweep.Point, len(policies))
	for i, p := range policies {
		pts[i] = sweep.Point{
			Label: p.name,
			Scenario: scenario.Scenario{
				Mode: "consolidated",
				Services: []scenario.Service{
					scenario.WebSpec(lambdaW, 0),
					scenario.DBSpec(lambdaD, 0),
				},
				Fleet:   scenario.Fleet{Hosts: 3},
				Alloc:   p.alloc,
				Horizon: horizon,
				Warmup:  &warmup,
				Seed:    cfg.Seed + uint64(i),
			},
		}
	}
	out, err := cfg.runPoints("ablation-alloc", pts)
	if err != nil {
		return nil, err
	}
	rows := make([]AllocAblationRow, len(policies))
	for i, p := range policies {
		pr := out[i]
		served := pr.Services[0].Served + pr.Services[1].Served
		arrived := pr.Services[0].Arrivals + pr.Services[1].Arrivals
		goodput := 0.0
		if arrived > 0 {
			goodput = served / arrived
		}
		rows[i] = AllocAblationRow{
			Policy:    p.name,
			Goodput:   goodput,
			WebLoss:   float64(pr.Services[0].Loss.Point),
			DBLoss:    float64(pr.Services[1].Loss.Point),
			WebRespMS: float64(pr.Services[0].RespMean.Point) * 1000,
		}
	}
	return rows, nil
}

func runAllocAblation(cfg Config) ([]*Table, error) {
	rows, err := AllocAblation(cfg)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "ablation-alloc",
		Title:   "resource-flowing granularity on the group-1 pool (3 hosts at saturation)",
		Columns: []string{"policy", "goodput", "web loss", "db loss", "web resp (ms)"},
	}
	for _, r := range rows {
		t.AddRow(r.Policy, r.Goodput, r.WebLoss, r.DBLoss, r.WebRespMS)
	}
	t.Notes = append(t.Notes,
		"the model's assumption 4 is the ideal-flowing row; coarser reallocation degrades toward static")
	return []*Table{t}, nil
}
