package experiments

import (
	"context"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/erlang"
	"repro/internal/queueing"
	"repro/internal/replicate"
	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// Table1Row is one row of the paper's Table I: dedicated servers M and the
// selected workloads/loss target in, consolidated servers N out, plus the
// comparison ratios the model derives.
type Table1Row struct {
	M       int
	LambdaW float64
	LambdaD float64
	B       float64
	N       int

	UtilizationImprovement float64
	PowerSaving            float64
	ServerSaving           float64
}

// Table1Result carries the case-study rows plus an extended sweep.
type Table1Result struct {
	Rows     []Table1Row // M = 6 and M = 8, the paper's rows
	Extended []Table1Row // additional M values (our extension)
}

// Table1 runs the utility analytic model for the paper's two case-study
// rows (M = 6 → N = 3, M = 8 → N = 4) and extends the sweep to larger data
// centers.
func Table1(cfg Config) (*Table1Result, error) {
	res := &Table1Result{}
	row := func(perService int) (Table1Row, error) {
		m, err := CaseStudyModel(perService, perService)
		if err != nil {
			return Table1Row{}, err
		}
		out, err := m.Solve()
		if err != nil {
			return Table1Row{}, err
		}
		return Table1Row{
			M:                      out.Dedicated.Servers,
			LambdaW:                m.Services[0].ArrivalRate,
			LambdaD:                m.Services[1].ArrivalRate,
			B:                      LossTarget,
			N:                      out.Consolidated.Servers,
			UtilizationImprovement: out.UtilizationImprovement,
			PowerSaving:            out.PowerSaving,
			ServerSaving:           1 - float64(out.Consolidated.Servers)/float64(out.Dedicated.Servers),
		}, nil
	}
	for _, perService := range []int{3, 4} {
		r, err := row(perService)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, r)
	}
	extended := []int{2, 6, 8, 12, 16}
	if cfg.Quick {
		extended = []int{2, 8}
	}
	for _, perService := range extended {
		r, err := row(perService)
		if err != nil {
			return nil, err
		}
		res.Extended = append(res.Extended, r)
	}
	return res, nil
}

// Tables renders Table I and the extension.
func (r *Table1Result) Tables() []*Table {
	t := &Table{
		ID:      "table1",
		Title:   "THE INPUTS AND OUTPUT TO UTILITY ANALYTIC MODEL",
		Columns: []string{"M", "lambda_w", "lambda_d", "B", "N", "util x", "power saved", "servers saved"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.M, row.LambdaW, row.LambdaD, row.B, row.N,
			row.UtilizationImprovement,
			fmt.Sprintf("%.1f%%", row.PowerSaving*100),
			fmt.Sprintf("%.1f%%", row.ServerSaving*100))
	}
	t.Notes = append(t.Notes,
		"paper: 6 dedicated -> 3 consolidated, 8 dedicated -> 4 consolidated (50% infrastructure saved)",
		"paper: model-side utilization improvement ~1.5x, measured 1.7x")
	ext := &Table{
		ID:      "table1x",
		Title:   "extended sweep (our addition): scale planning for larger pools",
		Columns: t.Columns,
	}
	for _, row := range r.Extended {
		ext.AddRow(row.M, row.LambdaW, row.LambdaD, row.B, row.N,
			row.UtilizationImprovement,
			fmt.Sprintf("%.1f%%", row.PowerSaving*100),
			fmt.Sprintf("%.1f%%", row.ServerSaving*100))
	}
	return []*Table{t, ext}
}

func runTable1(cfg Config) ([]*Table, error) {
	r, err := Table1(cfg)
	if err != nil {
		return nil, err
	}
	return r.Tables(), nil
}

// AppARow scores one allocation policy against the model's M = N bound.
type AppARow struct {
	Policy                string
	MeasuredImprovement   float64
	BoundImprovement      float64
	Score                 float64 // fraction of the optimal gain realized
	SimDedicatedLoss      float64
	SimConsolidatedLoss   float64
	ModelDedicatedLoss    float64
	ModelConsolidatedLoss float64
}

// AppAResult is the Section III-B.4 application (1) experiment.
type AppAResult struct {
	Servers int
	Rows    []AppARow
}

// AppA evaluates on-demand resource allocation algorithms the way Section
// III-B.4 prescribes: fix M = N, compute the model's optimal (1−B) ratio,
// then measure real allocators in the queueing laboratory and score them
// against the bound. The "allocators" are Erlang-style loss systems:
// dedicated = per-service partitions of the pool; consolidated = the full
// pool shared (ideal flowing); an intermediate static split models a
// consolidation without flowing. The five loss simulations fan out through
// the shared pool and memoize per operating point.
func AppA(cfg Config) (*AppAResult, error) {
	m, err := CaseStudyModel(3, 3)
	if err != nil {
		return nil, err
	}
	servers := 6
	bound, err := m.AllocatorBound(servers)
	if err != nil {
		return nil, err
	}

	horizon := cfg.scale(3000)
	warmup := horizon / 10

	// The Erlang laboratory: each "server" serves the consolidated stream
	// at the Eq. (4) rate; dedicated partitions serve their own streams.
	lambdaW := m.Services[0].ArrivalRate
	lambdaD := m.Services[1].ArrivalRate
	lambda := lambdaW + lambdaD

	// Consolidated with ideal flowing serves the merged stream at the
	// consolidated rate of Eq. (4) on the binding resource; the static
	// split keeps the partitions but virtualized (impact factors apply).
	muPrime := m.ConsolidatedServingRate(core.DiskIO, m.Form)
	if v := m.ConsolidatedServingRate(core.CPU, m.Form); v < muPrime {
		muPrime = v
	}
	aWI, _, aDC := caseStudyImpact()

	sims := []struct {
		n    int
		rate float64
		mu   float64
		seed uint64
	}{
		{3, lambdaW, workload.WebDiskRate, cfg.Seed + 1},       // dedicated web
		{3, lambdaD, workload.DBCPURate, cfg.Seed + 2},         // dedicated db
		{servers, lambda, muPrime, cfg.Seed + 3},               // ideal flowing
		{3, lambdaW, workload.WebDiskRate * aWI, cfg.Seed + 4}, // static web
		{3, lambdaD, workload.DBCPURate * aDC, cfg.Seed + 5},   // static db
	}
	losses := make([]float64, len(sims))
	e := cfg.engine().Scoped("appa")
	err = e.Go(context.Background(), len(sims), func(ctx context.Context, i int) error {
		j := sims[i]
		v, err := sweep.Cached(ctx, e,
			cacheKey("appa/loss-sim", j.n, j.rate, j.mu, horizon, warmup, j.seed),
			func(context.Context) (float64, error) {
				r, err := queueing.Simulate(queueing.Config{
					Servers:  j.n,
					Arrivals: workload.NewPoisson(j.rate),
					Service:  stats.NewExponential(j.mu),
					Horizon:  horizon,
					Warmup:   warmup,
					Seed:     j.seed,
				})
				if err != nil {
					return 0, err
				}
				return r.LossProb, nil
			})
		losses[i] = v
		return err
	})
	if err != nil {
		return nil, err
	}

	dedicatedLoss := (lambdaW*losses[0] + lambdaD*losses[1]) / lambda
	flowLoss := losses[2]
	staticLoss := (lambdaW*losses[3] + lambdaD*losses[4]) / lambda

	mkRow := func(name string, consLoss float64) AppARow {
		improvement := (1 - consLoss) / (1 - dedicatedLoss)
		score, _ := m.ScoreAllocator(servers, improvement)
		return AppARow{
			Policy:                name,
			MeasuredImprovement:   improvement,
			BoundImprovement:      bound.ThroughputImprovement,
			Score:                 score,
			SimDedicatedLoss:      dedicatedLoss,
			SimConsolidatedLoss:   consLoss,
			ModelDedicatedLoss:    bound.DedicatedLoss,
			ModelConsolidatedLoss: bound.ConsolidatedLoss,
		}
	}
	return &AppAResult{
		Servers: servers,
		Rows: []AppARow{
			mkRow("ideal-flowing", flowLoss),
			mkRow("static-partition", staticLoss),
		},
	}, nil
}

// Tables renders the allocator scoring.
func (r *AppAResult) Tables() []*Table {
	t := &Table{
		ID:    "appa",
		Title: fmt.Sprintf("allocator QoS bound at M = N = %d", r.Servers),
		Columns: []string{"policy", "measured (1-B) ratio", "model bound", "score",
			"sim B_ded", "sim B_cons", "model B_ded", "model B_cons"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Policy, row.MeasuredImprovement, row.BoundImprovement, row.Score,
			row.SimDedicatedLoss, row.SimConsolidatedLoss,
			row.ModelDedicatedLoss, row.ModelConsolidatedLoss)
	}
	t.Notes = append(t.Notes,
		"the closer an algorithm's (1-B) ratio to the bound, the better (Section III-B.4)")
	return []*Table{t}
}

func runAppA(cfg Config) ([]*Table, error) {
	r, err := AppA(cfg)
	if err != nil {
		return nil, err
	}
	return r.Tables(), nil
}

// AppBResult is application (2): the ideal-virtualization bound.
type AppBResult struct {
	Servers   int
	WithXen   core.Bound
	IdealVirt core.Bound
}

// AppB computes the M = N throughput bound twice: with the measured Xen
// impact factors and with a ≡ 1, separating the gain of consolidation
// itself from the loss to virtualization overhead.
func AppB(Config) (*AppBResult, error) {
	m, err := CaseStudyModel(4, 4)
	if err != nil {
		return nil, err
	}
	servers := 8
	withXen, err := m.AllocatorBound(servers)
	if err != nil {
		return nil, err
	}
	ideal, err := m.VirtualizationBound(servers)
	if err != nil {
		return nil, err
	}
	return &AppBResult{Servers: servers, WithXen: withXen, IdealVirt: ideal}, nil
}

// Tables renders the virtualization bound.
func (r *AppBResult) Tables() []*Table {
	t := &Table{
		ID:      "appb",
		Title:   fmt.Sprintf("ideal-virtualization bound at M = N = %d", r.Servers),
		Columns: []string{"virtualization", "B_dedicated", "B_consolidated", "(1-B) ratio"},
	}
	t.AddRow("measured Xen factors", r.WithXen.DedicatedLoss, r.WithXen.ConsolidatedLoss,
		r.WithXen.ThroughputImprovement)
	t.AddRow("ideal (a = 1)", r.IdealVirt.DedicatedLoss, r.IdealVirt.ConsolidatedLoss,
		r.IdealVirt.ThroughputImprovement)
	t.Notes = append(t.Notes,
		"the gap between rows is the QoS headroom better virtualization products could reclaim")
	return []*Table{t}
}

func runAppB(cfg Config) ([]*Table, error) {
	r, err := AppB(cfg)
	if err != nil {
		return nil, err
	}
	return r.Tables(), nil
}

// ModelValRow compares the model's loss prediction with simulation for one
// operating point.
type ModelValRow struct {
	Label     string
	Servers   int
	Traffic   float64
	Form      core.TrafficForm
	ModelLoss float64
	SimLoss   float64
	SimCI     stats.CI
	AbsErr    float64
}

// ModelValResult is the "simple but accurate enough" validation sweep.
type ModelValResult struct {
	Rows []ModelValRow
}

// lossStudy is the memoized outcome of one replication study: the loss CI
// in the JSON-safe interval form.
type lossStudy struct {
	Loss         sweep.Interval `json:"loss"`
	EarlyStopped bool           `json:"early_stopped,omitempty"`
}

// ci returns the study's 95% loss interval clamped to [0, 1]: a loss is a
// probability, but a Student-t interval over a few replications can reach
// past either end. The cache keeps the unclamped bounds.
func (s lossStudy) ci() stats.CI {
	ci := s.Loss.CI(0.95)
	ci.Lo = math.Max(ci.Lo, 0)
	ci.Hi = math.Min(ci.Hi, 1)
	return ci
}

// ModelVal validates the Erlang machinery and the Eq. (5) readings against
// discrete-event simulation: homogeneous pools (where every reading
// coincides and Erlang B is exact), and the heterogeneous case-study mix
// (where the readings diverge and the work-conserving harmonic form tracks
// the simulation). Each operating point is estimated by parallel
// independent replications with CI-driven early stopping — the noisiest
// sweep in the suite, and the one the replication engine pays off most on.
// The replications draw their concurrency from the shared pool and each
// study memoizes its loss interval.
func ModelVal(cfg Config) (*ModelValResult, error) {
	horizon := cfg.scale(6000)
	warmup := horizon / 10
	res := &ModelValResult{}
	reps := replicate.Config{
		Replications:    4,
		Precision:       0.05,
		MinReplications: 2,
	}
	if cfg.Quick {
		reps.Replications = 2
	}
	e := cfg.engine().Scoped("modelval")
	study := func(key string, c queueing.Config) (lossStudy, error) {
		return sweep.Cached(context.Background(), e, key,
			func(ctx context.Context) (lossStudy, error) {
				rcfg := reps
				rcfg.Pool = e.Pool()
				set, err := queueing.RunReplications(ctx, c, rcfg)
				if err != nil {
					return lossStudy{}, err
				}
				return lossStudy{
					Loss: sweep.Interval{
						Point: sweep.JFloat(set.LossCI.Point),
						Lo:    sweep.JFloat(set.LossCI.Lo),
						Hi:    sweep.JFloat(set.LossCI.Hi),
					},
					EarlyStopped: set.EarlyStopped,
				}, nil
			})
	}
	repsKey := func(parts ...any) []any {
		return append(parts, horizon, warmup, reps.Replications, reps.Precision, reps.MinReplications)
	}

	// Homogeneous sweeps: M/M/n/n and M/G/n/n vs Erlang B.
	homo := []struct {
		label string
		n     int
		rho   float64
		scv   float64
	}{
		{"M/M/3/3 rho=2", 3, 2, 1},
		{"M/D/4/4 rho=1.5", 4, 1.5, 0},
		{"M/H2/6/6 rho=5", 6, 5, 4},
	}
	for i, h := range homo {
		var svc stats.Distribution
		switch {
		case h.scv == 0:
			svc = stats.Deterministic{Value: 1}
		case h.scv == 1:
			svc = stats.NewExponential(1)
		default:
			svc = stats.HyperExpWithSCV(1, h.scv)
		}
		seed := cfg.Seed + uint64(i)
		st, err := study(
			cacheKey(repsKey("modelval/homo", h.n, h.rho, h.scv, seed)...),
			queueing.Config{
				Servers:  h.n,
				Arrivals: workload.NewPoisson(h.rho),
				Service:  svc,
				Horizon:  horizon,
				Warmup:   warmup,
				Seed:     seed,
			})
		if err != nil {
			return nil, err
		}
		ci := st.ci()
		want := erlang.MustB(h.n, h.rho)
		res.Rows = append(res.Rows, ModelValRow{
			Label:     h.label,
			Servers:   h.n,
			Traffic:   h.rho,
			ModelLoss: want,
			SimLoss:   ci.Point,
			SimCI:     ci,
			AbsErr:    abs(ci.Point - want),
		})
	}

	// Heterogeneous case-study mix: merged Web+DB stream on a shared pool,
	// per-request service rate depending on the class — the situation
	// where the three Eq. (5) readings differ.
	m, err := CaseStudyModel(4, 4)
	if err != nil {
		return nil, err
	}
	lambdaW := m.Services[0].ArrivalRate
	lambdaD := m.Services[1].ArrivalRate
	lambda := lambdaW + lambdaD
	aWI, aWC, aDC := caseStudyImpact()
	_ = aWC
	// Per-request demand on the shared pool (bottleneck view): a Web
	// request needs 1/(mu_wi*a_wi) server-seconds, a DB request
	// 1/(mu_dc*a_dc) — a two-class hyperexponential mix.
	mix := classMix{
		p1: lambdaW / lambda,
		m1: 1 / (workload.WebDiskRate * aWI),
		m2: 1 / (workload.DBCPURate * aDC),
	}
	for _, n := range []int{4, 6, 8, 10} {
		seed := cfg.Seed + uint64(n)*77
		st, err := study(
			cacheKey(repsKey("modelval/mix", n, lambda, mix.p1, mix.m1, mix.m2, seed)...),
			queueing.Config{
				Servers:  n,
				Arrivals: workload.NewPoisson(lambda),
				Service:  mix,
				Horizon:  horizon,
				Warmup:   warmup,
				Seed:     seed,
			})
		if err != nil {
			return nil, err
		}
		ci := st.ci()
		for _, form := range []core.TrafficForm{core.TrafficEq5Verbatim, core.TrafficEq5Restricted, core.TrafficHarmonic} {
			worst := 0.0
			rho := 0.0
			for _, j := range []core.Resource{core.CPU, core.DiskIO} {
				r := m.ConsolidatedTraffic(j, form)
				bl := erlang.MustB(n, r)
				if bl > worst {
					worst = bl
					rho = r
				}
			}
			res.Rows = append(res.Rows, ModelValRow{
				Label:     fmt.Sprintf("case-study mix n=%d (%s)", n, form),
				Servers:   n,
				Traffic:   rho,
				Form:      form,
				ModelLoss: worst,
				SimLoss:   ci.Point,
				SimCI:     ci,
				AbsErr:    abs(ci.Point - worst),
			})
		}
	}
	return res, nil
}

// classMix is a two-class exponential service mixture (Web/DB demand).
type classMix struct {
	p1, m1, m2 float64
}

func (c classMix) Sample(s *stats.Stream) float64 {
	if s.Bernoulli(c.p1) {
		return s.ExpFloat64() * c.m1
	}
	return s.ExpFloat64() * c.m2
}
func (c classMix) Mean() float64  { return c.p1*c.m1 + (1-c.p1)*c.m2 }
func (c classMix) String() string { return fmt.Sprintf("mix(p=%.3f,%g,%g)", c.p1, c.m1, c.m2) }

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// Tables renders the validation.
func (r *ModelValResult) Tables() []*Table {
	t := &Table{
		ID:      "modelval",
		Title:   "model vs simulation loss probability",
		Columns: []string{"config", "n", "rho", "model B", "sim B", "sim 95% CI", "|err|"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Label, row.Servers, row.Traffic, row.ModelLoss, row.SimLoss,
			fmt.Sprintf("[%.4f,%.4f]", row.SimCI.Lo, row.SimCI.Hi), row.AbsErr)
	}
	t.Notes = append(t.Notes,
		"homogeneous rows validate Erlang B (PASTA + insensitivity)",
		"heterogeneous rows show the harmonic reading tracking simulation while Eq. (5) readings underpredict")
	return []*Table{t}
}

func runModelVal(cfg Config) ([]*Table, error) {
	r, err := ModelVal(cfg)
	if err != nil {
		return nil, err
	}
	return r.Tables(), nil
}
