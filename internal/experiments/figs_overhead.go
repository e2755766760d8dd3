package experiments

import (
	"fmt"

	"repro/internal/scenario"
	"repro/internal/sweep"
	"repro/internal/virt"
	"repro/internal/workload"
)

// OverheadResult carries one Fig. 5/6/8-style measurement: throughput
// series per configuration (native plus 1..MaxVMs co-located VMs), derived
// impact factors, and the regression the paper fits.
type OverheadResult struct {
	ID          string
	Loads       []float64           // offered-load axis (req/s or EBs)
	LoadUnit    string              // "req/s" or "EBs"
	Native      []float64           // native-Linux throughput series
	PerVM       map[int][]float64   // v -> throughput series
	VMCounts    []int               // sorted keys of PerVM
	Impacts     map[int]float64     // v -> stable-mean impact factor
	FitLinear   *virt.LinearCurve   // for Fig. 5/6
	FitRational *virt.RationalCurve // for Fig. 8
	FitR2       float64
}

// overheadScenario is one point of the Fig. 5/6/8 grid: one physical
// server driven natively (vms = 0) or with v co-located VMs of the same
// service splitting the offered load.
func overheadScenario(profilePreset, overheadPreset string, horizon, warmup float64,
	vms int, load float64, closedLoop bool, replications int, seed uint64) scenario.Scenario {

	s := scenario.Scenario{
		Horizon:     horizon,
		Warmup:      &warmup,
		Seed:        seed,
		Replication: &scenario.Replication{Reps: replications},
	}
	if vms == 0 {
		svc := scenario.Service{
			Profile:          scenario.Profile{Preset: profilePreset},
			DedicatedServers: 1,
		}
		if closedLoop {
			svc.Clients = int(load)
		} else {
			svc.Arrivals = workload.PoissonSpec(load)
		}
		s.Mode = "dedicated"
		s.Services = []scenario.Service{svc}
		return s
	}
	svcs := make([]scenario.Service, vms)
	for i := range svcs {
		svcs[i] = scenario.Service{
			Profile:  scenario.Profile{Preset: profilePreset},
			Overhead: &scenario.Overhead{Preset: overheadPreset},
		}
		if closedLoop {
			svcs[i].Clients = int(load) / vms
			if i < int(load)%vms {
				svcs[i].Clients++
			}
			if svcs[i].Clients == 0 {
				svcs[i].Clients = 1
			}
		} else {
			svcs[i].Arrivals = workload.PoissonSpec(load / float64(vms))
		}
	}
	s.Mode = "consolidated"
	s.Services = svcs
	// The VM-count sweeps pack up to 9 VMs on one host; give it the memory
	// to hold them (the two-group case study stays on the default 8 GB
	// hosts).
	s.Fleet = scenario.Fleet{Hosts: 1, HostMemoryGB: float64(vms) + 2}
	return s
}

// overheadSweep declares the (VM count × offered load) grid underlying
// Figs. 5/6/8 and runs it as one sweep through the shared engine. Each
// point averages `replications` parallel independent replications (1 = a
// single run, bit-identical to the pre-engine sweep); point seeds follow
// the historical seed layout so cached artifacts survive the refactor.
func overheadSweep(cfg Config, id, profilePreset, overheadPreset string,
	loads []float64, closedLoop bool, maxVMs, replications int) (*OverheadResult, error) {

	horizon := cfg.scale(40)
	warmup := horizon / 5
	res := &OverheadResult{
		ID:       id,
		Loads:    loads,
		PerVM:    map[int][]float64{},
		Impacts:  map[int]float64{},
		LoadUnit: "req/s",
	}
	if closedLoop {
		res.LoadUnit = "EBs"
	}

	var pts []sweep.Point
	for v := 0; v <= maxVMs; v++ {
		for li, load := range loads {
			pts = append(pts, sweep.Point{
				Label: fmt.Sprintf("v=%d load=%g", v, load),
				Scenario: overheadScenario(profilePreset, overheadPreset,
					horizon, warmup, v, load, closedLoop, replications,
					cfg.Seed+uint64(v)*1000+uint64(li)),
			})
		}
	}
	out, err := cfg.runPoints(id, pts)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", id, err)
	}

	for v := 0; v <= maxVMs; v++ {
		series := make([]float64, len(loads))
		for li := range loads {
			series[li] = float64(out[v*len(loads)+li].TotalThroughput.Point)
		}
		if v == 0 {
			res.Native = series
		} else {
			res.PerVM[v] = series
			res.VMCounts = append(res.VMCounts, v)
		}
	}

	// Impact factors: stable-mean throughput ratio vs native (Fig. 5b).
	for _, v := range res.VMCounts {
		a, err := virt.StableMeanImpact(res.PerVM[v], res.Native, 0.15)
		if err != nil {
			return nil, fmt.Errorf("%s: impact v=%d: %w", id, v, err)
		}
		res.Impacts[v] = a
	}
	return res, nil
}

// fitCurves performs the paper's regressions on the measured impacts.
func (r *OverheadResult) fitCurves(rational bool) error {
	vms := make([]int, 0, len(r.Impacts))
	factors := make([]float64, 0, len(r.Impacts))
	for _, v := range r.VMCounts {
		vms = append(vms, v)
		factors = append(factors, r.Impacts[v])
	}
	if rational {
		fit, r2, err := virt.FitRational(vms, factors)
		if err != nil {
			return err
		}
		r.FitRational = &fit
		r.FitR2 = r2
		return nil
	}
	fit, r2, err := virt.FitLinear(vms, factors)
	if err != nil {
		return err
	}
	r.FitLinear = &fit
	r.FitR2 = r2
	return nil
}

// Tables renders the throughput sweep (part a) and the impact factors with
// the regression (part b).
func (r *OverheadResult) Tables() []*Table {
	a := &Table{
		ID:      r.ID + "a",
		Title:   "throughput vs offered load (native and v co-located VMs)",
		Columns: append([]string{"load(" + r.LoadUnit + ")", "native"}, vmCols(r.VMCounts)...),
	}
	for li, load := range r.Loads {
		cells := []any{load, r.Native[li]}
		for _, v := range r.VMCounts {
			cells = append(cells, r.PerVM[v][li])
		}
		a.AddRow(cells...)
	}
	b := &Table{
		ID:      r.ID + "b",
		Title:   "impact factor vs #VMs with regression",
		Columns: []string{"#VMs", "impact(measured)", "impact(fitted)"},
	}
	for _, v := range r.VMCounts {
		fitted := 0.0
		if r.FitLinear != nil {
			fitted = r.FitLinear.At(v)
		} else if r.FitRational != nil {
			fitted = r.FitRational.At(v)
		}
		b.AddRow(v, r.Impacts[v], fitted)
	}
	if r.FitLinear != nil {
		b.Notes = append(b.Notes, fmt.Sprintf("fit: %s (R2=%.4f)", r.FitLinear, r.FitR2))
	}
	if r.FitRational != nil {
		b.Notes = append(b.Notes, fmt.Sprintf("fit: %s (R2=%.4f)", r.FitRational, r.FitR2))
	}
	return []*Table{a, b}
}

func vmCols(vms []int) []string {
	out := make([]string, len(vms))
	for i, v := range vms {
		out[i] = fmt.Sprintf("%dVM", v)
	}
	return out
}

// sweepLoads builds an offered-load axis.
func sweepLoads(cfg Config, from, to, step float64) []float64 {
	if cfg.Quick {
		step *= 3
	}
	var out []float64
	for x := from; x <= to+1e-9; x += step {
		out = append(out, x)
	}
	return out
}

func maxVMsFor(cfg Config) int {
	if cfg.Quick {
		return 4
	}
	return 9
}

// Fig5 reproduces the disk-I/O-bound Web sweep: requests orderly access the
// 5.7 GB SPECweb2005 fileset; throughput degrades with VM count and the
// impact factor fits a declining line (a = 1.082 − 0.102·v reconstructed).
func Fig5(cfg Config) (*OverheadResult, error) {
	res, err := overheadSweep(cfg, "fig5", "specweb-ecommerce", "web",
		sweepLoads(cfg, 100, 1500, 100), false, maxVMsFor(cfg), 1)
	if err != nil {
		return nil, err
	}
	if err := res.fitCurves(false); err != nil {
		return nil, err
	}
	return res, nil
}

func runFig5(cfg Config) ([]*Table, error) {
	r, err := Fig5(cfg)
	if err != nil {
		return nil, err
	}
	return r.Tables(), nil
}

// Fig6 reproduces the CPU-bound Web sweep: every request fetches one
// cached 8 KB file; CPU is the bottleneck and the impact factor fits
// a = 0.658 − 0.0139·v.
func Fig6(cfg Config) (*OverheadResult, error) {
	res, err := overheadSweep(cfg, "fig6", "specweb-cpubound", "web",
		sweepLoads(cfg, 400, 4000, 400), false, maxVMsFor(cfg), 1)
	if err != nil {
		return nil, err
	}
	if err := res.fitCurves(false); err != nil {
		return nil, err
	}
	return res, nil
}

func runFig6(cfg Config) ([]*Table, error) {
	r, err := Fig6(cfg)
	if err != nil {
		return nil, err
	}
	return r.Tables(), nil
}

// Fig8 reproduces the TPC-W DB sweep: closed-loop emulated browsers over a
// 2.7 GB database. Native Linux and one VM sit at roughly half the
// multi-VM plateau (the OS-software ceiling), and the impact factor fits
// the saturating rational a = 1.85·v²/(1+v²). The rational fit is the
// noisiest regression in the suite, so each point averages two parallel
// replications.
func Fig8(cfg Config) (*OverheadResult, error) {
	res, err := overheadSweep(cfg, "fig8", "tpcw-ebook", "db",
		sweepLoads(cfg, 200, 2200, 200), true, maxVMsFor(cfg), 2)
	if err != nil {
		return nil, err
	}
	if err := res.fitCurves(true); err != nil {
		return nil, err
	}
	return res, nil
}

func runFig8(cfg Config) ([]*Table, error) {
	r, err := Fig8(cfg)
	if err != nil {
		return nil, err
	}
	return r.Tables(), nil
}

// Fig7Result compares vCPU pinning policies for the DB VM.
type Fig7Result struct {
	EBs      []float64
	Pinned   []float64
	Unpinned []float64
}

// Fig7 reproduces the vCPU allocation study: one DB VM on one host, vCPUs
// either pinned to physical cores or left to the Xen credit scheduler
// (which costs roughly a quarter of throughput — virt.UnpinnedPenalty).
// The two series share seeds point for point, so the comparison is paired.
func Fig7(cfg Config) (*Fig7Result, error) {
	horizon := cfg.scale(60)
	warmup := horizon / 5
	ebs := sweepLoads(cfg, 100, 1300, 100)
	res := &Fig7Result{EBs: ebs}

	var pts []sweep.Point
	for _, pinned := range []bool{true, false} {
		for li, eb := range ebs {
			overhead := &scenario.Overhead{Preset: "db"}
			if !pinned {
				overhead.Pinning = "xen-scheduled"
			}
			pts = append(pts, sweep.Point{
				Label: fmt.Sprintf("pinned=%t ebs=%g", pinned, eb),
				Scenario: scenario.Scenario{
					Mode: "consolidated",
					Services: []scenario.Service{{
						Profile:  scenario.Profile{Preset: "tpcw-ebook"},
						Overhead: overhead,
						Clients:  int(eb),
					}},
					Fleet:   scenario.Fleet{Hosts: 1},
					Horizon: horizon,
					Warmup:  &warmup,
					Seed:    cfg.Seed + uint64(li),
				},
			})
		}
	}
	out, err := cfg.runPoints("fig7", pts)
	if err != nil {
		return nil, err
	}
	for li := range ebs {
		res.Pinned = append(res.Pinned, float64(out[li].TotalThroughput.Point))
		res.Unpinned = append(res.Unpinned, float64(out[len(ebs)+li].TotalThroughput.Point))
	}
	return res, nil
}

// PlateauRatio reports the unpinned/pinned stable-mean throughput ratio —
// the Fig. 7 penalty.
func (r *Fig7Result) PlateauRatio() float64 {
	a, err := virt.StableMeanImpact(r.Unpinned, r.Pinned, 0.15)
	if err != nil {
		return 0
	}
	return a
}

// Tables renders the pinning comparison.
func (r *Fig7Result) Tables() []*Table {
	t := &Table{
		ID:      "fig7",
		Title:   "DB throughput: pinned vs Xen-scheduled vCPUs",
		Columns: []string{"EBs", "pinned(WIPS)", "xen-scheduled(WIPS)"},
	}
	for i, eb := range r.EBs {
		t.AddRow(eb, r.Pinned[i], r.Unpinned[i])
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"plateau ratio unpinned/pinned = %.3f (paper: pinning clearly improves DB throughput)",
		r.PlateauRatio()))
	return []*Table{t}
}

func runFig7(cfg Config) ([]*Table, error) {
	r, err := Fig7(cfg)
	if err != nil {
		return nil, err
	}
	return r.Tables(), nil
}
