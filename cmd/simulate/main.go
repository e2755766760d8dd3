// Command simulate runs the data-center simulator on a declarative
// scenario and prints per-service QoS, per-host utilization and power —
// the direct way to try "what if I consolidate my 4+4 pools onto 3 hosts?"
//
// The flags below are sugar for building the case-study scenario; the same
// pipeline accepts arbitrary scenarios as JSON (see examples/scenarios/):
//
//	simulate -mode dedicated -web-servers 4 -db-servers 4
//	simulate -mode consolidated -hosts 4 -alloc proportional -period 0.5 -cost 0.02
//	simulate -mode consolidated -hosts 3 -mtbf 300 -mttr 30   (failure injection)
//	simulate -reps 32 -precision 0.05 -workers 4 -timeout 2m  (CI-driven early stop)
//	simulate -scenario examples/scenarios/casestudy.json
//	simulate -preset fig9-db-closed
//	simulate -dump-scenario | simulate -scenario -             (identical run)
//	simulate -sweep examples/scenarios/sweep-hosts.json        (parameter grid)
//
// Every run resolves to one scenario.Scenario — dump it with
// -dump-scenario, feed it back with -scenario, find it embedded in the run
// manifest.
//
// -sweep runs a whole parameter grid instead of one scenario: the spec
// names a base scenario plus axes (parameter path → value list), each grid
// point gets a seed derived from (base seed, point index), all points share
// one -workers-sized pool, and completed points are memoized in the -cache
// directory so a rerun is free.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/pool"
	"repro/internal/profiling"
	"repro/internal/scenario"
	"repro/internal/sweep"
	"repro/internal/workload"
)

func main() {
	mode := flag.String("mode", "consolidated", "dedicated or consolidated")
	hosts := flag.Int("hosts", 4, "consolidated pool size")
	webServers := flag.Int("web-servers", 4, "dedicated Web pool size (also sizes the offered load)")
	dbServers := flag.Int("db-servers", 4, "dedicated DB pool size (also sizes the offered load)")
	intensity := flag.Float64("intensity", scenario.SaturationIntensity, "offered load as a fraction of dedicated capacity")
	webRate := flag.Float64("web-rate", 0, "override Web arrival rate (req/s)")
	dbRate := flag.Float64("db-rate", 0, "override DB arrival rate (WIPS)")
	alloc := flag.String("alloc", "flowing", "flowing, static, proportional or priority")
	period := flag.Float64("period", 1, "reallocation period for proportional/priority (s)")
	cost := flag.Float64("cost", 0.01, "reallocation overhead fraction")
	horizon := flag.Float64("horizon", 120, "simulated seconds")
	seed := flag.Uint64("seed", 42, "random seed")
	mtbf := flag.Float64("mtbf", 0, "mean time between host failures (s, 0 = off)")
	mttr := flag.Float64("mttr", 0, "mean time to repair (s)")
	classes := flag.String("classes", "", `heterogeneous consolidated fleet, e.g. "amd:2,intel:3" `+
		`(amd = reference; intel = 1/1.2 capability; blade = 1/2). Overrides -hosts.`)
	reps := flag.Int("reps", 1, "independent replications (seed, seed+1, ...); >1 reports confidence intervals")
	workers := flag.Int("workers", 0, "parallel replication workers (0 = all CPUs); never changes results")
	shards := flag.Int("shards", 0, "parallel shards within one run, capped at the scenario's coupling components (0 = unsharded); never changes results")
	precision := flag.Float64("precision", 0, "stop replicating once the 95% CI of pooled loss is relatively this tight (0 = off)")
	timeout := flag.Duration("timeout", 0, "wall-clock budget for the replication study (0 = none)")
	scenarioFile := flag.String("scenario", "", `run a scenario JSON file ("-" = stdin) instead of the flag-built case study`)
	sweepFile := flag.String("sweep", "", `run a sweep spec JSON file ("-" = stdin): a base scenario plus parameter axes`)
	cacheDir := flag.String("cache", "artifacts/cache", "content-addressed sweep result cache directory; empty disables caching")
	preset := flag.String("preset", "", "run a registered scenario preset: "+strings.Join(scenario.Names(), ", "))
	dumpScenario := flag.Bool("dump-scenario", false, "print the resolved scenario as JSON and exit without running")
	quick := flag.Bool("quick", false, "CI smoke mode: shrink the horizon 8x and cap replications at 2")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	manifest := flag.String("manifest", "run_manifest.json", "write a run manifest (config, seed, git rev, timings, metrics) to this file; empty disables")
	traceFile := flag.String("trace", "", "write a JSONL scheduler event trace to this file")
	traceSample := flag.Int("trace-sample", 1, "record every Nth scheduler operation in the trace")
	flag.Parse()

	die := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "simulate: "+format+"\n", args...)
		os.Exit(1)
	}

	if *workers < 0 {
		die("-workers must be >= 0 (0 selects GOMAXPROCS), got %d", *workers)
	}
	if *shards < 0 {
		die("-shards must be >= 0 (0 disables sharding), got %d", *shards)
	}

	explicit := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	if err := checkFlagConflicts(explicit, *mode, *mtbf, *mttr, *reps, *scenarioFile, *preset, *sweepFile); err != nil {
		die("%v", err)
	}

	if *sweepFile != "" {
		runSweep(*sweepFile, *workers, *cacheDir, *quick, *manifest, die)
		return
	}

	var s scenario.Scenario
	var err error
	switch {
	case *scenarioFile != "":
		s, err = loadScenario(*scenarioFile)
	case *preset != "":
		s, err = scenario.Preset(*preset)
	default:
		s, err = flagScenario(flagValues{
			mode: *mode, hosts: *hosts, webServers: *webServers, dbServers: *dbServers,
			intensity: *intensity, webRate: *webRate, dbRate: *dbRate,
			alloc: *alloc, period: *period, cost: *cost,
			horizon: *horizon, seed: *seed, mtbf: *mtbf, mttr: *mttr,
			classes: *classes, reps: *reps, workers: *workers,
			shards: *shards, precision: *precision, timeout: *timeout,
		})
	}
	if err != nil {
		die("%v", err)
	}

	if *quick {
		quicken(&s)
	}
	if err := s.Validate(); err != nil {
		die("%v", err)
	}
	s.ApplyDefaults()

	if *dumpScenario {
		if err := s.Encode(os.Stdout); err != nil {
			die("%v", err)
		}
		return
	}

	c, err := s.Compile()
	if err != nil {
		die("%v", err)
	}
	cfg := c.Cluster

	man := obs.NewManifest("simulate", cfg.Seed)
	man.Config = s

	stopProfiles, err := profiling.Start(*cpuprofile, *memprofile)
	if err != nil {
		die("%v", err)
	}
	defer stopProfiles()

	var tracer *obs.TraceWriter
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			die("%v", err)
		}
		tracer = obs.NewTraceWriter(f, *traceSample)
		cfg.Tracer = tracer
		defer func() {
			if err := tracer.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "simulate: closing trace: %v\n", err)
			}
		}()
	}

	writeManifest := func(metrics obs.Snapshot) {
		if *manifest == "" {
			return
		}
		if err := man.Finish(metrics).WriteFile(*manifest); err != nil {
			die("writing manifest: %v", err)
		}
		fmt.Printf("\nrun manifest written to %s\n", *manifest)
	}

	fmt.Print(offeredLoadLine(s))

	if c.Replication.Replications > 1 {
		// Replication study: R parallel independent runs with seeds seed,
		// seed+1, ..., merged in replication order (identical results for
		// any -workers value), optionally stopped early once the pooled
		// loss CI is tight enough.
		ctx := context.Background()
		if c.Timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, c.Timeout)
			defer cancel()
		}
		engReg := obs.NewRegistry()
		rcfg := c.Replication
		rcfg.Obs = engReg
		set, err := cluster.Replications(ctx, cfg, rcfg)
		if errors.Is(err, context.DeadlineExceeded) && set != nil && len(set.Results) > 0 {
			fmt.Printf("timeout after %d/%d replications; reporting the completed prefix\n\n",
				len(set.Results), c.Replication.Replications)
		} else if err != nil {
			die("%v", err)
		}
		fmt.Println(set)
		totalFailures := int64(0)
		for _, r := range set.Results {
			totalFailures += r.Failures
		}
		if totalFailures > 0 {
			fmt.Printf("host failures injected: %d across %d replications\n",
				totalFailures, len(set.Results))
		}
		// The manifest pools the per-replication engine snapshots with the
		// replication engine's own metrics (wall times, worker occupancy).
		writeManifest(set.Obs.Merge(engReg.Snapshot()))
		return
	}

	res, err := cluster.Run(cfg)
	if err != nil {
		die("%v", err)
	}
	fmt.Println(res)
	fmt.Println()
	for _, h := range res.Hosts {
		fmt.Printf("host %d:", h.ID)
		for _, r := range []string{workload.CPU, workload.DiskIO} {
			fmt.Printf("  %s=%.3f", r, h.Utilization[r])
		}
		fmt.Println()
	}
	total, idle := res.Energy(c.Power, c.Platform)
	fmt.Printf("\npower (%s platform): mean %.0f W total, %.0f W idle floor, %.0f W workload\n",
		c.Platform, total/res.Window, idle/res.Window, (total-idle)/res.Window)
	if res.Failures > 0 {
		fmt.Printf("host failures injected: %d\n", res.Failures)
	}
	writeManifest(res.Obs)
}

// shapingFlags are the flags that describe the scenario itself; they
// conflict with -scenario and -preset, which carry a complete description.
var shapingFlags = []string{
	"mode", "hosts", "web-servers", "db-servers", "intensity", "web-rate",
	"db-rate", "alloc", "period", "cost", "horizon", "seed", "mtbf", "mttr",
	"classes", "reps", "workers", "shards", "precision", "timeout",
}

// checkFlagConflicts rejects contradictory combinations up front, before
// any defaulting can paper over them.
func checkFlagConflicts(explicit map[string]bool, mode string, mtbf, mttr float64, reps int, scenarioFile, preset, sweepFile string) error {
	if sweepFile != "" {
		for _, name := range []string{"scenario", "preset", "dump-scenario"} {
			if explicit[name] {
				return fmt.Errorf("-%s conflicts with -sweep: a sweep spec is not a single scenario", name)
			}
		}
		for _, name := range shapingFlags {
			if name == "workers" {
				continue // -workers sizes the shared pool; it never shapes results
			}
			if explicit[name] {
				return fmt.Errorf("-%s conflicts with -sweep: the spec's base scenario carries the full description (edit the JSON instead)", name)
			}
		}
		return nil
	}
	if scenarioFile != "" && preset != "" {
		return errors.New("-scenario and -preset are mutually exclusive")
	}
	if scenarioFile != "" || preset != "" {
		src := "-scenario"
		if preset != "" {
			src = "-preset"
		}
		for _, name := range shapingFlags {
			if explicit[name] {
				return fmt.Errorf("-%s conflicts with %s: the scenario carries the full description (edit the JSON instead)", name, src)
			}
		}
		return nil
	}
	if mode == "dedicated" {
		for _, name := range []string{"hosts", "classes", "alloc", "period", "cost"} {
			if explicit[name] {
				return fmt.Errorf("-%s is a consolidated-mode flag, conflicting with -mode dedicated", name)
			}
		}
	}
	if explicit["classes"] && explicit["hosts"] {
		return errors.New("-classes sizes the pool by itself, conflicting with -hosts")
	}
	if (mtbf > 0) != (mttr > 0) {
		return errors.New("-mtbf and -mttr must be set together (both positive) to enable failure injection")
	}
	if explicit["precision"] && reps <= 1 {
		return errors.New("-precision needs -reps > 1: early stopping compares replications")
	}
	return nil
}

// flagValues carries the flag-built case-study shape into flagScenario.
type flagValues struct {
	mode                  string
	hosts                 int
	webServers, dbServers int
	intensity             float64
	webRate, dbRate       float64
	alloc                 string
	period, cost          float64
	horizon               float64
	seed                  uint64
	mtbf, mttr            float64
	classes               string
	reps, workers         int
	shards                int
	precision             float64
	timeout               time.Duration
}

// flagScenario lowers the case-study flags to a Scenario — the same
// pipeline a JSON file takes, so -dump-scenario round-trips exactly.
func flagScenario(v flagValues) (scenario.Scenario, error) {
	if v.mode != "dedicated" && v.mode != "consolidated" {
		return scenario.Scenario{}, fmt.Errorf("unknown mode %q", v.mode)
	}
	lambdaW := v.intensity * float64(v.webServers) * workload.WebDiskRate
	lambdaD := v.intensity * float64(v.dbServers) * workload.DBCPURate
	if v.webRate > 0 {
		lambdaW = v.webRate
	}
	if v.dbRate > 0 {
		lambdaD = v.dbRate
	}

	s := scenario.Scenario{
		Name: "simulate-flags",
		Mode: v.mode,
		Services: []scenario.Service{
			scenario.WebSpec(lambdaW, v.webServers),
			scenario.DBSpec(lambdaD, v.dbServers),
		},
		Horizon: v.horizon,
		Seed:    v.seed,
	}
	if v.mode == "consolidated" {
		s.Fleet.Hosts = v.hosts
		if v.classes != "" {
			hcs, err := parseClasses(v.classes)
			if err != nil {
				return scenario.Scenario{}, err
			}
			s.Fleet.Classes = hcs
			s.Fleet.Hosts = 0
		}
	}
	switch v.alloc {
	case "flowing":
		// nil Alloc = ideal on-demand resource flowing.
	case "static":
		s.Alloc = &scenario.Alloc{Policy: "static"}
	case "proportional":
		s.Alloc = &scenario.Alloc{Policy: "proportional", Period: v.period, MinShare: 0.05, Cost: v.cost}
	case "priority":
		s.Alloc = &scenario.Alloc{Policy: "priority", Period: v.period, Cost: v.cost}
	default:
		return scenario.Scenario{}, fmt.Errorf("unknown allocator %q", v.alloc)
	}
	if v.mtbf > 0 {
		s.Failures = &scenario.Failures{MTBF: v.mtbf, MTTR: v.mttr}
	}
	if v.reps > 1 || v.workers > 0 || v.shards > 0 || v.precision > 0 || v.timeout > 0 {
		s.Replication = &scenario.Replication{
			Reps:       v.reps,
			Workers:    v.workers,
			Shards:     v.shards,
			Precision:  v.precision,
			TimeoutSec: v.timeout.Seconds(),
		}
	}
	return s, nil
}

// runSweep executes a sweep spec: expand the grid, run every point on one
// shared pool with the content-addressed cache, print a per-point summary
// table and write the manifest.
func runSweep(path string, workers int, cacheDir string, quick bool, manifestPath string, die func(string, ...any)) {
	var r io.Reader = os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			die("%v", err)
		}
		defer f.Close()
		r = f
	}
	sp, err := sweep.ParseSpec(r)
	if err != nil {
		die("%v", err)
	}
	if quick {
		quicken(&sp.Base)
	}
	pts, err := sp.Expand()
	if err != nil {
		die("%v", err)
	}

	p, err := pool.New(workers)
	if err != nil {
		die("-workers: %v", err)
	}
	var cache *sweep.Cache
	if cacheDir != "" {
		cache, err = sweep.OpenCache(cacheDir)
		if err != nil {
			die("-cache: %v", err)
		}
	}
	reg := obs.NewRegistry()
	p.Observe(reg)
	eng := sweep.NewEngine(p, cache, reg)

	man := obs.NewManifest("simulate", sp.Base.Seed)
	man.Config = sp

	name := sp.Name
	if name == "" {
		name = path
	}
	fmt.Printf("sweep %s: %d points across %d axes, pool of %d\n\n", name, len(pts), len(sp.Axes), p.Size())

	start := time.Now()
	results, err := eng.RunPoints(context.Background(), pts)
	if err != nil {
		die("%v", err)
	}

	labelW := 0
	for _, pr := range results {
		if len(pr.Label) > labelW {
			labelW = len(pr.Label)
		}
	}
	hits := 0
	for _, pr := range results {
		mark := ""
		if pr.CacheHit {
			mark = "  (cached)"
			hits++
		}
		fmt.Printf("[%3d] %-*s  loss=%.4f  thpt=%.1f  util=%.3f  reps=%d%s\n",
			pr.Index, labelW, pr.Label,
			float64(pr.OverallLoss.Point), float64(pr.TotalThroughput.Point),
			float64(pr.BottleneckUtil.Point), pr.Replications, mark)
	}
	fmt.Printf("\n%d/%d points from cache, %.1fs\n", hits, len(results), time.Since(start).Seconds())

	if manifestPath != "" {
		if err := man.Finish(reg.Snapshot()).WriteFile(manifestPath); err != nil {
			die("writing manifest: %v", err)
		}
		fmt.Printf("run manifest written to %s\n", manifestPath)
	}
}

// loadScenario reads one scenario from a file or stdin ("-").
func loadScenario(path string) (scenario.Scenario, error) {
	var r io.Reader = os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return scenario.Scenario{}, err
		}
		defer f.Close()
		r = f
	}
	return scenario.Parse(r)
}

// quicken shrinks a scenario for CI smoke runs: horizon (and any explicit
// warmup) divide by 8, replications cap at 2 and early stopping turns off.
func quicken(s *scenario.Scenario) {
	if s.Horizon == 0 {
		s.Horizon = 120
	}
	s.Horizon /= 8
	if s.Warmup != nil {
		w := *s.Warmup / 8
		s.Warmup = &w
	}
	if s.Replication != nil && s.Replication.Reps > 2 {
		s.Replication.Reps = 2
	}
	if s.Replication != nil {
		s.Replication.Precision = 0
	}
}

// offeredLoadLine summarizes the offered load of open-loop services and
// the populations of closed-loop ones.
func offeredLoadLine(s scenario.Scenario) string {
	var b strings.Builder
	b.WriteString("offered load:")
	for i, svc := range s.Services {
		if i > 0 {
			b.WriteString(",")
		}
		name := svc.Name
		if name == "" {
			name = svc.Profile.Preset
		}
		if name == "" {
			name = svc.Profile.Name
		}
		if svc.Arrivals != nil {
			if p, err := svc.Arrivals.Build(); err == nil {
				fmt.Fprintf(&b, " %s %.0f req/s", name, p.Rate())
				continue
			}
		}
		fmt.Fprintf(&b, " %s %d clients", name, svc.Clients)
	}
	b.WriteString("\n\n")
	return b.String()
}

// parseClasses parses "name:count,name:count" into host-class specs using
// the scenario presets (amd = 1, intel = 1/1.2, blade = 0.5).
func parseClasses(spec string) ([]scenario.HostClass, error) {
	var out []scenario.HostClass
	for _, part := range strings.Split(spec, ",") {
		name, countStr, ok := strings.Cut(strings.TrimSpace(part), ":")
		if !ok {
			return nil, fmt.Errorf("class %q: want name:count", part)
		}
		count, err := strconv.Atoi(countStr)
		if err != nil || count <= 0 {
			return nil, fmt.Errorf("class %q: bad count %q", name, countStr)
		}
		hc := scenario.HostClass{Preset: name, Count: count}
		if err := hc.Validate(); err != nil {
			return nil, fmt.Errorf("unknown class %q (amd, intel, blade)", name)
		}
		out = append(out, hc)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty class spec")
	}
	return out, nil
}
