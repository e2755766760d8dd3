// Command consolidate plans a VM-based data center with the paper's utility
// analytic model: given each service's arrival rate, per-resource serving
// rates and virtualization impact factors, it reports the dedicated server
// count M, the consolidated server count N, and the utilization and power
// comparisons (Section III).
//
// Input is the built-in case study,
//
//	consolidate -casestudy -web 4 -db 4
//
// a JSON model spec,
//
//	consolidate -spec plan.json
//
// with the schema
//
//	{
//	  "lossTarget": 0.05,
//	  "form": "eq5-restricted",            // or "eq5-verbatim", "harmonic"
//	  "power": {"base": 250, "max": 340},  // optional, watts
//	  "services": [
//	    {
//	      "name": "web",
//	      "arrivalRate": 1280,
//	      "servingRates":  {"diskio": 1420, "cpu": 3360},
//	      "impactFactors": {"diskio": 0.98, "cpu": 0.63}
//	    }
//	  ]
//	}
//
// or a declarative simulator scenario bridged through the shared
// evaluation layer (internal/eval),
//
//	consolidate -scenario examples/scenarios/casestudy.json -target 0.05
//
// which accepts the same files cmd/simulate runs. With -plan the command
// searches a placement instead of solving M/N: it prints the cheapest
// fleet (min-servers or min-power) whose worst per-service loss meets
// -target, as stable JSON suitable for byte-diffed goldens:
//
//	consolidate -scenario examples/scenarios/plan-hetero.json -plan -objective min-power
//
// A scenario with a "periods" block (named time bins with per-service
// rate multipliers) plans per bin with -plan -periods: each bin gets the
// cheapest feasible fleet, adjacent bins collapse onto one placement
// whenever -migration-cost (Wh per VM move) outweighs the energy saved,
// and the output adds the migration schedule and the day's watt-hours:
//
//	consolidate -scenario examples/scenarios/periods-day.json -plan -periods -migration-cost 12
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/experiments"
	"repro/internal/plan"
	"repro/internal/scenario"
)

func main() {
	specPath := flag.String("spec", "", "JSON model spec file ('-' for stdin)")
	scenarioPath := flag.String("scenario", "", "declarative scenario JSON ('-' for stdin), bridged to the analytic model")
	caseStudy := flag.Bool("casestudy", false, "use the paper's Web+DB case study")
	webServers := flag.Int("web", 4, "case study: dedicated Web pool size")
	dbServers := flag.Int("db", 4, "case study: dedicated DB pool size")
	target := flag.Float64("target", experiments.LossTarget, "loss-probability target B in (0,1) for -scenario and -plan")
	doPlan := flag.Bool("plan", false, "search a placement meeting -target instead of solving M/N (requires -scenario)")
	doPeriods := flag.Bool("periods", false, "plan the scenario's time bins as a multi-period schedule (requires -plan and a periods scenario)")
	migrationCost := flag.Float64("migration-cost", 0, "period-plan charge in Wh per VM move, finite and >= 0 (requires -periods)")
	objective := flag.String("objective", plan.MinServers, `plan objective: "min-servers" or "min-power"`)
	evaluator := flag.String("evaluator", "analytic", `plan candidate scorer: "analytic" or "sim"`)
	sensitivity := flag.Float64("sensitivity", 0, "also run a ±FRACTION input-sensitivity sweep (e.g. 0.1)")
	writeSpec := flag.String("write", "", "write the resolved model spec as JSON to this file ('-' for stdout)")
	asJSON := flag.Bool("json", false, "print the solve result as JSON instead of text")
	flag.Parse()

	die := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "consolidate: "+format+"\n", args...)
		os.Exit(1)
	}

	explicit := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	if err := checkFlagConflicts(explicit, *scenarioPath, *specPath, *caseStudy, *doPlan, *doPeriods); err != nil {
		die("%v", err)
	}

	var model *core.Model
	switch {
	case *caseStudy:
		m, err := experiments.CaseStudyModel(*webServers, *dbServers)
		if err != nil {
			die("%v", err)
		}
		model = m
	case *scenarioPath != "":
		s, err := loadScenario(*scenarioPath)
		if err != nil {
			die("%v", err)
		}
		if *doPlan {
			out, err := runPlan(s, *target, *objective, *evaluator, *doPeriods, *migrationCost)
			if err != nil {
				die("%v", err)
			}
			os.Stdout.Write(out)
			return
		}
		model, err = eval.ModelFromScenario(s, *target)
		if err != nil {
			die("%v", err)
		}
	case *specPath != "":
		var raw []byte
		var err error
		if *specPath == "-" {
			raw, err = io.ReadAll(os.Stdin)
		} else {
			raw, err = os.ReadFile(*specPath)
		}
		if err != nil {
			die("%v", err)
		}
		model, err = parseSpec(raw)
		if err != nil {
			die("%v", err)
		}
	default:
		die("supply -spec FILE, -scenario FILE or -casestudy (see -h)")
	}

	res, err := model.Solve()
	if err != nil {
		die("%v", err)
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			die("%v", err)
		}
		return
	}
	fmt.Println(res)
	fmt.Println()
	fmt.Println("dedicated plan:")
	for _, sp := range res.Dedicated.PerService {
		fmt.Printf("  %-16s %2d servers (bottleneck: %s)\n", sp.Service, sp.Servers, sp.Bottleneck)
	}
	fmt.Println("consolidated plan:")
	for _, sp := range res.Consolidated.PerService {
		resources := make([]core.Resource, 0, len(sp.PerResource))
		for r := range sp.PerResource {
			resources = append(resources, r)
		}
		slices.Sort(resources)
		for _, r := range resources {
			fmt.Printf("  resource %-8s needs %2d servers\n", r, sp.PerResource[r])
		}
	}

	if *sensitivity > 0 {
		rep, err := model.Sensitivity(*sensitivity)
		if err != nil {
			die("%v", err)
		}
		fmt.Printf("\n±%.0f%% input sensitivity (* = changes the consolidated plan):\n", *sensitivity*100)
		fmt.Print(rep)
	}

	if *writeSpec != "" {
		out := os.Stdout
		if *writeSpec != "-" {
			f, err := os.Create(*writeSpec)
			if err != nil {
				die("%v", err)
			}
			defer f.Close()
			out = f
		}
		if err := model.WriteJSON(out); err != nil {
			die("%v", err)
		}
	}
}

// checkFlagConflicts rejects contradictory combinations up front, before
// any defaulting can paper over them (the cmd/simulate convention).
func checkFlagConflicts(explicit map[string]bool, scenarioPath, specPath string, caseStudy, doPlan, doPeriods bool) error {
	sources := 0
	for _, set := range []bool{scenarioPath != "", specPath != "", caseStudy} {
		if set {
			sources++
		}
	}
	if sources > 1 {
		return errors.New("-scenario, -spec and -casestudy are mutually exclusive model sources")
	}
	if !caseStudy {
		for _, name := range []string{"web", "db"} {
			if explicit[name] {
				return fmt.Errorf("-%s shapes the built-in case study and needs -casestudy", name)
			}
		}
	}
	if explicit["target"] && scenarioPath == "" {
		return errors.New("-target needs -scenario: a -spec model carries its own lossTarget and the case study pins 0.05")
	}
	if doPeriods && !doPlan {
		return errors.New("-periods schedules per-bin placements and needs -plan")
	}
	if explicit["migration-cost"] && !doPeriods {
		return errors.New("-migration-cost charges period-plan reconfigurations and needs -periods")
	}
	if doPlan {
		if scenarioPath == "" {
			return errors.New("-plan needs -scenario: the planner searches placements of a declarative scenario")
		}
		for _, name := range []string{"sensitivity", "write", "json"} {
			if explicit[name] {
				return fmt.Errorf("-%s is a solve-mode flag, conflicting with -plan (a plan is always JSON)", name)
			}
		}
		return nil
	}
	for _, name := range []string{"objective", "evaluator"} {
		if explicit[name] {
			return fmt.Errorf("-%s needs -plan", name)
		}
	}
	return nil
}

// loadScenario reads and parses a declarative scenario ('-' for stdin);
// validation and defaulting happen inside the evaluation layer.
func loadScenario(path string) (scenario.Scenario, error) {
	var r io.Reader
	if path == "-" {
		r = os.Stdin
	} else {
		f, err := os.Open(path)
		if err != nil {
			return scenario.Scenario{}, err
		}
		defer f.Close()
		r = f
	}
	return scenario.Parse(r)
}

// runPlan searches a placement for the scenario — a single fleet, or
// with periods a per-bin schedule — and renders it as the stable JSON
// cmd output and CI goldens byte-diff.
func runPlan(s scenario.Scenario, target float64, objective string, evaluator string, periods bool, migrationCostWh float64) ([]byte, error) {
	var ev eval.Evaluator
	switch evaluator {
	case "analytic":
		ev = eval.NewAnalytic(nil)
	case "sim":
		ev = eval.NewSim(nil)
	default:
		return nil, fmt.Errorf(`-evaluator must be "analytic" or "sim", got %q`, evaluator)
	}
	spec := plan.Spec{
		Scenario:  s,
		Target:    target,
		Objective: objective,
	}
	if periods {
		// JSON cannot carry ±Inf, so the encodable CLI surface insists on
		// a finite charge (the library accepts +Inf to force a static
		// plan; experiments use that form directly).
		if math.IsNaN(migrationCostWh) || math.IsInf(migrationCostWh, 0) || migrationCostWh < 0 {
			return nil, fmt.Errorf("-migration-cost %g: want a finite charge >= 0 Wh per VM move", migrationCostWh)
		}
		pp, err := plan.SearchPeriods(context.Background(), ev, nil, spec, migrationCostWh)
		if err != nil {
			return nil, err
		}
		return pp.EncodeJSON()
	}
	p, err := plan.Search(context.Background(), ev, nil, spec)
	if err != nil {
		return nil, err
	}
	return p.EncodeJSON()
}

// parseSpec delegates to the library's JSON schema (core.ParseJSONBytes).
func parseSpec(raw []byte) (*core.Model, error) {
	return core.ParseJSONBytes(raw)
}
