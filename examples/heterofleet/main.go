// Heterofleet: plan the paper's case-study consolidation onto a *mixed*
// server fleet — the future work Section V names, seeded by the paper's own
// Discussion observation that its AMD servers ran the e-book DB workload
// about 20 % faster than its Intel servers.
//
// The flow: solve the homogeneous model (M dedicated, N consolidated
// reference servers), then let the placement planner choose machines from
// a finite supply of host classes under two objectives (fewest servers vs
// fewest watts), each candidate fleet scored by the analytic evaluator
// with the continuous Erlang B extension for its fractional capability.
// Finally, a sensitivity sweep shows which inputs the plan hinges on. The
// `hetero` experiment of cmd/repro re-simulates such placements.
//
//	go run ./examples/heterofleet
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"repro/internal/eval"
	"repro/internal/experiments"
	"repro/internal/plan"
	"repro/internal/scenario"
	"repro/internal/workload"
)

func main() {
	// The group-2 case study: Web + DB, four dedicated servers each.
	m, err := experiments.CaseStudyModel(4, 4)
	if err != nil {
		log.Fatal(err)
	}
	res, err := m.Solve()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("homogeneous plan: M=%d dedicated -> N=%d consolidated reference servers\n\n",
		res.Dedicated.Servers, res.Consolidated.Servers)

	// The same workload as a scenario, at the model's arrival rates, over
	// the machine room: two AMD boxes already racked, Intel available on
	// order (≈17 % slower per the paper's Discussion), plus a half-size
	// blade option.
	s := scenario.CaseStudy(4, 4, "consolidated", 0)
	for i := range s.Services {
		s.Services[i].Arrivals = workload.PoissonSpec(m.Services[i].ArrivalRate)
	}
	s.Fleet.Classes = []scenario.HostClass{
		{Name: "amd-2350", Preset: "amd", Count: 2},
		{Name: "intel-5140", Preset: "intel", Count: 8,
			Power: &scenario.Power{BaseW: 230, MaxW: 310}},
		{Name: "blade-half", Preset: "blade", Count: 8,
			Power: &scenario.Power{BaseW: 140, MaxW: 190}},
	}

	ev := eval.NewAnalytic(nil)
	for _, objective := range []string{plan.MinServers, plan.MinPower} {
		p, err := plan.Search(context.Background(), ev, nil,
			plan.Spec{Scenario: s, Target: m.LossTarget, Objective: objective})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("objective %s:\n", objective)
		fmt.Printf("  consolidated: %d machines (", p.Hosts)
		for i, c := range p.Classes {
			if i > 0 {
				fmt.Print(", ")
			}
			fmt.Printf("%dx %s", c.Count, c.Name)
		}
		fmt.Printf("), %.3f reference units\n", p.Result.CapabilityUnits)
		fmt.Printf("  dedicated M / consolidated machines = %d / %d; consolidated draw %.0f W\n",
			res.Dedicated.Servers, p.Hosts, p.Result.Watts)
		fmt.Printf("  predicted consolidated loss (continuous Erlang B): %.4f (target %.2f)\n\n",
			p.Result.Loss, m.LossTarget)
	}

	// Which inputs is the plan sensitive to?
	rep, err := m.Sensitivity(0.1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("±10% input sensitivity (rows marked * change the consolidated plan):")
	fmt.Print(rep)

	// Persist the model spec for the consolidate CLI.
	f, err := os.CreateTemp("", "plan-*.json")
	if err != nil {
		log.Fatal(err)
	}
	defer os.Remove(f.Name())
	if err := m.WriteJSON(f); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nmodel spec written to %s (usable with `go run ./cmd/consolidate -spec ...`)\n", f.Name())
}
