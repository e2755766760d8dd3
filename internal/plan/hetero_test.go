package plan_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/eval"
	"repro/internal/experiments"
	"repro/internal/plan"
	"repro/internal/pool"
	"repro/internal/scenario"
	"repro/internal/workload"
)

// bruteForceHetero scores every non-empty class-count vector of s's
// supply on the analytic kernel and returns the best feasible one under
// the search's rank order: (watts, hosts) for min-power or (hosts, watts)
// for min-servers, then more capability units, then the lexicographically
// larger count vector. It reports plan.ErrInfeasible when no vector meets
// the target, and leaves Evaluations zero.
func bruteForceHetero(s scenario.Scenario, target float64, objective string) (plan.Plan, error) {
	s, err := s.Resolve()
	if err != nil {
		return plan.Plan{}, err
	}
	k, err := eval.NewAnalytic(nil).Compile(s)
	if err != nil {
		return plan.Plan{}, err
	}
	classes := s.Fleet.Classes
	ahead := func(a, b eval.Result, ca, cb []int) bool {
		if objective == plan.MinPower && a.Watts != b.Watts {
			return a.Watts < b.Watts
		}
		if a.Hosts != b.Hosts {
			return a.Hosts < b.Hosts
		}
		if a.Watts != b.Watts {
			return a.Watts < b.Watts
		}
		if a.CapabilityUnits != b.CapabilityUnits {
			return a.CapabilityUnits > b.CapabilityUnits
		}
		for c := range ca {
			if ca[c] != cb[c] {
				return ca[c] > cb[c]
			}
		}
		return false
	}
	var best []int
	var bestRes eval.Result
	counts := make([]int, len(classes))
	for {
		c := 0
		for c < len(counts) && counts[c] == classes[c].Count {
			counts[c] = 0
			c++
		}
		if c == len(counts) {
			break
		}
		counts[c]++
		res, err := k.Score(eval.Placement{Classes: counts})
		if err != nil {
			return plan.Plan{}, err
		}
		if math.IsNaN(res.Loss) || res.Loss > target {
			continue
		}
		if best == nil || ahead(res, bestRes, counts, best) {
			best, bestRes = append([]int(nil), counts...), res
		}
	}
	if best == nil {
		return plan.Plan{}, plan.ErrInfeasible
	}
	p := plan.Plan{Objective: objective, Target: target, Mode: "consolidated", Result: bestRes}
	for c, hc := range classes {
		p.Hosts += best[c]
		p.Classes = append(p.Classes, plan.ClassCount{Name: hc.Name, Count: best[c]})
	}
	return p, nil
}

// randomHetero draws a two-service workload over 1–classes host classes
// of at most hosts hosts each: capabilities per resource both below and
// above the reference server, per-class power overrides or the fleet's
// model (with an idle draw of 0 W at times), and classes that copy an
// earlier class's capability: half of them its power too, so equal-watt
// mixes tie, and half a power of their own, so one group's classes
// differ in draw.
func randomHetero(rng *rand.Rand, classes, hosts int) scenario.Scenario {
	s := scenario.Scenario{
		Mode: "consolidated",
		Services: []scenario.Service{
			scenario.WebSpec(100+rng.Float64()*6000, 1),
			scenario.DBSpec(10+rng.Float64()*500, 1),
		},
	}
	switch rng.Intn(3) {
	case 0:
		s.Power = &scenario.Power{BaseW: 0, MaxW: 50 + rng.Float64()*300}
	case 1:
		s.Power = &scenario.Power{BaseW: 100 + rng.Float64()*200, MaxW: 350, Platform: []string{"xen", "linux"}[rng.Intn(2)]}
	}
	ownPower := func() *scenario.Power {
		base := 50 + rng.Float64()*250
		return &scenario.Power{BaseW: base, MaxW: base + rng.Float64()*150}
	}
	for c, n := 0, 1+rng.Intn(classes); c < n; c++ {
		hc := scenario.HostClass{Name: fmt.Sprintf("c%d", c), Count: 1 + rng.Intn(hosts)}
		if c > 0 && rng.Intn(2) == 0 {
			twin := s.Fleet.Classes[rng.Intn(c)]
			hc.Preset, hc.Capability, hc.Power = twin.Preset, twin.Capability, twin.Power
			if rng.Intn(2) == 0 {
				hc.Power = ownPower()
			}
		} else {
			switch rng.Intn(3) {
			case 0:
				hc.Preset = []string{"amd", "intel", "blade"}[rng.Intn(3)]
			default:
				hc.Capability = map[string]float64{
					workload.CPU:    0.3 + rng.Float64()*1.7,
					workload.DiskIO: 0.3 + rng.Float64()*1.7,
				}
			}
			if rng.Intn(2) == 0 {
				hc.Power = ownPower()
			}
		}
		s.Fleet.Classes = append(s.Fleet.Classes, hc)
	}
	return s
}

// On seeded random supplies the exact search returns the brute-force
// optimum — deeply equal plans, or the same error — under both
// objectives, on the kernel route and through an Evaluate-only decorator
// (the stamping route), which also agree on the evaluations spent. The
// wide corpus, up to six classes of up to four hosts, gives the walk's
// bounds more classes to order.
func TestHeteroSearchMatchesBruteForce(t *testing.T) {
	for _, c := range []struct {
		name           string
		seed           int64
		classes, hosts int
		budget         time.Duration
		minTrials      int
	}{
		{"narrow", 20, 4, 6, 3 * time.Second, 300},
		{"wide", 21, 6, 4, 2 * time.Second, 200},
	} {
		t.Run(c.name, func(t *testing.T) {
			if testing.Short() {
				c.budget, c.minTrials = c.budget/6, c.minTrials/6
			}
			matchBruteForce(t, c.seed, c.classes, c.hosts, c.budget, c.minTrials)
		})
	}
}

// matchBruteForce compares Search with bruteForceHetero on supplies drawn
// by randomHetero(classes, hosts) from seed, for at least minTrials
// trials and budget of time.
func matchBruteForce(t *testing.T, seed int64, classes, hosts int, budget time.Duration, minTrials int) {
	t.Helper()
	pl, err := pool.New(2)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	rng := rand.New(rand.NewSource(seed))
	start := time.Now()
	trials, feasible := 0, 0
	for ; trials < minTrials || time.Since(start) < budget; trials++ {
		if trials >= 10*minTrials {
			break
		}
		s := randomHetero(rng, classes, hosts)
		target := 0.005 + rng.Float64()*0.495
		for _, objective := range []string{plan.MinServers, plan.MinPower} {
			name := fmt.Sprintf("trial %d %s target %g", trials, objective, target)
			want, wantErr := bruteForceHetero(s, target, objective)
			spec := plan.Spec{Scenario: s, Target: target, Objective: objective}
			kernel, kernelErr := plan.Search(ctx, eval.NewAnalytic(nil), nil, spec)
			stamped, stampedErr := plan.Search(ctx, evaluateOnly{eval.NewAnalytic(nil)}, pl, spec)
			for _, route := range []struct {
				name string
				got  plan.Plan
				err  error
			}{{"kernel", kernel, kernelErr}, {"stamped", stamped, stampedErr}} {
				if wantErr != nil {
					if !errors.Is(route.err, plan.ErrInfeasible) || !errors.Is(wantErr, plan.ErrInfeasible) {
						t.Fatalf("%s %s: err = %v, brute force %v", name, route.name, route.err, wantErr)
					}
					continue
				}
				if route.err != nil {
					t.Fatalf("%s %s: %v; brute force finds %+v", name, route.name, route.err, want.Classes)
				}
				got := route.got
				got.Evaluations = 0
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s %s:\n got %+v at %v W, %v units\nwant %+v at %v W, %v units\nsupply %+v",
						name, route.name, got.Classes, got.Result.Watts, got.Result.CapabilityUnits,
						want.Classes, want.Result.Watts, want.Result.CapabilityUnits, s.Fleet.Classes)
				}
			}
			if wantErr == nil {
				feasible++
				if kernel.Evaluations != stamped.Evaluations {
					t.Fatalf("%s: %d evaluations on the kernel, %d stamped", name, kernel.Evaluations, stamped.Evaluations)
				}
			}
		}
	}
	if feasible == 0 || feasible == 2*trials {
		t.Fatalf("%d of %d searches feasible: the corpus must cover both outcomes", feasible, 2*trials)
	}
	t.Logf("%d trials, %d feasible searches", trials, feasible)
}

// capSupply draws 2–5 host classes of at most 4,096 hosts in total. Each
// class is a preset, a disk-only variant of AMD (diskio 1.1–1.5) or a
// CPU/disk pair (cpu 0.5, 0.8 or 1, disk up to 0.3 above it), so classes
// of equal capability units abound; with probability override its power
// is overridden, from bases and spans.
func capSupply(rng *rand.Rand, override float64, bases, spans []float64) []scenario.HostClass {
	n := 2 + rng.Intn(4)
	classes := make([]scenario.HostClass, n)
	for c := range classes {
		hc := scenario.HostClass{Name: fmt.Sprintf("c%d", c), Count: 1 + rng.Intn(4096/n)}
		switch rng.Intn(3) {
		case 0:
			hc.Preset = []string{"amd", "intel", "blade"}[rng.Intn(3)]
		case 1:
			hc.Capability = map[string]float64{workload.DiskIO: 1.1 + 0.1*float64(rng.Intn(5))}
		default:
			cpu := []float64{0.5, 0.8, 1}[rng.Intn(3)]
			hc.Capability = map[string]float64{workload.CPU: cpu, workload.DiskIO: cpu + 0.1*float64(rng.Intn(4))}
		}
		if rng.Float64() < override {
			base := bases[rng.Intn(len(bases))]
			hc.Power = &scenario.Power{BaseW: base, MaxW: base + spans[rng.Intn(len(spans))]}
		}
		classes[c] = hc
	}
	return classes
}

// On seeded random supplies up to the 4,096-host cap, at 1–200 times
// plan-hetero's rates, every search under either objective plans, or
// finds the supply infeasible, within the step limit: none is refused.
// The limit bounds each search's time, and the 1,000 searches take about
// 0.2 s on a 2-vCPU VM (-short runs a fifth). Corpus A overrides power on
// half the classes, from 4 bases and 3 spans; corpus B on three
// quarters, from 20 bases. Walking classes rather than groups refused 4
// of these searches.
func TestHeteroSearchPlansCapCorpora(t *testing.T) {
	var twenty []float64
	for i := range 20 {
		twenty = append(twenty, 100+10*float64(i))
	}
	for _, c := range []struct {
		name     string
		seed     int64
		supplies int
		override float64
		bases    []float64
	}{
		{"A", 28, 200, 0.5, []float64{120, 160, 200, 240}},
		{"B", 29, 300, 0.75, twenty},
	} {
		t.Run(c.name, func(t *testing.T) {
			if testing.Short() {
				c.supplies /= 5
			}
			rng := rand.New(rand.NewSource(c.seed))
			var slowest time.Duration
			for i := range c.supplies {
				rates := 1 + rng.Float64()*199
				s := scenario.Scenario{
					Mode:     "consolidated",
					Services: []scenario.Service{scenario.WebSpec(2800*rates, 3), scenario.DBSpec(200*rates, 3)},
					Fleet:    scenario.Fleet{Classes: capSupply(rng, c.override, c.bases, []float64{40, 80, 120})},
				}
				for _, objective := range []string{plan.MinServers, plan.MinPower} {
					start := time.Now()
					p, err := plan.Search(context.Background(), eval.NewAnalytic(nil), nil,
						plan.Spec{Scenario: s, Target: 0.05, Objective: objective})
					slowest = max(slowest, time.Since(start))
					if errors.Is(err, plan.ErrInfeasible) {
						continue
					}
					if err != nil || p.Result.Loss > 0.05 {
						t.Fatalf("supply %d at %g times the rates, %s: loss %g, %v\nsupply %+v", i, rates, objective, p.Result.Loss, err, s.Fleet.Classes)
					}
				}
			}
			t.Logf("%d supplies, slowest search %v", c.supplies, slowest)
		})
	}
}

// Near the supply cap and at up to 200 times plan-hetero's rates the walk
// stays bounded. Five AMD twins plan at once, and so do five disk-speed
// variants of AMD, which the analytic model prices as one group; five
// classes of distinct hardware plan within the step limit; three blade
// classes of distinct power plan after the greedy seed's score and one
// more, where a walk over the classes took thousands of scores or reached
// the limit. Three groups whose draws are proportional to their units
// tie in watts across groups, and under min-power they are refused with
// the step limit's eval.ErrUnsupported instead of walked without end.
func TestHeteroSearchIsBounded(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "examples", "scenarios", "plan-hetero.json"))
	if err != nil {
		t.Fatal(err)
	}
	base, err := scenario.ParseBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	var twins, disks, proportional, blades []scenario.HostClass
	for i := range 5 {
		twins = append(twins, scenario.HostClass{Name: fmt.Sprintf("amd%d", i), Preset: "amd", Count: 800})
		disks = append(disks, scenario.HostClass{Name: fmt.Sprintf("disk%d", i), Count: 800,
			Capability: map[string]float64{workload.DiskIO: 1.1 + 0.1*float64(i)}})
	}
	for _, u := range []float64{1, 0.5, 0.75} {
		proportional = append(proportional, scenario.HostClass{Name: fmt.Sprintf("units%g", u), Count: 800,
			Capability: map[string]float64{workload.CPU: u, workload.DiskIO: u}, Power: &scenario.Power{BaseW: 200 * u, MaxW: 300 * u}})
	}
	for _, p := range []scenario.Power{{BaseW: 140, MaxW: 190}, {BaseW: 120, MaxW: 210}, {BaseW: 160, MaxW: 170}} {
		blades = append(blades, scenario.HostClass{Name: fmt.Sprintf("blade%g", p.BaseW), Preset: "blade", Count: 1300, Power: &p})
	}
	distinct := []scenario.HostClass{
		{Preset: "amd", Count: 800},
		{Preset: "intel", Count: 800, Power: &scenario.Power{BaseW: 230, MaxW: 310}},
		{Preset: "blade", Count: 800, Power: &scenario.Power{BaseW: 140, MaxW: 190}},
		{Name: "big", Count: 800, Capability: map[string]float64{workload.CPU: 1.25, workload.DiskIO: 1.25},
			Power: &scenario.Power{BaseW: 330, MaxW: 450}},
		{Name: "small", Count: 800, Capability: map[string]float64{workload.CPU: 0.7, workload.DiskIO: 0.7},
			Power: &scenario.Power{BaseW: 150, MaxW: 240}},
	}
	both := func(counts ...int) map[string][]int {
		return map[string][]int{plan.MinPower: counts, plan.MinServers: counts}
	}
	for _, tc := range []struct {
		name    string
		rates   float64 // times plan-hetero's
		classes []scenario.HostClass
		want    map[string][]int // per objective; nil: refused
		scores  int              // the most evaluations a plan may take; 0: any
	}{
		{"twins", 200, twins, both(396, 0, 0, 0, 0), 0},
		{"distinct", 200, distinct, map[string][]int{plan.MinPower: {1, 0, 1, 0, 563}, plan.MinServers: {1, 1, 0, 315, 0}}, 0},
		{"disks", 200, disks, both(396, 0, 0, 0, 0), 0},
		{"proportional", 200, proportional, map[string][]int{plan.MinServers: {395, 0, 1}}, 0},
		{"blades x1", 1, blades, both(0, 0, 10), 2},
		{"blades x20", 20, blades, both(0, 0, 92), 2},
		{"blades x200", 200, blades, both(0, 0, 792), 2},
	} {
		s := base.Clone()
		for i, rate := range []float64{2800, 200} {
			s.Services[i].Arrivals = workload.PoissonSpec(rate * tc.rates)
		}
		s.Fleet.Classes = tc.classes
		for _, objective := range []string{plan.MinPower, plan.MinServers} {
			spec := plan.Spec{Scenario: s, Target: 0.05, Objective: objective}
			p, err := plan.Search(context.Background(), eval.NewAnalytic(nil), nil, spec)
			want := tc.want[objective]
			if want == nil {
				if !errors.Is(err, eval.ErrUnsupported) || !strings.Contains(err.Error(), "steps") {
					t.Fatalf("%s %s: err = %v, want the step limit's eval.ErrUnsupported", tc.name, objective, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s %s: %v", tc.name, objective, err)
			}
			var counts []int
			for _, c := range p.Classes {
				counts = append(counts, c.Count)
			}
			if !reflect.DeepEqual(counts, want) {
				t.Fatalf("%s %s: plan %v, want %v", tc.name, objective, counts, want)
			}
			if tc.scores > 0 && p.Evaluations > tc.scores {
				t.Errorf("%s %s: %d evaluations, want at most %d", tc.name, objective, p.Evaluations, tc.scores)
			}
		}
	}
}

// On examples/heterofleet's supply at the case study's rates, min-power
// places 2 AMD and 4 half blades: 1136.65 W, below the 1154.85 W of the
// 1/3/1 mix the annealing search settled on.
func TestHeteroFleetMinPowerIsOptimal(t *testing.T) {
	m, err := experiments.CaseStudyModel(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	s := scenario.CaseStudy(4, 4, "consolidated", 0)
	for i := range s.Services {
		s.Services[i].Arrivals = workload.PoissonSpec(m.Services[i].ArrivalRate)
	}
	s.Fleet.Classes = []scenario.HostClass{
		{Name: "amd-2350", Preset: "amd", Count: 2},
		{Name: "intel-5140", Preset: "intel", Count: 8, Power: &scenario.Power{BaseW: 230, MaxW: 310}},
		{Name: "blade-half", Preset: "blade", Count: 8, Power: &scenario.Power{BaseW: 140, MaxW: 190}},
	}
	p, err := plan.Search(context.Background(), eval.NewAnalytic(nil), nil,
		plan.Spec{Scenario: s, Target: m.LossTarget, Objective: plan.MinPower})
	if err != nil {
		t.Fatal(err)
	}
	var counts []int
	for _, c := range p.Classes {
		counts = append(counts, c.Count)
	}
	if !reflect.DeepEqual(counts, []int{2, 0, 4}) || p.Result.Watts != 1136.6481018296895 {
		t.Fatalf("min-power plan %v at %v W, want [2 0 4] at 1136.6481018296895 W", counts, p.Result.Watts)
	}
}
