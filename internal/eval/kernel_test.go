package eval_test

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/eval"
	"repro/internal/scenario"
	"repro/internal/stats"
	"repro/internal/workload"
)

// sameBits reports whether two results agree bit for bit, float fields
// compared by their IEEE 754 patterns.
func sameBits(a, b eval.Result) bool {
	bits := math.Float64bits
	if a.Source != b.Source || a.Mode != b.Mode || a.Hosts != b.Hosts ||
		bits(a.CapabilityUnits) != bits(b.CapabilityUnits) || bits(a.Loss) != bits(b.Loss) ||
		bits(a.Utilization) != bits(b.Utilization) || bits(a.Watts) != bits(b.Watts) ||
		len(a.Services) != len(b.Services) {
		return false
	}
	for i := range a.Services {
		if a.Services[i].Name != b.Services[i].Name || bits(a.Services[i].Loss) != bits(b.Services[i].Loss) {
			return false
		}
	}
	return true
}

// periodsDay loads the shipped 24-bin diurnal example.
func periodsDay(t testing.TB) scenario.Scenario {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "examples", "scenarios", "periods-day.json"))
	if err != nil {
		t.Fatal(err)
	}
	s, err := scenario.ParseBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// Scaling the compiled base scenario to a bin's multipliers is the same
// kernel as compiling that bin's stationary scenario: for every bin of
// the diurnal day, in each fleet shape, every placement scores bit for
// bit alike.
func TestKernelScaleMatchesStationary(t *testing.T) {
	homogeneous := periodsDay(t)

	hetero := homogeneous.Clone()
	hetero.Fleet = scenario.Fleet{Classes: []scenario.HostClass{
		{Preset: "amd", Count: 4},
		{Preset: "intel", Count: 4, Power: &scenario.Power{BaseW: 230, MaxW: 310}},
		{Name: "fast-disk", Count: 2, Capability: map[string]float64{"diskio": 1.5}},
	}}

	dedicated := homogeneous.Clone()
	dedicated.Mode = "dedicated"
	dedicated.Fleet = scenario.Fleet{}
	for i := range dedicated.Services {
		dedicated.Services[i].DedicatedServers = 3
	}

	var homogeneousPlacements, heteroPlacements, dedicatedPlacements []eval.Placement
	for n := 0; n <= 16; n++ {
		homogeneousPlacements = append(homogeneousPlacements, eval.Placement{Hosts: n})
	}
	for a := 0; a <= 4; a++ {
		for b := 0; b <= 4; b++ {
			for c := 0; c <= 2; c++ {
				heteroPlacements = append(heteroPlacements, eval.Placement{Classes: []int{a, b, c}})
			}
		}
	}
	for a := 1; a <= 6; a++ {
		for b := 1; b <= 6; b++ {
			dedicatedPlacements = append(dedicatedPlacements, eval.Placement{Dedicated: []int{a, b}})
		}
	}

	an := eval.NewAnalytic(nil)
	for _, tc := range []struct {
		name       string
		s          scenario.Scenario
		placements []eval.Placement
	}{
		{"homogeneous", homogeneous, homogeneousPlacements},
		{"hetero", hetero, heteroPlacements},
		{"dedicated", dedicated, dedicatedPlacements},
	} {
		bins, err := tc.s.ResolvePeriods()
		if err != nil {
			t.Fatal(err)
		}
		if len(bins) != 24 {
			t.Fatalf("%s: %d bins, want the 24-bin day", tc.name, len(bins))
		}
		flat := tc.s.Clone()
		flat.Periods = nil
		base, err := an.Compile(resolve(t, flat))
		if err != nil {
			t.Fatal(err)
		}
		for _, bin := range bins {
			scaled, err := base.Scale(bin.Multipliers)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := an.Compile(bin.Scenario)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range tc.placements {
				got, err := scaled.Score(p)
				if err != nil {
					t.Fatal(err)
				}
				want, err := fresh.Score(p)
				if err != nil {
					t.Fatal(err)
				}
				if !sameBits(got, want) {
					t.Fatalf("%s bin %s placement %+v: scaled kernel\n%+v\nfresh compile\n%+v", tc.name, bin.Name, p, got, want)
				}
			}
		}
	}
}

// Scale refuses what scenario.Stationary would: a multiplier vector of
// the wrong length, and a multiplier whose scaled rate is not a positive
// finite Poisson rate.
func TestKernelScaleRejects(t *testing.T) {
	k, err := eval.NewAnalytic(nil).Compile(resolve(t, scenario.CaseStudy(4, 4, "consolidated", 4)))
	if err != nil {
		t.Fatal(err)
	}
	for _, mults := range [][]float64{{1}, {1, 0}, {-1, 1}, {1, math.NaN()}, {1, math.Inf(1)}, {1, 1e308}} {
		if _, err := k.Scale(mults); err == nil {
			t.Errorf("Scale(%v) accepted", mults)
		}
	}
}

// Evaluate is Compile plus a Score of the declared fleet, and Score
// refuses a placement of the wrong shape.
func TestKernelScoresDeclaredFleet(t *testing.T) {
	an := eval.NewAnalytic(nil)
	for _, s := range []scenario.Scenario{
		scenario.CaseStudy(4, 4, "consolidated", 4),
		scenario.CaseStudy(4, 4, "dedicated", 0),
	} {
		want, err := an.Evaluate(context.Background(), s)
		if err != nil {
			t.Fatal(err)
		}
		k, err := an.Compile(resolve(t, s))
		if err != nil {
			t.Fatal(err)
		}
		p := eval.Placement{Hosts: 4}
		misfit := eval.Placement{Dedicated: []int{4}}
		if s.Mode == "dedicated" {
			p, misfit = eval.Placement{Dedicated: []int{4, 4}}, eval.Placement{Hosts: 8}
		}
		got, err := k.Score(p)
		if err != nil {
			t.Fatal(err)
		}
		if !sameBits(got, want) {
			t.Errorf("%s: Score %+v, Evaluate %+v", s.Mode, got, want)
		}
		if _, err := k.Score(misfit); err == nil {
			t.Errorf("%s: misfit placement %+v scored", s.Mode, misfit)
		}
	}
}

// A dedicated service demanding four resources sums its per-resource
// traffic in sorted resource order, so repeated evaluations agree bit for
// bit: summed in map order, this case's utilization took two values.
func TestAnalyticDedicatedSumOrder(t *testing.T) {
	s := scenario.Scenario{
		Mode: "dedicated",
		Services: []scenario.Service{{
			Profile: scenario.Profile{Name: "wide", Demands: map[string]stats.DistSpec{
				"cpu":     stats.ExpSpec(1),
				"diskio":  stats.ExpSpec(9e15),
				"memory":  stats.ExpSpec(9e15),
				"network": stats.ExpSpec(9e15),
			}},
			Arrivals:         workload.PoissonSpec(1),
			DedicatedServers: 3,
		}},
	}
	an := eval.NewAnalytic(nil)
	first, err := an.Evaluate(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		res, err := an.Evaluate(context.Background(), s)
		if err != nil {
			t.Fatal(err)
		}
		if !sameBits(res, first) {
			t.Fatalf("evaluation %d: utilization %v watts %v, first %v / %v",
				i, res.Utilization, res.Watts, first.Utilization, first.Watts)
		}
	}
}

// Classes of equal capability units form a group, which the model tells
// apart only by power, and the classes of a group with equal power are
// twins. Every split of a group's count scores the same units,
// utilization and losses bit for bit, every split among twins the same
// watts too, and a fleet listing only the placed classes, as a stamped
// scenario does, scores the same as the placement.
func TestKernelPricesTwinsAsOneClass(t *testing.T) {
	s := scenario.CaseStudy(4, 4, "consolidated", 0)
	s.Fleet = scenario.Fleet{Classes: []scenario.HostClass{
		{Name: "a", Preset: "amd", Count: 4},
		{Name: "i", Preset: "intel", Count: 4},
		{Name: "b", Capability: map[string]float64{}, Count: 4},
		{Name: "f", Capability: map[string]float64{"diskio": 1.5}, Count: 4},
		{Name: "j", Preset: "intel", Count: 4, Power: &scenario.Power{BaseW: 230, MaxW: 310}},
		{Name: "k", Preset: "intel", Count: 4},
	}}
	an := eval.NewAnalytic(nil)
	k, err := an.Compile(resolve(t, s))
	if err != nil {
		t.Fatal(err)
	}
	// Each class's group and twin, named by their first class.
	costs := k.ClassCosts()
	var groups, twins []int
	for c := range costs {
		g, tw := c, c
		for d := c - 1; d >= 0; d-- {
			if costs[d].Units == costs[c].Units {
				g = d
			}
			if costs[d] == costs[c] {
				tw = d
			}
		}
		groups, twins = append(groups, g), append(twins, tw)
	}
	if want := []int{0, 1, 0, 0, 1, 1}; !equalInts(groups, want) {
		t.Fatalf("groups %v, want %v", groups, want)
	}
	if want := []int{0, 1, 0, 0, 4, 1}; !equalInts(twins, want) {
		t.Fatalf("twins %v, want %v", twins, want)
	}
	score := func(counts []int) eval.Result {
		t.Helper()
		res, err := k.Score(eval.Placement{Classes: counts})
		if err != nil {
			t.Fatal(err)
		}
		var price eval.Result
		k.Price(&price, eval.Placement{Classes: counts})
		if !sameBits(price, withoutLosses(res)) {
			t.Fatalf("%v: price and score disagree", counts)
		}
		// The placed classes alone, listed in reverse.
		placed := s.Clone()
		placed.Fleet.Classes = nil
		for c := len(counts) - 1; c >= 0; c-- {
			if counts[c] > 0 {
				hc := s.Fleet.Classes[c]
				hc.Count = counts[c]
				placed.Fleet.Classes = append(placed.Fleet.Classes, hc)
			}
		}
		if stamped, err := an.Evaluate(context.Background(), placed); err != nil || !sameBits(stamped, res) {
			t.Fatalf("%v: the placed classes alone score %+v (%v), want %+v", counts, stamped, err, res)
		}
		return res
	}
	first := []int{0, 1, 3, 1, 0, 0}
	want := score(first)
	for _, split := range [][]int{{0, 0, 3, 1, 0, 1}, {3, 1, 0, 1, 0, 0}, {1, 0, 2, 1, 0, 1}, {4, 0, 0, 0, 0, 1}} {
		if got := score(split); !sameBits(got, want) {
			t.Errorf("twin split %v scores %+v, want %+v", split, got, want)
		}
	}
	for _, split := range [][]int{{0, 0, 3, 1, 1, 0}, {4, 0, 0, 0, 1, 0}} {
		got := score(split)
		if got.Watts == want.Watts {
			t.Errorf("split %v draws %v W like its group's other twin", split, got.Watts)
		}
		got.Watts = want.Watts
		if !sameBits(got, want) {
			t.Errorf("group split %v scores %+v, want %+v but for watts", split, got, want)
		}
	}
}

// withoutLosses is a score as Price reports it.
func withoutLosses(r eval.Result) eval.Result {
	r.Loss, r.Services = 0, nil
	return r
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// resolve returns s resolved for Compile, whose contract takes a
// scenario.Scenario.Resolve copy.
func resolve(t testing.TB, s scenario.Scenario) scenario.Scenario {
	t.Helper()
	r, err := s.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	return r
}
