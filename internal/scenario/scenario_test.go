package scenario

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/stats"
	"repro/internal/virt"
	"repro/internal/workload"
)

var update = flag.Bool("update", false, "rewrite golden files")

// examplesDir is the shipped scenario corpus, also used as fuzz seeds.
const examplesDir = "../../examples/scenarios"

func exampleFiles(t testing.TB) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(examplesDir, "*.json"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no example scenarios under %s (err %v)", examplesDir, err)
	}
	// sweep-*.json files are sweep specs (internal/sweep), not single
	// scenarios; they are exercised by the sweep package and CI's -sweep
	// smoke instead.
	scenarios := files[:0]
	for _, f := range files {
		if !strings.HasPrefix(filepath.Base(f), "sweep-") {
			scenarios = append(scenarios, f)
		}
	}
	if len(scenarios) == 0 {
		t.Fatalf("no non-sweep example scenarios under %s", examplesDir)
	}
	return scenarios
}

func TestExamplesValidateAndCompile(t *testing.T) {
	for _, file := range exampleFiles(t) {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		s, err := ParseBytes(data)
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		if s.Periods != nil {
			// Periods scenarios are planning constructs: they must refuse
			// to compile as a single cluster configuration, and every
			// resolved bin must compile instead.
			if _, err := s.Compile(); !errors.Is(err, ErrInvalid) {
				t.Fatalf("%s: periods scenario compiled (err %v), want ErrInvalid", file, err)
			}
			bins, err := s.ResolvePeriods()
			if err != nil {
				t.Fatalf("%s: %v", file, err)
			}
			for _, b := range bins {
				if _, err := b.Scenario.Compile(); err != nil {
					t.Fatalf("%s bin %s: %v", file, b.Name, err)
				}
			}
			continue
		}
		if _, err := s.Compile(); err != nil {
			t.Fatalf("%s: %v", file, err)
		}
	}
}

// TestGolden pins the resolved (defaults-applied) encoding of every example
// scenario: parse → ApplyDefaults → encode must match the golden fixture,
// and re-parsing the encoding must reproduce the identical Scenario value.
// Regenerate with `go test ./internal/scenario -run TestGolden -update`.
func TestGolden(t *testing.T) {
	for _, file := range exampleFiles(t) {
		name := strings.TrimSuffix(filepath.Base(file), ".json")
		t.Run(name, func(t *testing.T) {
			data, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			s, err := ParseBytes(data)
			if err != nil {
				t.Fatal(err)
			}
			s.ApplyDefaults()
			var buf bytes.Buffer
			if err := s.Encode(&buf); err != nil {
				t.Fatal(err)
			}
			golden := filepath.Join("testdata", name+".golden.json")
			if *update {
				if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden (run with -update): %v", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("resolved encoding drifted from %s:\n%s", golden, buf.String())
			}
			// encode → decode → encode is lossless.
			back, err := ParseBytes(buf.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(s, back) {
				t.Errorf("round trip changed the scenario: %+v -> %+v", s, back)
			}
		})
	}
}

func TestPresetsCompile(t *testing.T) {
	names := Names()
	if len(names) < 5 {
		t.Fatalf("only %d presets registered: %v", len(names), names)
	}
	for _, name := range names {
		s, err := Preset(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Compile(); err != nil {
			t.Errorf("preset %s: %v", name, err)
		}
	}
	if _, err := Preset("no-such-preset"); err == nil {
		t.Error("unknown preset name resolved")
	}
}

func TestApplyDefaults(t *testing.T) {
	s := Scenario{Services: []Service{WebSpec(100, 1)}}
	s.ApplyDefaults()
	if s.Mode != "consolidated" || s.Horizon != 120 || s.Seed != 42 {
		t.Fatalf("defaults: %+v", s)
	}
	if s.Warmup == nil || *s.Warmup != 20 {
		t.Fatalf("warmup default: %v", s.Warmup)
	}
	if s.Fleet.Hosts != 4 {
		t.Fatalf("fleet default: %+v", s.Fleet)
	}
	if s.Power == nil || s.Power.BaseW != 250 || s.Power.MaxW != 340 || s.Power.Platform != "xen" {
		t.Fatalf("power default: %+v", s.Power)
	}
	if s.Replication == nil || s.Replication.Reps != 1 {
		t.Fatalf("replication default: %+v", s.Replication)
	}

	// An explicit zero warmup survives defaulting.
	zero := 0.0
	s2 := Scenario{Services: []Service{WebSpec(100, 1)}, Warmup: &zero}
	s2.ApplyDefaults()
	if *s2.Warmup != 0 {
		t.Fatalf("explicit zero warmup overwritten: %g", *s2.Warmup)
	}
}

// Validate, Resolve and Compile default a private working copy: a
// scenario whose power, replication, periods and class list were left for
// defaulting marshals byte-identically afterwards, even through the
// pointers a periods-free copy shares with it.
func TestValidateAndCompileLeaveScenarioUntouched(t *testing.T) {
	s, err := ParseBytes([]byte(`{
  "services": [{"profile": {"preset": "specweb-ecommerce"}, "arrivals": {"kind": "poisson", "rate": 100}}],
  "fleet": {"classes": [{"preset": "amd", "count": 2}]},
  "power": {},
  "replication": {},
  "periods": {}
}`))
	if err != nil {
		t.Fatal(err)
	}
	before, err := s.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	unchanged := func(step string) {
		t.Helper()
		after, err := s.MarshalIndent()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(before, after) {
			t.Fatalf("%s changed the scenario:\n%s\nwas\n%s", step, after, before)
		}
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	unchanged("Validate")
	if _, err := s.Resolve(); err != nil {
		t.Fatal(err)
	}
	unchanged("Resolve")
	if _, err := s.ResolvePeriods(); err != nil {
		t.Fatal(err)
	}
	unchanged("ResolvePeriods")
	flat := s
	flat.Periods = nil
	if _, err := flat.Compile(); err != nil {
		t.Fatal(err)
	}
	unchanged("Compile of a periods-free copy")
}

func TestValidateRejects(t *testing.T) {
	web := WebSpec(100, 2)
	base := func(mut func(*Scenario)) Scenario {
		s := Scenario{Mode: "consolidated", Services: []Service{web}, Fleet: Fleet{Hosts: 2}}
		mut(&s)
		return s
	}
	neg := -1.0
	big := 1e9
	cases := []struct {
		name string
		s    Scenario
	}{
		{"bad mode", base(func(s *Scenario) { s.Mode = "hybrid" })},
		{"no services", base(func(s *Scenario) { s.Services = nil })},
		{"open and closed", base(func(s *Scenario) { s.Services[0].Clients = 5 })},
		{"neither open nor closed", base(func(s *Scenario) { s.Services[0].Arrivals = nil })},
		{"think time without clients", base(func(s *Scenario) {
			s.Services[0].ThinkTime = &stats.DistSpec{Kind: "exponential", Rate: 1}
		})},
		{"bad arrivals", base(func(s *Scenario) { s.Services[0].Arrivals = workload.PoissonSpec(-5) })},
		{"unknown profile preset", base(func(s *Scenario) { s.Services[0].Profile = Profile{Preset: "specweb-2099"} })},
		{"profile preset plus demands", base(func(s *Scenario) {
			s.Services[0].Profile.Demands = map[string]stats.DistSpec{"cpu": stats.ExpSpec(1)}
		})},
		{"inline profile without name", base(func(s *Scenario) {
			s.Services[0].Profile = Profile{Demands: map[string]stats.DistSpec{"cpu": stats.ExpSpec(1)}}
		})},
		{"negative demand scv", base(func(s *Scenario) { s.Services[0].Profile.DemandSCV = &neg })},
		{"unknown overhead preset", base(func(s *Scenario) { s.Services[0].Overhead = &Overhead{Preset: "kvm"} })},
		{"bad curve kind", base(func(s *Scenario) {
			s.Services[0].Overhead = &Overhead{Curves: map[string]Curve{"cpu": {Kind: "cubic"}}}
		})},
		{"bad pinning", base(func(s *Scenario) { s.Services[0].Overhead = &Overhead{Preset: "web", Pinning: "numa"} })},
		{"dedicated without pool", Scenario{Mode: "dedicated", Services: []Service{WebSpec(100, 0)}}},
		{"dedicated with fleet", Scenario{Mode: "dedicated", Services: []Service{web}, Fleet: Fleet{Hosts: 2}}},
		{"dedicated with alloc", Scenario{Mode: "dedicated", Services: []Service{web}, Alloc: &Alloc{Policy: "static"}}},
		{"hosts vs classes mismatch", base(func(s *Scenario) {
			s.Fleet.Classes = []HostClass{{Preset: "amd", Count: 3}}
		})},
		{"unknown class preset", base(func(s *Scenario) {
			s.Fleet.Hosts = 0
			s.Fleet.Classes = []HostClass{{Preset: "sparc", Count: 2}}
		})},
		{"class without count", base(func(s *Scenario) {
			s.Fleet.Hosts = 0
			s.Fleet.Classes = []HostClass{{Preset: "amd"}}
		})},
		{"alloc without policy", base(func(s *Scenario) { s.Alloc = &Alloc{} })},
		{"alloc flowing spelled out", base(func(s *Scenario) { s.Alloc = &Alloc{Policy: "flowing"} })},
		{"static with period", base(func(s *Scenario) { s.Alloc = &Alloc{Policy: "static", Period: 1} })},
		{"static weight count", base(func(s *Scenario) { s.Alloc = &Alloc{Policy: "static", Weights: []float64{1, 2}} })},
		{"proportional with priorities", base(func(s *Scenario) {
			s.Alloc = &Alloc{Policy: "proportional", Priorities: []int{0}}
		})},
		{"proportional min share", base(func(s *Scenario) { s.Alloc = &Alloc{Policy: "proportional", MinShare: 1.5} })},
		{"priority count", base(func(s *Scenario) { s.Alloc = &Alloc{Policy: "priority", Priorities: []int{0, 1}} })},
		{"alloc cost", base(func(s *Scenario) { s.Alloc = &Alloc{Policy: "proportional", Cost: 1} })},
		{"zero horizon", base(func(s *Scenario) { s.Horizon = -10 })},
		{"warmup past horizon", base(func(s *Scenario) { s.Horizon = 100; s.Warmup = &big })},
		{"mtbf without mttr", base(func(s *Scenario) { s.Failures = &Failures{MTBF: 100} })},
		{"negative mttr", base(func(s *Scenario) { s.Failures = &Failures{MTBF: 100, MTTR: -1} })},
		{"power platform", base(func(s *Scenario) { s.Power = &Power{BaseW: 100, MaxW: 200, Platform: "vmware"} })},
		{"power max below base", base(func(s *Scenario) { s.Power = &Power{BaseW: 300, MaxW: 200} })},
		{"precision with one rep", base(func(s *Scenario) { s.Replication = &Replication{Reps: 1, Precision: 0.05} })},
		{"negative reps", base(func(s *Scenario) { s.Replication = &Replication{Reps: -2} })},
		{"confidence", base(func(s *Scenario) { s.Replication = &Replication{Reps: 3, Confidence: 1.5} })},
	}
	for _, c := range cases {
		if err := c.s.Validate(); err == nil {
			t.Errorf("%s: validated", c.name)
		}
	}
}

// An input with several bad resources in one map gets one message every
// time: the one naming its least resource, whatever the map order.
func TestValidateNamesLeastBadResource(t *testing.T) {
	resources := []string{"network", "memory", "diskio", "cpu"}
	demands := map[string]stats.DistSpec{}
	curves := map[string]Curve{}
	capability := map[string]float64{}
	for _, r := range resources {
		demands[r] = stats.ExpSpec(-1)
		curves[r] = Curve{Kind: "cubic"}
		capability[r] = -1
	}
	withService := func(mut func(*Service)) Scenario {
		s := Scenario{Mode: "consolidated", Services: []Service{WebSpec(100, 2)}, Fleet: Fleet{Hosts: 2}}
		mut(&s.Services[0])
		return s
	}
	for _, c := range []struct {
		name string
		s    Scenario
		want string
	}{
		{"demands", withService(func(s *Service) { s.Profile = Profile{Name: "p", Demands: demands} }), `demand "cpu"`},
		{"curves", withService(func(s *Service) { s.Overhead = &Overhead{Curves: curves} }), `curve "cpu"`},
		{"capabilities", Scenario{Mode: "consolidated", Services: []Service{WebSpec(100, 2)},
			Fleet: Fleet{Classes: []HostClass{{Name: "x", Count: 2, Capability: capability}}}}, `capability["cpu"]`},
	} {
		first := c.s.Validate()
		if first == nil || !strings.Contains(first.Error(), c.want) {
			t.Errorf("%s: err = %v, want one naming %s", c.name, first, c.want)
			continue
		}
		for range 50 {
			if err := c.s.Validate(); err == nil || err.Error() != first.Error() {
				t.Errorf("%s: err = %v, then %v", c.name, first, err)
				break
			}
		}
	}
}

func TestParseRejects(t *testing.T) {
	bad := []string{
		``,
		`{`,
		`{"services": [], "typo_field": 1}`,
		`{"services": []}{"services": []}`, // trailing garbage
		`[1, 2, 3]`,
		`{"services": [], "event_queue": "heap"}`, // a retired field: old files carrying it must fail loudly
	}
	for _, in := range bad {
		if _, err := ParseBytes([]byte(in)); err == nil {
			t.Errorf("parsed %q", in)
		}
	}
}

// TestCompileMatchesHandBuilt pins the tentpole's determinism claim: a run
// from the compiled case-study scenario is bit-for-bit the run from the
// hand-built cluster.Config the experiments used to construct — same seed,
// same metrics.
func TestCompileMatchesHandBuilt(t *testing.T) {
	lambdaW, lambdaD := SaturationRates(4, 4)
	s := CaseStudy(4, 4, "consolidated", 4)
	s.Horizon = 24
	s.Seed = 7
	c, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}

	hand := cluster.Config{
		Mode: cluster.Consolidated,
		Services: []cluster.ServiceSpec{
			{
				Profile:          workload.SPECwebEcommerce(),
				Overhead:         virt.WebHostOverhead(),
				Arrivals:         workload.NewPoisson(lambdaW),
				DedicatedServers: 4,
			},
			{
				Profile:          workload.TPCWEbook(),
				Overhead:         virt.DBHostOverhead(),
				Arrivals:         workload.NewPoisson(lambdaD),
				DedicatedServers: 4,
			},
		},
		ConsolidatedServers: 4,
		Horizon:             24,
		Warmup:              4,
		Seed:                7,
	}

	got, err := cluster.Run(c.Cluster)
	if err != nil {
		t.Fatal(err)
	}
	want, err := cluster.Run(hand)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Services, want.Services) {
		t.Errorf("service metrics diverge:\ncompiled: %+v\nhand:     %+v", got.Services, want.Services)
	}
	if !reflect.DeepEqual(got.Hosts, want.Hosts) {
		t.Errorf("host metrics diverge")
	}
	if got.Window != want.Window || got.Failures != want.Failures {
		t.Errorf("window/failures diverge: %g/%d vs %g/%d",
			got.Window, got.Failures, want.Window, want.Failures)
	}
}

// TestCompileFreshArrivalState verifies each Compile materializes
// independent arrival-process state, so replications and repeated runs
// never share RNG-consuming structures.
func TestCompileFreshArrivalState(t *testing.T) {
	s, err := Preset("fig9-web-sessions")
	if err != nil {
		t.Fatal(err)
	}
	a, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if a.Cluster.Services[0].Arrivals == b.Cluster.Services[0].Arrivals {
		t.Fatal("compiled scenarios share arrival-process state")
	}
}
