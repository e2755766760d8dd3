package main

import (
	"bytes"
	"flag"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/scenario"
)

var update = flag.Bool("update", false, "rewrite the plan and solve golden files")

// TestMain runs the command itself in a test binary that consolidate
// re-executed.
func TestMain(m *testing.M) {
	if os.Getenv("CONSOLIDATE_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// consolidate runs the command with args in a re-executed test binary
// and returns what it printed to stdout.
func consolidate(t *testing.T, args ...string) []byte {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "CONSOLIDATE_RUN_MAIN=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("consolidate %s: %v: %s", strings.Join(args, " "), err, stderr.Bytes())
	}
	return out
}

const validSpec = `{
  "lossTarget": 0.05,
  "form": "harmonic",
  "power": {"base": 250, "max": 340},
  "services": [
    {
      "name": "web",
      "arrivalRate": 1280,
      "servingRates":  {"diskio": 1420, "cpu": 3360},
      "impactFactors": {"diskio": 0.98, "cpu": 0.63}
    },
    {
      "name": "db",
      "arrivalRate": 90,
      "servingRates": {"cpu": 100}
    }
  ]
}`

func TestParseSpecValid(t *testing.T) {
	m, err := parseSpec([]byte(validSpec))
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Services) != 2 {
		t.Fatalf("services = %d", len(m.Services))
	}
	if m.Form != core.TrafficHarmonic {
		t.Fatalf("form = %v", m.Form)
	}
	if m.Power.Base != 250 || m.Power.Max != 340 {
		t.Fatalf("power = %+v", m.Power)
	}
	if m.Services[0].ServingRates[core.DiskIO] != 1420 {
		t.Fatal("serving rates lost")
	}
	if m.Services[0].ImpactFactors[core.CPU] != 0.63 {
		t.Fatal("impact factors lost")
	}
	// The parsed model solves.
	res, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if res.Dedicated.Servers <= 0 {
		t.Fatal("degenerate plan")
	}
}

func TestParseSpecDefaultsToRestrictedForm(t *testing.T) {
	spec := strings.Replace(validSpec, `"form": "harmonic",`, "", 1)
	m, err := parseSpec([]byte(spec))
	if err != nil {
		t.Fatal(err)
	}
	if m.Form != core.TrafficEq5Restricted {
		t.Fatalf("default form = %v", m.Form)
	}
}

// The rejection table refuses contradictory flag combinations instead of
// silently preferring one source.
func TestCheckFlagConflicts(t *testing.T) {
	cases := []struct {
		name         string
		explicit     []string
		scenarioPath string
		specPath     string
		writeSpec    string
		caseStudy    bool
		doPlan       bool
		doPeriods    bool
		wantErr      bool
	}{
		{name: "scenario alone", scenarioPath: "s.json"},
		{name: "plan over scenario", scenarioPath: "s.json", doPlan: true},
		{name: "scenario+spec", scenarioPath: "s.json", specPath: "m.json", wantErr: true},
		{name: "scenario+casestudy", scenarioPath: "s.json", caseStudy: true, wantErr: true},
		{name: "spec+casestudy", specPath: "m.json", caseStudy: true, wantErr: true},
		{name: "web without casestudy", explicit: []string{"web"}, scenarioPath: "s.json", wantErr: true},
		{name: "target without scenario", explicit: []string{"target"}, specPath: "m.json", wantErr: true},
		{name: "plan without scenario", specPath: "m.json", doPlan: true, wantErr: true},
		{name: "plan+json", explicit: []string{"json"}, scenarioPath: "s.json", doPlan: true, wantErr: true},
		{name: "plan+sensitivity", explicit: []string{"sensitivity"}, scenarioPath: "s.json", doPlan: true, wantErr: true},
		{name: "plan+write", explicit: []string{"write"}, scenarioPath: "s.json", doPlan: true, wantErr: true},
		{name: "objective without plan", explicit: []string{"objective"}, scenarioPath: "s.json", wantErr: true},
		{name: "evaluator without plan", explicit: []string{"evaluator"}, scenarioPath: "s.json", wantErr: true},
		{name: "target with scenario", explicit: []string{"target"}, scenarioPath: "s.json"},
		{name: "periods plan", explicit: []string{"periods"}, scenarioPath: "s.json", doPlan: true, doPeriods: true},
		{name: "periods without plan", explicit: []string{"periods"}, scenarioPath: "s.json", doPeriods: true, wantErr: true},
		{name: "migration-cost with periods", explicit: []string{"migration-cost"}, scenarioPath: "s.json", doPlan: true, doPeriods: true},
		{name: "migration-cost without periods", explicit: []string{"migration-cost"}, scenarioPath: "s.json", doPlan: true, wantErr: true},
		{name: "migration-cost without plan", explicit: []string{"migration-cost"}, scenarioPath: "s.json", wantErr: true},
		{name: "json+sensitivity", explicit: []string{"json", "sensitivity"}, scenarioPath: "s.json", wantErr: true},
		{name: "json+write stdout", explicit: []string{"json", "write"}, scenarioPath: "s.json", writeSpec: "-", wantErr: true},
		{name: "json+write file", explicit: []string{"json", "write"}, scenarioPath: "s.json", writeSpec: "m.json"},
		{name: "write stdout", explicit: []string{"write"}, scenarioPath: "s.json", writeSpec: "-"},
	}
	for _, c := range cases {
		explicit := map[string]bool{}
		for _, name := range c.explicit {
			explicit[name] = true
		}
		err := checkFlagConflicts(explicit, c.scenarioPath, c.specPath, c.writeSpec, c.caseStudy, c.doPlan, c.doPeriods)
		if (err != nil) != c.wantErr {
			t.Errorf("%s: err = %v, wantErr = %v", c.name, err, c.wantErr)
		}
	}
}

// A scenario file loads through the shared evaluation layer and plans
// deterministically.
func TestRunPlanOnExampleScenario(t *testing.T) {
	s, err := loadScenario("../../examples/scenarios/casestudy.json")
	if err != nil {
		t.Fatal(err)
	}
	out, err := runPlan(s, 0.05, "min-servers", "analytic", false, 0)
	if err != nil {
		t.Fatal(err)
	}
	again, err := runPlan(s, 0.05, "min-servers", "analytic", false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != string(again) {
		t.Fatal("plan output not byte-stable")
	}
	if out[len(out)-1] != '\n' {
		t.Fatal("plan output must be newline-terminated for byte-diffed goldens")
	}
	if _, err := runPlan(s, 0.05, "min-servers", "quantum", false, 0); err == nil {
		t.Fatal("unknown evaluator accepted")
	}
	s.Fleet = scenario.Fleet{Classes: []scenario.HostClass{{Preset: "amd", Count: 100000}}}
	if _, err := runPlan(s, 0.05, "min-servers", "analytic", false, 0); err == nil || !strings.Contains(err.Error(), "supply") {
		t.Fatalf("class supply past the planner's bound: err = %v", err)
	}
}

// The encodable CLI surface pins a finite migration charge: JSON cannot
// carry ±Inf, so non-finite and negative costs are refused up front.
func TestRunPlanPeriodsRejectsNonFiniteCost(t *testing.T) {
	s, err := loadScenario("../../examples/scenarios/periods-day.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, cost := range []float64{math.Inf(1), math.Inf(-1), math.NaN(), -3} {
		if _, err := runPlan(s, 0.05, "min-servers", "analytic", true, cost); err == nil {
			t.Errorf("migration cost %g accepted", cost)
		}
	}
}

// The committed plan goldens are the same files CI's planner-smoke job
// byte-diffs against the real binary's stdout; regenerate with
// `go test ./cmd/consolidate -run TestPlanGoldens -update`.
func TestPlanGoldens(t *testing.T) {
	cases := []struct {
		golden    string
		scenario  string
		objective string
		periods   bool
		costWh    float64
		evaluator string // "" is analytic
	}{
		{golden: "plan-sharded-fleet.json", scenario: "../../examples/scenarios/sharded-fleet.json", objective: "min-servers"},
		{golden: "plan-hetero.json", scenario: "../../examples/scenarios/plan-hetero.json", objective: "min-power"},
		{golden: "plan-hetero-min-servers.json", scenario: "../../examples/scenarios/plan-hetero.json", objective: "min-servers"},
		{golden: "plan-blades.json", scenario: "testdata/plan-blades.json", objective: "min-power"},
		{golden: "plan-blades-min-servers.json", scenario: "testdata/plan-blades.json", objective: "min-servers"},
		{golden: "plan-periods.json", scenario: "../../examples/scenarios/periods-day.json", objective: "min-servers", periods: true, costWh: 12},
		// The day scored by the event simulator: a few seconds of it.
		{golden: "plan-periods-sim.json", scenario: "testdata/periods-day-sim.json", objective: "min-servers", periods: true, costWh: 12, evaluator: "sim"},
	}
	for _, c := range cases {
		if c.evaluator == "" {
			c.evaluator = "analytic"
		} else if testing.Short() {
			continue
		}
		s, err := loadScenario(c.scenario)
		if err != nil {
			t.Fatalf("%s: %v", c.scenario, err)
		}
		out, err := runPlan(s, 0.05, c.objective, c.evaluator, c.periods, c.costWh)
		if err != nil {
			t.Fatalf("%s: %v", c.golden, err)
		}
		path := filepath.Join("testdata", "golden", c.golden)
		if *update {
			if err := os.WriteFile(path, out, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (run with -update to create)", err)
		}
		if !bytes.Equal(out, want) {
			t.Errorf("%s drifted from its golden; got:\n%s", c.golden, out)
		}
	}
}

func TestParseSpecErrors(t *testing.T) {
	cases := []struct {
		name string
		spec string
	}{
		{"garbage", `not json`},
		{"unknown form", strings.Replace(validSpec, "harmonic", "quantum", 1)},
		{"unknown field", `{"lossTarget":0.05,"bogus":1,"services":[]}`},
		{"invalid model", `{"lossTarget":0.05,"services":[]}`},
		{"bad loss target", strings.Replace(validSpec, "0.05", "1.5", 1)},
		{"trailing data", validSpec + " junk"},
	}
	for _, c := range cases {
		if _, err := parseSpec([]byte(c.spec)); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
}

// The solve's text, its JSON and the model -write prints are the same
// bytes CI's planner-smoke job diffs against the real binary's stdout;
// regenerate with `go test ./cmd/consolidate -run TestSolveGoldens -update`.
func TestSolveGoldens(t *testing.T) {
	const caseStudy = "../../examples/scenarios/casestudy.json"
	cases := []struct {
		golden string
		args   []string
	}{
		{"solve-casestudy.txt", []string{"-casestudy"}},
		{"solve-casestudy-scenario.txt", []string{"-scenario", caseStudy}},
		{"solve-casestudy-scenario.json", []string{"-scenario", caseStudy, "-json"}},
		{"solve-casestudy-scenario-write.txt", []string{"-scenario", caseStudy, "-write", "-"}},
	}
	for _, c := range cases {
		out := consolidate(t, c.args...)
		path := filepath.Join("testdata", "golden", c.golden)
		if *update {
			if err := os.WriteFile(path, out, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (run with -update to create)", err)
		}
		if !bytes.Equal(out, want) {
			t.Errorf("%s drifted from its golden; got:\n%s", c.golden, out)
		}
	}
}

// -json with -write FILE prints the solve's JSON and writes the file
// -write alone writes.
func TestJSONWritesFile(t *testing.T) {
	const s = "../../examples/scenarios/casestudy.json"
	dir := t.TempDir()
	alone, withJSON := filepath.Join(dir, "alone.json"), filepath.Join(dir, "with-json.json")
	consolidate(t, "-scenario", s, "-write", alone)
	out := consolidate(t, "-scenario", s, "-json", "-write", withJSON)
	want, err := os.ReadFile(alone)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(withJSON)
	if err != nil {
		t.Fatalf("-json -write FILE wrote no file: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("-json -write FILE wrote\n%s\nwant what -write FILE writes:\n%s", got, want)
	}
	if golden, err := os.ReadFile(filepath.Join("testdata", "golden", "solve-casestudy-scenario.json")); err != nil || !bytes.Equal(out, golden) {
		t.Errorf("-json -write FILE printed\n%s\nwant the -json golden (%v)", out, err)
	}
}

// A scenario with a demand of mean 0 writes a model file that -spec loads
// and solves as the scenario solves: the demand places no load, so the
// file has no entry for it (JSON has no +Inf serving rate).
func TestWriteZeroMeanDemand(t *testing.T) {
	const s = "testdata/zero-mean.json"
	spec := filepath.Join(t.TempDir(), "model.json")
	consolidate(t, "-scenario", s, "-write", spec)
	raw, err := os.ReadFile(spec)
	if err != nil {
		t.Fatal(err)
	}
	if m, err := parseSpec(raw); err != nil || len(m.Services) != 2 || len(m.Services[1].ServingRates) != 1 {
		t.Fatalf("written model %s: %v", raw, err)
	}
	if got, want := consolidate(t, "-spec", spec, "-json"), consolidate(t, "-scenario", s, "-json"); !bytes.Equal(got, want) {
		t.Errorf("-spec solve of the written model:\n%s\nwant the scenario's:\n%s", got, want)
	}
}
