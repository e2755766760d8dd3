package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// writeBench writes a minimal simbench-shaped file and returns its path.
func writeBench(t *testing.T, name, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const baseBench = `{"benchmarks":[
  {"name":"BenchmarkA","iterations":1000,"ns_per_op":100,"bytes_per_op":32,"allocs_per_op":1},
  {"name":"BenchmarkB","iterations":1000,"ns_per_op":2000,"bytes_per_op":0,"allocs_per_op":0}
]}`

// TestExitCodes pins benchdiff's contract for the four scenarios CI
// cares about: identical, improved, regressed, missing-metric.
func TestExitCodes(t *testing.T) {
	old := writeBench(t, "old.json", baseBench)
	cases := []struct {
		name     string
		newBody  string
		args     []string
		wantExit int
		wantOut  string
	}{
		{
			name:     "identical",
			newBody:  baseBench,
			wantExit: exitOK,
			wantOut:  "OK: no regressions",
		},
		{
			name: "improved",
			newBody: `{"benchmarks":[
  {"name":"BenchmarkA","iterations":1000,"ns_per_op":80,"bytes_per_op":32,"allocs_per_op":1},
  {"name":"BenchmarkB","iterations":1000,"ns_per_op":1500,"bytes_per_op":0,"allocs_per_op":0}
]}`,
			wantExit: exitOK,
			wantOut:  "improved",
		},
		{
			name: "regressed ns/op beyond threshold",
			newBody: `{"benchmarks":[
  {"name":"BenchmarkA","iterations":1000,"ns_per_op":200,"bytes_per_op":32,"allocs_per_op":1},
  {"name":"BenchmarkB","iterations":1000,"ns_per_op":2000,"bytes_per_op":0,"allocs_per_op":0}
]}`,
			wantExit: exitRegressed,
			wantOut:  "REGRESSED",
		},
		{
			name: "ns/op within threshold passes",
			newBody: `{"benchmarks":[
  {"name":"BenchmarkA","iterations":1000,"ns_per_op":140,"bytes_per_op":32,"allocs_per_op":1},
  {"name":"BenchmarkB","iterations":1000,"ns_per_op":2900,"bytes_per_op":0,"allocs_per_op":0}
]}`,
			wantExit: exitOK,
			wantOut:  "OK: no regressions",
		},
		{
			name: "any allocs/op increase regresses",
			newBody: `{"benchmarks":[
  {"name":"BenchmarkA","iterations":1000,"ns_per_op":100,"bytes_per_op":32,"allocs_per_op":1},
  {"name":"BenchmarkB","iterations":1000,"ns_per_op":2000,"bytes_per_op":0,"allocs_per_op":1}
]}`,
			wantExit: exitRegressed,
			wantOut:  "REGRESSED",
		},
		{
			name: "allocs increase tolerated with -allow-allocs",
			newBody: `{"benchmarks":[
  {"name":"BenchmarkA","iterations":1000,"ns_per_op":100,"bytes_per_op":32,"allocs_per_op":1},
  {"name":"BenchmarkB","iterations":1000,"ns_per_op":2000,"bytes_per_op":0,"allocs_per_op":1}
]}`,
			args:     []string{"-allow-allocs"},
			wantExit: exitOK,
			wantOut:  "OK: no regressions",
		},
		{
			name: "missing metric",
			newBody: `{"benchmarks":[
  {"name":"BenchmarkA","iterations":1000,"ns_per_op":100,"bytes_per_op":32,"allocs_per_op":1}
]}`,
			wantExit: exitMissing,
			wantOut:  "missing",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			newPath := writeBench(t, "new.json", tc.newBody)
			var stdout, stderr bytes.Buffer
			args := append(append([]string(nil), tc.args...), old, newPath)
			got := run(args, &stdout, &stderr)
			if got != tc.wantExit {
				t.Fatalf("exit = %d, want %d\nstdout:\n%s\nstderr:\n%s",
					got, tc.wantExit, stdout.String(), stderr.String())
			}
			if !strings.Contains(stdout.String(), tc.wantOut) {
				t.Fatalf("stdout missing %q:\n%s", tc.wantOut, stdout.String())
			}
		})
	}
}

// TestUngatedAllocsReported: a row simbench marks allocs_ungated reports
// its allocs/op as info, so a rise there passes, while B/op and ns/op on
// the row stay gated.
func TestUngatedAllocsReported(t *testing.T) {
	row := func(ns, bytes, allocs int) string {
		return fmt.Sprintf(`{"benchmarks":[{"name":"BenchmarkSweepPoint","iterations":30,"ns_per_op":%d,`+
			`"bytes_per_op":%d,"allocs_per_op":%d,"allocs_ungated":true}]}`, ns, bytes, allocs)
	}
	old := writeBench(t, "old.json", row(100, 1000, 818))
	for _, tc := range []struct {
		body     string
		wantExit int
	}{
		{row(100, 1000, 820), exitOK},
		{row(100, 2000, 818), exitRegressed},
		{row(200, 1000, 818), exitRegressed},
	} {
		var stdout, stderr bytes.Buffer
		if got := run([]string{old, writeBench(t, "new.json", tc.body)}, &stdout, &stderr); got != tc.wantExit {
			t.Fatalf("%s: exit = %d, want %d\n%s", tc.body, got, tc.wantExit, stdout.String())
		}
		if !strings.Contains(stdout.String(), "BenchmarkSweepPoint/allocs_per_op_ungated") {
			t.Fatalf("ungated allocs row not reported:\n%s", stdout.String())
		}
	}
}

// TestRegressionBeatsMissing: when both occur, the exit code reports the
// regression (the more actionable failure).
func TestRegressionBeatsMissing(t *testing.T) {
	old := writeBench(t, "old.json", baseBench)
	newPath := writeBench(t, "new.json", `{"benchmarks":[
  {"name":"BenchmarkA","iterations":1000,"ns_per_op":500,"bytes_per_op":32,"allocs_per_op":1}
]}`)
	var stdout, stderr bytes.Buffer
	if got := run([]string{old, newPath}, &stdout, &stderr); got != exitRegressed {
		t.Fatalf("exit = %d, want %d (regression should win)\n%s", got, exitRegressed, stdout.String())
	}
}

// TestManifestMetricsAccepted: a bare run manifest (metrics snapshot,
// no benchmarks array) diffs by gauge/counter name.
func TestManifestMetricsAccepted(t *testing.T) {
	old := writeBench(t, "old.json",
		`{"metrics":{"gauges":{"X/ns_per_op":100},"counters":{"events":10}}}`)
	newPath := writeBench(t, "new.json",
		`{"metrics":{"gauges":{"X/ns_per_op":300},"counters":{"events":10}}}`)
	var stdout, stderr bytes.Buffer
	if got := run([]string{old, newPath}, &stdout, &stderr); got != exitRegressed {
		t.Fatalf("exit = %d, want %d\n%s", got, exitRegressed, stdout.String())
	}
	if !strings.Contains(stdout.String(), "events") {
		t.Fatalf("counter row missing from report:\n%s", stdout.String())
	}
}

// TestUsageErrors covers the exit-3 paths: bad flags, wrong arity,
// unreadable file, malformed JSON, nonsense thresholds.
func TestUsageErrors(t *testing.T) {
	old := writeBench(t, "old.json", baseBench)
	bad := writeBench(t, "bad.json", `{`)
	empty := writeBench(t, "empty.json", `{}`)
	cases := [][]string{
		{},
		{old},
		{"-ns-threshold", "-1", old, old},
		{"-no-such-flag", old, old},
		{old, filepath.Join(t.TempDir(), "nope.json")},
		{old, bad},
		{old, empty},
	}
	for _, args := range cases {
		var stdout, stderr bytes.Buffer
		if got := run(args, &stdout, &stderr); got != exitUsageError {
			t.Errorf("run(%q) = %d, want %d", args, got, exitUsageError)
		}
	}
}

// TestMachineShapes: the report names each file's machine shape from its
// manifest config (a bench file's envelope or a bare manifest) and warns
// when they differ, without changing the verdict.
func TestMachineShapes(t *testing.T) {
	bench := func(nproc, procs int) string {
		return fmt.Sprintf(`{"manifest":{"config":{"benchtime":"20000x","nproc":"%d","gomaxprocs":"%d"}},`, nproc, procs) + baseBench[1:]
	}
	twoCore := writeBench(t, "two.json", bench(2, 2))
	cases := []struct {
		name, newBody, wantShapes string
		warn                      bool
	}{
		{"same shape", bench(2, 2), "machine: old nproc=2 GOMAXPROCS=2, new nproc=2 GOMAXPROCS=2", false},
		{"other shape", bench(4, 1), "machine: old nproc=2 GOMAXPROCS=2, new nproc=4 GOMAXPROCS=1", true},
		{"no shape", baseBench, "machine: old nproc=2 GOMAXPROCS=2, new unknown", true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			newPath := writeBench(t, "new.json", tc.newBody)
			var stdout, stderr bytes.Buffer
			if got := run([]string{twoCore, newPath}, &stdout, &stderr); got != exitOK {
				t.Fatalf("exit = %d, want %d\n%s", got, exitOK, stdout.String())
			}
			out := stdout.String()
			if !strings.Contains(out, tc.wantShapes) {
				t.Fatalf("stdout missing %q:\n%s", tc.wantShapes, out)
			}
			if got := strings.Contains(out, "WARNING"); got != tc.warn {
				t.Fatalf("warning printed = %v, want %v:\n%s", got, tc.warn, out)
			}
		})
	}
	manifest := writeBench(t, "manifest.json", `{"config":{"nproc":8,"gomaxprocs":8},"metrics":{"gauges":{"X/ns_per_op":100}}}`)
	var stdout, stderr bytes.Buffer
	run([]string{manifest, manifest}, &stdout, &stderr)
	if !strings.Contains(stdout.String(), "machine: old nproc=8 GOMAXPROCS=8, new nproc=8 GOMAXPROCS=8") {
		t.Fatalf("bare manifest shape missing:\n%s", stdout.String())
	}
}

// TestSpreadPrinted: the gate compares the recorded medians, not a slow
// outlier run, and reports each benchmark's run spread as info rows.
func TestSpreadPrinted(t *testing.T) {
	old := writeBench(t, "old.json", `{"benchmarks":[
  {"name":"BenchmarkA","iterations":30,"ns_per_op":100,"ns_per_op_min":90,"ns_per_op_max":300,"runs":3,"bytes_per_op":32,"allocs_per_op":1}
]}`)
	newPath := writeBench(t, "new.json", `{"benchmarks":[
  {"name":"BenchmarkA","iterations":30,"ns_per_op":120,"ns_per_op_min":110,"ns_per_op_max":1000,"runs":3,"bytes_per_op":32,"allocs_per_op":1}
]}`)
	var stdout, stderr bytes.Buffer
	if got := run([]string{old, newPath}, &stdout, &stderr); got != exitOK {
		t.Fatalf("exit = %d, want %d\n%s", got, exitOK, stdout.String())
	}
	for _, row := range []string{"BenchmarkA/ns_per_op_min", "BenchmarkA/ns_per_op_max"} {
		line := ""
		for _, l := range strings.Split(stdout.String(), "\n") {
			if strings.HasPrefix(l, row+" ") {
				line = l
			}
		}
		if !strings.HasSuffix(line, "info") {
			t.Fatalf("no info row for %s:\n%s", row, stdout.String())
		}
	}
}

// TestRungSummary: the report ends with one line per rung of the old
// file's ladder, in ladder order, counting the rows compared and
// regressed and giving the median new/old ns/op ratio; a rung without
// rows says so.
func TestRungSummary(t *testing.T) {
	old := writeBench(t, "old.json", `{"rungs":["analytic/eval","analytic/plan","simulation/desim"],"benchmarks":[
  {"name":"BenchmarkPlan","rung":"analytic/plan","ns_per_op":100,"bytes_per_op":10,"allocs_per_op":5},
  {"name":"BenchmarkPlanPeriods","rung":"analytic/plan","ns_per_op":200,"bytes_per_op":10,"allocs_per_op":5},
  {"name":"BenchmarkPlanMinServers","rung":"analytic/plan","ns_per_op":400,"bytes_per_op":10,"allocs_per_op":5},
  {"name":"BenchmarkDesimSchedule","rung":"simulation/desim","ns_per_op":50,"bytes_per_op":0,"allocs_per_op":0}
]}`)
	newPath := writeBench(t, "new.json", `{"benchmarks":[
  {"name":"BenchmarkPlan","ns_per_op":50,"bytes_per_op":10,"allocs_per_op":5},
  {"name":"BenchmarkPlanPeriods","ns_per_op":180,"bytes_per_op":10,"allocs_per_op":6},
  {"name":"BenchmarkPlanMinServers","ns_per_op":400,"bytes_per_op":10,"allocs_per_op":5},
  {"name":"BenchmarkDesimSchedule","ns_per_op":55,"bytes_per_op":0,"allocs_per_op":0}
]}`)
	var stdout, stderr bytes.Buffer
	if got := run([]string{old, newPath}, &stdout, &stderr); got != exitRegressed {
		t.Fatalf("exit = %d, want %d\n%s", got, exitRegressed, stdout.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	want := []string{
		"rung analytic/eval        no rows compared",
		"rung analytic/plan          3 rows compared, 1 regressed, median new/old ns/op 0.900",
		"rung simulation/desim       1 rows compared, 0 regressed, median new/old ns/op 1.100",
	}
	if got := lines[len(lines)-len(want):]; !reflect.DeepEqual(got, want) {
		t.Fatalf("rung lines\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
