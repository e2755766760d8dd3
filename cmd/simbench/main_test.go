package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// parseBench drops exactly the -<GOMAXPROCS> suffix `go test` appends when
// GOMAXPROCS > 1 — never a number a sub-benchmark's own name ends in —
// and reads the optional events/s and -benchmem columns.
func TestParseBenchStripsProcsSuffix(t *testing.T) {
	out := `goos: linux
BenchmarkStationHighOccupancy/k=1000-2   	   20000	       215.2 ns/op	      32 B/op	       1 allocs/op
BenchmarkShardedRun/shards=4-2           	      30	  49581163 ns/op	   3011370 events/s
BenchmarkServePlan/plan-day-2            	      30	    315062 ns/op	  187311 B/op	     918 allocs/op
BenchmarkSweep/n-12-2                    	      10	       100 ns/op
PASS
ok  	repro/internal/cluster	1.234s
`
	want := []Record{
		{Name: "BenchmarkStationHighOccupancy/k=1000", Iterations: 20000, NsPerOp: 215.2, BytesPerOp: 32, AllocsPerOp: 1},
		{Name: "BenchmarkShardedRun/shards=4", Iterations: 30, NsPerOp: 49581163, EventsPerSec: 3011370},
		{Name: "BenchmarkServePlan/plan-day", Iterations: 30, NsPerOp: 315062, BytesPerOp: 187311, AllocsPerOp: 918},
		{Name: "BenchmarkSweep/n-12", Iterations: 10, NsPerOp: 100},
	}
	if got := parseBench(out, 2); !reflect.DeepEqual(got, want) {
		t.Fatalf("GOMAXPROCS=2:\ngot  %+v\nwant %+v", got, want)
	}

	// At GOMAXPROCS=1 go test appends nothing, so nothing is stripped.
	one := parseBench("BenchmarkSweep/n-1   \t10\t100 ns/op\n", 1)
	if len(one) != 1 || one[0].Name != "BenchmarkSweep/n-1" {
		t.Fatalf("GOMAXPROCS=1: %+v", one)
	}
	// Only the exact suffix goes: -12 at GOMAXPROCS=12, not a trailing -2.
	twelve := parseBench("BenchmarkA/x-2-12   \t10\t100 ns/op\nBenchmarkB-12   \t10\t100 ns/op\n", 12)
	if len(twelve) != 2 || twelve[0].Name != "BenchmarkA/x-2" || twelve[1].Name != "BenchmarkB" {
		t.Fatalf("GOMAXPROCS=12: %+v", twelve)
	}
}

// aggregate folds -count runs per benchmark, in first-seen order, into
// the median run by ns/op with the ns/op extremes beside it and the
// largest B/op and allocs/op any run reported.
func TestAggregateRuns(t *testing.T) {
	runs := []Record{
		{Name: "BenchmarkPlan", Iterations: 30, NsPerOp: 300, BytesPerOp: 100, AllocsPerOp: 9},
		{Name: "BenchmarkShardedRun/shards=4", Iterations: 30, NsPerOp: 5e7, EventsPerSec: 3e6},
		{Name: "BenchmarkPlan", Iterations: 30, NsPerOp: 100, BytesPerOp: 120, AllocsPerOp: 9},
		{Name: "BenchmarkShardedRun/shards=4", Iterations: 30, NsPerOp: 4e7, EventsPerSec: 4e6},
		{Name: "BenchmarkPlan", Iterations: 30, NsPerOp: 200, BytesPerOp: 100, AllocsPerOp: 10},
		{Name: "BenchmarkShardedRun/shards=4", Iterations: 30, NsPerOp: 6e7, EventsPerSec: 2e6},
		{Name: "BenchmarkSweepPoint", Iterations: 30, NsPerOp: 9},
		{Name: "BenchmarkSweepPoint", Iterations: 30, NsPerOp: 7},
	}
	want := []Record{
		{Name: "BenchmarkPlan", Iterations: 30, NsPerOp: 200, NsPerOpMin: 100, NsPerOpMax: 300, BytesPerOp: 120, AllocsPerOp: 10},
		{Name: "BenchmarkShardedRun/shards=4", Iterations: 30, NsPerOp: 5e7, NsPerOpMin: 4e7, NsPerOpMax: 6e7, EventsPerSec: 3e6},
		// An even count takes the upper of the middle two runs.
		{Name: "BenchmarkSweepPoint", Iterations: 30, NsPerOp: 9, NsPerOpMin: 7, NsPerOpMax: 9},
	}
	if got := aggregate(runs); !reflect.DeepEqual(got, want) {
		t.Fatalf("got  %+v\nwant %+v", got, want)
	}
}

// gcFreeCounts keeps the timed pass's ns/op and spread and takes B/op and
// allocs/op from the GOGC=off pass, by name and in the timed order; a
// benchmark the GOGC=off pass did not report is an error, not a silent
// fallback to the collector-dependent count.
func TestGCFreeCounts(t *testing.T) {
	timed := []Record{
		{Name: "BenchmarkServePlan/plan-hetero", Iterations: 30, NsPerOp: 80, NsPerOpMin: 70, NsPerOpMax: 90, BytesPerOp: 19100, AllocsPerOp: 188},
		{Name: "BenchmarkServePlan/plan-day", Iterations: 30, NsPerOp: 300, NsPerOpMin: 250, NsPerOpMax: 350, BytesPerOp: 104000, AllocsPerOp: 554},
	}
	counted := []Record{
		{Name: "BenchmarkServePlan/plan-day", Iterations: 30, NsPerOp: 280, BytesPerOp: 103200, AllocsPerOp: 552},
		{Name: "BenchmarkServePlan/plan-hetero", Iterations: 30, NsPerOp: 75, BytesPerOp: 19000, AllocsPerOp: 187},
	}
	want := []Record{
		{Name: "BenchmarkServePlan/plan-hetero", Iterations: 30, NsPerOp: 80, NsPerOpMin: 70, NsPerOpMax: 90, BytesPerOp: 19000, AllocsPerOp: 187},
		{Name: "BenchmarkServePlan/plan-day", Iterations: 30, NsPerOp: 300, NsPerOpMin: 250, NsPerOpMax: 350, BytesPerOp: 103200, AllocsPerOp: 552},
	}
	got, err := gcFreeCounts(timed, counted)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got  %+v\nwant %+v", got, want)
	}
	if _, err := gcFreeCounts(timed, counted[:1]); err == nil {
		t.Fatal("a benchmark missing from the GOGC=off pass was accepted")
	}
}

// gcFreeCounts marks the rows whose GOGC=off count still moves between
// runs, and only those, as ungated.
func TestGCFreeCountsMarksUngatedRows(t *testing.T) {
	rows := []Record{
		{Name: "BenchmarkShardedRun/shards=1", AllocsPerOp: 667},
		{Name: "BenchmarkShardedRun/shards=4", AllocsPerOp: 880},
		{Name: "BenchmarkSweepPoint", AllocsPerOp: 820},
	}
	got, err := gcFreeCounts(rows, rows)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []bool{false, false, true} {
		if got[i].AllocsUngated != want {
			t.Fatalf("%s: allocs_ungated = %v, want %v", got[i].Name, got[i].AllocsUngated, want)
		}
	}
}

// Every row of the committed baseline sits on a ladder rung, the rungs
// come in ladder order, and a benchmark no rung claims is an error.
func TestTagRungs(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCH_simcore.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	records := f.Benchmarks
	for i := range records {
		records[i].Rung = ""
	}
	order, err := tagRungs(records)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"analytic/erlang", "analytic/eval", "analytic/plan", "analytic/serve",
		"simulation/station", "simulation/desim", "simulation/cluster", "simulation/sweep", "simulation/repro"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("rung order %v, want %v", order, want)
	}
	for _, r := range records {
		switch {
		case strings.HasPrefix(r.Name, "BenchmarkServePlan/"), strings.HasPrefix(r.Name, "BenchmarkServeQuery"):
			if r.Rung != "analytic/serve" {
				t.Errorf("%s on rung %q", r.Name, r.Rung)
			}
		case strings.HasPrefix(r.Name, "BenchmarkPlan"):
			if r.Rung != "analytic/plan" {
				t.Errorf("%s on rung %q", r.Name, r.Rung)
			}
		}
	}
	if _, err := tagRungs([]Record{{Name: "BenchmarkNowhere"}}); err == nil {
		t.Fatal("a benchmark on no rung was tagged")
	}
}
