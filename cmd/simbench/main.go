// Command simbench runs the simulation-core benchmarks — the
// microbenchmarks (BenchmarkStationHighOccupancy, BenchmarkDesim*,
// BenchmarkSweepExpand, BenchmarkSweepPointKey, BenchmarkServeQuery,
// BenchmarkServeLoss, BenchmarkBContinuous/*) plus the whole-pipeline
// macro benchmarks BenchmarkRepro, BenchmarkShardedRun,
// BenchmarkSweepPoint, BenchmarkPlan* and BenchmarkServePlan/* — through
// `go test -bench` and records ns/op, B/op, allocs/op and (for the
// whole-run benchmarks) events/s in a JSON file, so the performance
// trajectory of the hot path is tracked in-repo from PR to PR.
//
// Each benchmark runs benchRuns times; its record is the median run by
// ns/op, with the extremes beside it and the largest B/op and allocs/op.
// The macro groups (BenchmarkShardedRun, BenchmarkSweepPoint,
// BenchmarkPlan*, BenchmarkServePlan/*) run a second time with the
// collector off, and their B/op and allocs/op come from that pass
// (gcFreeCounts). Rows whose count still moves between runs are marked
// allocs_ungated, and benchdiff reports their allocs/op without gating it.
//
// Benchmark names are recorded without the -N suffix `go test` appends
// when GOMAXPROCS is above 1, so files from machines of any core count
// share names; the manifest's config records the machine shape (nproc and
// GOMAXPROCS) instead.
//
// Every record carries its rung of the two benchmark ladders (rungs), and
// the file lists the rungs in ladder order, so benchdiff can say which
// layer moved.
//
// Usage:
//
//	go run ./cmd/simbench [-o BENCH_simcore.json] [-benchtime 20000x] [-macrotime 30x]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
)

// benchRuns is the -count of every `go test -bench` invocation.
const benchRuns = 3

// Record is one benchmark measurement.
type Record struct {
	Name       string  `json:"name"`
	Iterations int64   `json:"iterations"`
	NsPerOp    float64 `json:"ns_per_op"`
	// NsPerOpMin and NsPerOpMax bound NsPerOp, the median, over the runs.
	NsPerOpMin  float64 `json:"ns_per_op_min,omitempty"`
	NsPerOpMax  float64 `json:"ns_per_op_max,omitempty"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// AllocsUngated marks a row whose allocs/op is measured but not gated
	// (see allocsUngated).
	AllocsUngated bool `json:"allocs_ungated,omitempty"`
	// EventsPerSec is the simulator's aggregate event rate, reported only
	// by the whole-run benchmarks (BenchmarkShardedRun).
	EventsPerSec float64 `json:"events_per_sec,omitempty"`
	// Rung is the benchmark's ladder rung, "<ladder>/<rung>" (rungs).
	Rung string `json:"rung,omitempty"`
}

// rungs is the bench gate's one rung table: the analytic ladder (Erlang
// kernel → evaluator → planner → service) and the simulation ladder
// (station → desim queue → cluster run → sweep point → reproduction), in
// ladder order, each rung with the name prefixes of the benchmarks that
// measure it. No benchmark here measures the evaluator alone: Compile and
// Score run inside every planner row.
var rungs = []struct {
	name     string
	prefixes []string
}{
	{"analytic/erlang", []string{"BenchmarkBContinuous"}},
	{"analytic/eval", nil},
	{"analytic/plan", []string{"BenchmarkPlan"}},
	{"analytic/serve", []string{"BenchmarkServe"}},
	{"simulation/station", []string{"BenchmarkStation"}},
	{"simulation/desim", []string{"BenchmarkDesim"}},
	{"simulation/cluster", []string{"BenchmarkShardedRun"}},
	{"simulation/sweep", []string{"BenchmarkSweep"}},
	{"simulation/repro", []string{"BenchmarkRepro"}},
}

// tagRungs sets each record's rung from the table and returns the rung
// names in ladder order. A benchmark no rung claims is an error, so a
// new benchmark has to be placed on a ladder.
func tagRungs(records []Record) ([]string, error) {
	order := make([]string, len(rungs))
	for i, r := range rungs {
		order[i] = r.name
	}
	for i := range records {
		for _, r := range rungs {
			for _, p := range r.prefixes {
				if strings.HasPrefix(records[i].Name, p) {
					records[i].Rung = r.name
				}
			}
		}
		if records[i].Rung == "" {
			return nil, fmt.Errorf("%s is on no ladder rung; add its prefix to the rungs table", records[i].Name)
		}
	}
	return order, nil
}

// File is the BENCH_simcore.json layout: the legacy top-level fields
// (kept so older tooling still parses the file), the shared run-manifest
// envelope carrying provenance and a gauge mirror of every measurement,
// and the benchmark records themselves.
type File struct {
	GeneratedAt string        `json:"generated_at"`
	GoVersion   string        `json:"go_version"`
	BenchTime   string        `json:"bench_time"`
	Manifest    *obs.Manifest `json:"manifest,omitempty"`
	// Rungs lists the ladder rungs in ladder order.
	Rungs      []string `json:"rungs,omitempty"`
	Benchmarks []Record `json:"benchmarks"`
}

// benchLine matches `go test -bench -benchmem` result rows, e.g.
// BenchmarkStationHighOccupancy/k=1000-8  20000  215.2 ns/op  32 B/op  1 allocs/op
// with an optional custom events/s metric between ns/op and the -benchmem
// columns, e.g.
// BenchmarkShardedRun/shards=4-8  30  49581163 ns/op  3011370 events/s  ...
var benchLine = regexp.MustCompile(
	`^(Benchmark\S+)\s+(\d+)\s+([\d.]+) ns/op(?:\s+([\d.eE+]+) events/s)?(?:\s+(\d+) B/op)?(?:\s+(\d+) allocs/op)?`)

// runBench executes one `go test -bench -benchmem` invocation and
// aggregates its rows. gcOff runs the test binary, and only it, with
// GOGC=off.
func runBench(pattern, benchtime string, gcOff bool, pkgs ...string) []Record {
	args := []string{"test", "-run", "^$", "-bench", pattern, "-count", strconv.Itoa(benchRuns), "-benchmem"}
	if gcOff {
		args = append(args, "-exec", "env GOGC=off")
	}
	args = append(args, "-benchtime", benchtime)
	args = append(args, pkgs...)
	cmd := exec.Command("go", args...)
	cmd.Stderr = os.Stderr
	raw, err := cmd.Output()
	if err != nil {
		fmt.Fprintf(os.Stderr, "simbench: go %s: %v\n", strings.Join(args, " "), err)
		os.Exit(1)
	}
	return aggregate(parseBench(string(raw), runtime.GOMAXPROCS(0)))
}

// aggregate folds the runs of each benchmark, in first-seen order, into
// its median run by ns/op (the upper one of an even count), with the
// ns/op extremes and the largest B/op and allocs/op of all runs.
func aggregate(runs []Record) []Record {
	var names []string
	byName := map[string][]Record{}
	for _, r := range runs {
		if byName[r.Name] == nil {
			names = append(names, r.Name)
		}
		byName[r.Name] = append(byName[r.Name], r)
	}
	out := make([]Record, len(names))
	for i, name := range names {
		rs := byName[name]
		sort.Slice(rs, func(a, b int) bool { return rs[a].NsPerOp < rs[b].NsPerOp })
		out[i] = rs[len(rs)/2]
		out[i].NsPerOpMin, out[i].NsPerOpMax = rs[0].NsPerOp, rs[len(rs)-1].NsPerOp
		for _, r := range rs {
			out[i].BytesPerOp = max(out[i].BytesPerOp, r.BytesPerOp)
			out[i].AllocsPerOp = max(out[i].AllocsPerOp, r.AllocsPerOp)
		}
	}
	return out
}

// runTwoPass runs one macro group twice: ns/op from a pass at the
// default GOGC, B/op and allocs/op from a pass with the collector off.
// These benchmarks allocate 0.01–0.4 MB per op, so collections fall
// inside their loops, and every collection empties the sync.Pools an op
// draws from (the sweep engine's arenas, encoding/json's encodeState
// pool, fmt's printer pool and each pool's per-P array), which the next
// op refills: counted with the collector on, allocs/op moved with GC
// timing. At the macro count a pass without it holds at most about 10 MB
// of garbage.
func runTwoPass(pattern, benchtime string, pkgs ...string) []Record {
	out, err := gcFreeCounts(runBench(pattern, benchtime, false, pkgs...), runBench(pattern, benchtime, true, pkgs...))
	if err != nil {
		fmt.Fprintf(os.Stderr, "simbench: %v\n", err)
		os.Exit(1)
	}
	return out
}

// allocsUngated names the rows whose GOGC=off allocs/op still moves
// between runs, so benchdiff must not gate it. The sweep engine starts
// its point and replication workers every op, and the first run in a
// test process reads a few allocations more than later ones while the
// runtime's goroutine and pool caches settle: over twelve fresh processes
// the first run read 635 ten times and 636 twice (later runs 633–635), so
// a gate on the largest of three runs would flap. BenchmarkShardedRun's
// rows are gated: shards=1 starts no goroutine and read 667 every time,
// and shards=4, which starts three shard workers, read 879 or 880 and
// never more over 30 runs in ten processes.
var allocsUngated = map[string]bool{
	"BenchmarkSweepPoint": true,
}

// gcFreeCounts returns the timed records with their B/op and allocs/op
// replaced by those of counted, the same benchmarks run with GOGC=off,
// matched by name, and the rows in allocsUngated marked. A timed
// benchmark missing from counted is an error.
func gcFreeCounts(timed, counted []Record) ([]Record, error) {
	byName := make(map[string]Record, len(counted))
	for _, r := range counted {
		byName[r.Name] = r
	}
	out := make([]Record, len(timed))
	for i, r := range timed {
		c, ok := byName[r.Name]
		if !ok {
			return nil, fmt.Errorf("%s has no GOGC=off allocation count", r.Name)
		}
		r.BytesPerOp, r.AllocsPerOp = c.BytesPerOp, c.AllocsPerOp
		r.AllocsUngated = allocsUngated[r.Name]
		out[i] = r
	}
	return out, nil
}

// parseBench parses `go test -bench` output run at GOMAXPROCS procs,
// dropping the -<procs> suffix `go test` appends to every benchmark name
// when procs > 1 (and only that suffix: a sub-benchmark may end in a
// number of its own).
func parseBench(out string, procs int) []Record {
	suffix := ""
	if procs > 1 {
		suffix = "-" + strconv.Itoa(procs)
	}
	var records []Record
	for _, line := range strings.Split(out, "\n") {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		iters, _ := strconv.ParseInt(m[2], 10, 64)
		ns, _ := strconv.ParseFloat(m[3], 64)
		var eps float64
		var bytes, allocs int64
		if m[4] != "" {
			eps, _ = strconv.ParseFloat(m[4], 64)
		}
		if m[5] != "" {
			bytes, _ = strconv.ParseInt(m[5], 10, 64)
		}
		if m[6] != "" {
			allocs, _ = strconv.ParseInt(m[6], 10, 64)
		}
		records = append(records, Record{
			Name:         strings.TrimSuffix(m[1], suffix),
			Iterations:   iters,
			NsPerOp:      ns,
			BytesPerOp:   bytes,
			AllocsPerOp:  allocs,
			EventsPerSec: eps,
		})
	}
	return records
}

func main() {
	out := flag.String("o", "BENCH_simcore.json", "output file")
	benchtime := flag.String("benchtime", "20000x", "go test -benchtime value for the microbenchmarks (a fixed count keeps runs comparable)")
	macrotime := flag.String("macrotime", "30x", "go test -benchtime value for the macro benchmarks (milliseconds per op)")
	flag.Parse()

	man := obs.NewManifest("simbench", 0)
	man.Config = map[string]string{
		"benchtime":  *benchtime,
		"macrotime":  *macrotime,
		"count":      strconv.Itoa(benchRuns),
		"nproc":      strconv.Itoa(runtime.NumCPU()),
		"gomaxprocs": strconv.Itoa(runtime.GOMAXPROCS(0)),
	}

	records := runBench(
		"BenchmarkStationHighOccupancy|BenchmarkDesim|BenchmarkSweepExpand|BenchmarkSweepPointKey|BenchmarkRepro|BenchmarkServeQuery|BenchmarkServeLoss|BenchmarkBContinuous",
		*benchtime, false,
		"./internal/cluster", "./internal/desim", "./internal/sweep", "./internal/serve", "./internal/erlang")
	// The whole-run shard benchmark is ~10^5 slower per op than the
	// microbenchmarks; a fixed 20000x count would run for hours, so it
	// gets its own much smaller fixed count. One sweep-hosts grid point
	// (the sweep-point rung, whose arenas live in the engine's sync.Pool)
	// is milliseconds per op, so it too gets the macro count.
	records = append(records, runTwoPass("BenchmarkShardedRun", *macrotime, "./internal/cluster")...)
	records = append(records, runTwoPass("BenchmarkSweepPoint$", *macrotime, "./internal/sweep")...)
	// The placement planner scores a few to a few hundred placements per
	// op (10 µs–2 ms); like the sharded run it gets the macro count. Its
	// analytic candidates score inline on one goroutine, so counted
	// without collections its allocations repeat run to run.
	records = append(records, runTwoPass("BenchmarkPlan", *macrotime, "./internal/plan")...)
	// POST /v1/plan in process (the served rung) runs the same planners
	// behind one warm-up request, so its allocation counts repeat too.
	records = append(records, runTwoPass("BenchmarkServePlan", *macrotime, "./internal/serve")...)
	if len(records) == 0 {
		fmt.Fprintln(os.Stderr, "simbench: no benchmark results parsed")
		os.Exit(1)
	}
	order, err := tagRungs(records)
	if err != nil {
		fmt.Fprintf(os.Stderr, "simbench: %v\n", err)
		os.Exit(1)
	}

	verCmd := exec.Command("go", "env", "GOVERSION")
	ver, _ := verCmd.Output()

	// Mirror every measurement into the manifest's metric snapshot so
	// bench files and run manifests share one machine-readable shape.
	reg := obs.NewRegistry()
	for _, r := range records {
		reg.Gauge(r.Name + "/ns_per_op").Set(r.NsPerOp)
		reg.Gauge(r.Name + "/bytes_per_op").Set(float64(r.BytesPerOp))
		reg.Gauge(r.Name + "/allocs_per_op").Set(float64(r.AllocsPerOp))
		if r.EventsPerSec > 0 {
			reg.Gauge(r.Name + "/events_per_sec").Set(r.EventsPerSec)
		}
	}
	man.Finish(reg.Snapshot())

	data, err := json.MarshalIndent(File{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   strings.TrimSpace(string(ver)),
		BenchTime:   *benchtime,
		Manifest:    man,
		Rungs:       order,
		Benchmarks:  records,
	}, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "simbench: %v\n", err)
		os.Exit(1)
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "simbench: %v\n", err)
		os.Exit(1)
	}
	for _, r := range records {
		fmt.Printf("%-19s %-45s %12.1f ns/op [%.1f, %.1f] %6d B/op %4d allocs/op", r.Rung, r.Name, r.NsPerOp, r.NsPerOpMin, r.NsPerOpMax, r.BytesPerOp, r.AllocsPerOp)
		if r.AllocsUngated {
			fmt.Print(" (ungated)")
		}
		if r.EventsPerSec > 0 {
			fmt.Printf(" %12.0f events/s", r.EventsPerSec)
		}
		fmt.Println()
	}
	fmt.Printf("wrote %s\n", *out)
}
