// Command simbench runs the simulation-core benchmarks — the
// microbenchmarks (BenchmarkStationHighOccupancy, BenchmarkDesimSchedule*,
// BenchmarkSweep*, BenchmarkServe*, BenchmarkBContinuous/*) plus the
// whole-pipeline macro benchmarks BenchmarkRepro, BenchmarkShardedRun and
// BenchmarkPlan — through `go test -bench` and records ns/op, B/op,
// allocs/op and (for the whole-run benchmarks) events/s in a JSON file,
// so the performance trajectory of the hot path is tracked in-repo from
// PR to PR.
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
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
)

// Record is one benchmark measurement.
type Record struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// EventsPerSec is the simulator's aggregate event rate, reported only
	// by the whole-run benchmarks (BenchmarkShardedRun).
	EventsPerSec float64 `json:"events_per_sec,omitempty"`
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
	Benchmarks  []Record      `json:"benchmarks"`
}

// benchLine matches `go test -bench -benchmem` result rows, e.g.
// BenchmarkStationHighOccupancy/k=1000-8  20000  215.2 ns/op  32 B/op  1 allocs/op
// with an optional custom events/s metric between ns/op and the -benchmem
// columns, e.g.
// BenchmarkShardedRun/shards=4-8  30  49581163 ns/op  3011370 events/s  ...
var benchLine = regexp.MustCompile(
	`^(Benchmark\S+)\s+(\d+)\s+([\d.]+) ns/op(?:\s+([\d.eE+]+) events/s)?(?:\s+(\d+) B/op)?(?:\s+(\d+) allocs/op)?`)

// runBench executes one `go test -bench` invocation and parses its rows.
// benchmem is off for the parallel whole-run benchmark: its allocation
// counts jitter with goroutine scheduling, and the allocs gate treats any
// increase as a regression.
func runBench(pattern, benchtime string, benchmem bool, pkgs ...string) []Record {
	args := []string{"test", "-run", "^$", "-bench", pattern}
	if benchmem {
		args = append(args, "-benchmem")
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

	var records []Record
	for _, line := range strings.Split(string(raw), "\n") {
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
			Name:         m[1],
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
	macrotime := flag.String("macrotime", "30x", "go test -benchtime value for the whole-run BenchmarkShardedRun (tens of ms per op)")
	flag.Parse()

	man := obs.NewManifest("simbench", 0)
	man.Config = map[string]string{"benchtime": *benchtime, "macrotime": *macrotime}

	records := runBench(
		"BenchmarkStationHighOccupancy|BenchmarkDesimSchedule|BenchmarkSweep|BenchmarkRepro|BenchmarkServe|BenchmarkBContinuous",
		*benchtime, true,
		"./internal/cluster", "./internal/desim", "./internal/sweep", "./internal/serve", "./internal/erlang")
	// The whole-run shard benchmark is ~10^5 slower per op than the
	// microbenchmarks; a fixed 20000x count would run for hours, so it
	// gets its own much smaller fixed count.
	records = append(records, runBench("BenchmarkShardedRun", *macrotime, false, "./internal/cluster")...)
	// The placement planner runs a few dozen evaluations per op (~1 ms);
	// like the sharded run it gets the macro count, and its pool-parallel
	// batches make allocation counts jitter, so -benchmem stays off.
	records = append(records, runBench("BenchmarkPlan", *macrotime, false, "./internal/plan")...)
	if len(records) == 0 {
		fmt.Fprintln(os.Stderr, "simbench: no benchmark results parsed")
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
		fmt.Printf("%-45s %12.1f ns/op %6d B/op %4d allocs/op", r.Name, r.NsPerOp, r.BytesPerOp, r.AllocsPerOp)
		if r.EventsPerSec > 0 {
			fmt.Printf(" %12.0f events/s", r.EventsPerSec)
		}
		fmt.Println()
	}
	fmt.Printf("wrote %s\n", *out)
}
