// Command benchdiff compares two benchmark/manifest JSON files and exits
// non-zero on a thresholded regression — the machine-checkable half of
// the CI bench-regression gate.
//
// Usage:
//
//	benchdiff [-ns-threshold 1.5] [-bytes-threshold 1.5] [-allow-allocs] old.json new.json
//
// Both simbench output (BENCH_simcore.json, a "benchmarks" array) and
// run manifests (a "metrics" snapshot) are accepted; each is flattened
// into metric rows named <benchmark>/ns_per_op etc. Gating rules apply
// by metric suffix:
//
//   - .../ns_per_op regresses when new > old × ns-threshold (wall-clock
//     noise gets a generous multiplicative margin);
//   - .../allocs_per_op regresses on any increase (allocation counts are
//     deterministic — 0 allocs/op is a property, not a measurement),
//     except on a row simbench marks allocs_ungated, whose count still
//     moves between runs: it is reported as .../allocs_per_op_ungated;
//   - .../bytes_per_op regresses when new > old × bytes-threshold;
//   - anything else is reported but never gates, such as the spread
//     (.../ns_per_op_min and _max) around simbench's median ns_per_op.
//
// The report opens with each file's machine shape (nproc and GOMAXPROCS,
// from its manifest config) and warns when the two differ: ns/op then
// compares machines as well as code. It ends with one line per ladder
// rung simbench tagged in the old file: the benchmark rows compared, the
// rows with a regressed metric, and the median new/old ns/op ratio, so a
// report says which layer moved.
//
// Exit codes: 0 no regression (identical or improved), 1 regression,
// 2 metric present in old but missing from new, 3 usage or read error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// Exit codes.
const (
	exitOK         = 0
	exitRegressed  = 1
	exitMissing    = 2
	exitUsageError = 3
)

// options are the gating thresholds.
type options struct {
	nsThreshold    float64 // ratio; new/old above this regresses
	bytesThreshold float64
	allowAllocs    bool // tolerate allocs/op increases
}

// benchFile is the subset of simbench's File / obs.Manifest layout
// benchdiff consumes.
type benchFile struct {
	Rungs      []string `json:"rungs"`
	Benchmarks []struct {
		Name          string  `json:"name"`
		Rung          string  `json:"rung"`
		NsPerOp       float64 `json:"ns_per_op"`
		NsPerOpMin    float64 `json:"ns_per_op_min"`
		NsPerOpMax    float64 `json:"ns_per_op_max"`
		BytesPerOp    int64   `json:"bytes_per_op"`
		AllocsPerOp   int64   `json:"allocs_per_op"`
		AllocsUngated bool    `json:"allocs_ungated"`
	} `json:"benchmarks"`
	Metrics *metricsBlock `json:"metrics"`
	// A bare manifest carries the snapshot under "metrics"; a manifest
	// envelope inside a bench file is ignored in favour of "benchmarks",
	// except for the machine shape its config records.
	Config   json.RawMessage `json:"config"`
	Manifest *struct {
		Config json.RawMessage `json:"config"`
	} `json:"manifest"`
}

type metricsBlock struct {
	Counters map[string]uint64  `json:"counters"`
	Gauges   map[string]float64 `json:"gauges"`
}

// ladder is the rung tagging of a simbench file: the rungs in ladder
// order and each benchmark's rung.
type ladder struct {
	order []string
	of    map[string]string
}

// loadMetrics flattens one file into metric rows and reports the
// machine shape it was measured on and its rung tagging.
func loadMetrics(path string) (map[string]float64, string, ladder, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, "", ladder{}, err
	}
	var f benchFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, "", ladder{}, fmt.Errorf("%s: %w", path, err)
	}
	lad := ladder{order: f.Rungs, of: map[string]string{}}
	config := f.Config
	if f.Manifest != nil {
		config = f.Manifest.Config
	}
	m := map[string]float64{}
	switch {
	case len(f.Benchmarks) > 0:
		for _, b := range f.Benchmarks {
			if b.Rung != "" {
				lad.of[b.Name] = b.Rung
			}
			m[b.Name+"/ns_per_op"] = b.NsPerOp
			m[b.Name+"/bytes_per_op"] = float64(b.BytesPerOp)
			allocs := b.Name + "/allocs_per_op"
			if b.AllocsUngated {
				allocs += "_ungated"
			}
			m[allocs] = float64(b.AllocsPerOp)
			if b.NsPerOpMax > 0 {
				m[b.Name+"/ns_per_op_min"] = b.NsPerOpMin
				m[b.Name+"/ns_per_op_max"] = b.NsPerOpMax
			}
		}
	case f.Metrics != nil:
		for k, v := range f.Metrics.Gauges {
			m[k] = v
		}
		for k, v := range f.Metrics.Counters {
			m[k] = float64(v)
		}
	default:
		return nil, "", ladder{}, fmt.Errorf("%s: neither a benchmarks array nor a metrics snapshot", path)
	}
	return m, machineShape(config), lad, nil
}

// machineShape renders the nproc and GOMAXPROCS a manifest config
// records (cmd/simbench stamps both), or "unknown".
func machineShape(config json.RawMessage) string {
	var c map[string]any
	// A config that is absent or not an object records no shape.
	_ = json.Unmarshal(config, &c)
	nproc, ok := c["nproc"]
	procs, ok2 := c["gomaxprocs"]
	if !ok || !ok2 {
		return "unknown"
	}
	return fmt.Sprintf("nproc=%v GOMAXPROCS=%v", nproc, procs)
}

// verdict classifies one metric's movement.
type verdict int

const (
	vOK verdict = iota
	vRegressed
	vMissing
	vInfo // not a gated metric
)

// judge applies the suffix rule for one metric.
func judge(name string, old, cur float64, opts options) verdict {
	switch {
	case strings.HasSuffix(name, "/ns_per_op"):
		if cur > old*opts.nsThreshold {
			return vRegressed
		}
	case strings.HasSuffix(name, "/allocs_per_op"):
		if cur > old && !opts.allowAllocs {
			return vRegressed
		}
	case strings.HasSuffix(name, "/bytes_per_op"):
		if cur > old*opts.bytesThreshold {
			return vRegressed
		}
	default:
		return vInfo
	}
	return vOK
}

// diff compares the two metric sets, writes the report (ending with the
// per-rung summary of lad), and returns the exit code.
func diff(oldM, newM map[string]float64, opts options, lad ladder, out io.Writer) int {
	code := gate(oldM, newM, opts, out)
	summarizeRungs(oldM, newM, opts, lad, out)
	return code
}

// summarizeRungs writes one line per rung of lad: the benchmark rows of
// that rung present in both files, how many of them have a regressed
// gated metric, and the median new/old ns/op ratio over those rows.
func summarizeRungs(oldM, newM map[string]float64, opts options, lad ladder, out io.Writer) {
	compared := map[string]map[string]bool{} // rung -> benchmark -> regressed
	ratios := map[string][]float64{}
	for name, old := range oldM {
		i := strings.LastIndexByte(name, '/')
		if i < 0 {
			continue
		}
		bench := name[:i]
		rung, ok := lad.of[bench]
		cur, present := newM[name]
		if !ok || !present {
			continue
		}
		if compared[rung] == nil {
			compared[rung] = map[string]bool{}
		}
		compared[rung][bench] = compared[rung][bench] || judge(name, old, cur, opts) == vRegressed
		if strings.HasSuffix(name, "/ns_per_op") && old > 0 {
			ratios[rung] = append(ratios[rung], cur/old)
		}
	}
	for _, rung := range lad.order {
		rows := compared[rung]
		if len(rows) == 0 {
			fmt.Fprintf(out, "rung %-20s no rows compared\n", rung)
			continue
		}
		regressed := 0
		for _, r := range rows {
			if r {
				regressed++
			}
		}
		rs := ratios[rung]
		sort.Float64s(rs)
		median := math.NaN()
		if n := len(rs); n > 0 {
			median = (rs[(n-1)/2] + rs[n/2]) / 2
		}
		fmt.Fprintf(out, "rung %-20s %3d rows compared, %d regressed, median new/old ns/op %.3f\n", rung, len(rows), regressed, median)
	}
}

// gate writes the metric table and verdict and returns the exit code.
func gate(oldM, newM map[string]float64, opts options, out io.Writer) int {
	names := make([]string, 0, len(oldM))
	for name := range oldM {
		names = append(names, name)
	}
	sort.Strings(names)

	regressed, missing := 0, 0
	fmt.Fprintf(out, "%-60s %14s %14s %8s  %s\n", "metric", "old", "new", "delta", "verdict")
	for _, name := range names {
		old := oldM[name]
		cur, ok := newM[name]
		if !ok {
			missing++
			fmt.Fprintf(out, "%-60s %14.4g %14s %8s  MISSING\n", name, old, "-", "-")
			continue
		}
		v := judge(name, old, cur, opts)
		delta := "0%"
		if old != 0 {
			delta = fmt.Sprintf("%+.1f%%", 100*(cur-old)/old)
		} else if cur != 0 {
			delta = "+inf"
		}
		label := "ok"
		switch v {
		case vRegressed:
			regressed++
			label = "REGRESSED"
		case vInfo:
			label = "info"
		default:
			if cur < old {
				label = "improved"
			}
		}
		fmt.Fprintf(out, "%-60s %14.4g %14.4g %8s  %s\n", name, old, cur, delta, label)
	}
	added := 0
	for name := range newM {
		if _, ok := oldM[name]; !ok {
			added++
		}
	}
	if added > 0 {
		fmt.Fprintf(out, "(%d new metric(s) in the new file, not gated)\n", added)
	}
	switch {
	case regressed > 0:
		fmt.Fprintf(out, "FAIL: %d metric(s) regressed beyond thresholds (ns/op x%.2g, bytes/op x%.2g, allocs strict=%v)\n",
			regressed, opts.nsThreshold, opts.bytesThreshold, !opts.allowAllocs)
		return exitRegressed
	case missing > 0:
		fmt.Fprintf(out, "FAIL: %d metric(s) missing from the new file\n", missing)
		return exitMissing
	}
	fmt.Fprintln(out, "OK: no regressions")
	return exitOK
}

// run is the testable entry point.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	nsThreshold := fs.Float64("ns-threshold", 1.5, "ns/op regression ratio (new/old beyond this fails)")
	bytesThreshold := fs.Float64("bytes-threshold", 1.5, "bytes/op regression ratio")
	allowAllocs := fs.Bool("allow-allocs", false, "tolerate allocs/op increases")
	if err := fs.Parse(args); err != nil {
		return exitUsageError
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: benchdiff [flags] old.json new.json")
		return exitUsageError
	}
	if *nsThreshold <= 0 || *bytesThreshold <= 0 ||
		math.IsNaN(*nsThreshold) || math.IsNaN(*bytesThreshold) {
		fmt.Fprintln(stderr, "benchdiff: thresholds must be positive")
		return exitUsageError
	}
	oldM, oldShape, lad, err := loadMetrics(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(stderr, "benchdiff: %v\n", err)
		return exitUsageError
	}
	newM, newShape, _, err := loadMetrics(fs.Arg(1))
	if err != nil {
		fmt.Fprintf(stderr, "benchdiff: %v\n", err)
		return exitUsageError
	}
	fmt.Fprintf(stdout, "machine: old %s, new %s\n", oldShape, newShape)
	if oldShape != newShape {
		fmt.Fprintln(stdout, "WARNING: the files come from different machine shapes; ns/op compares the machines as well as the code")
	}
	return diff(oldM, newM, options{
		nsThreshold:    *nsThreshold,
		bytesThreshold: *bytesThreshold,
		allowAllocs:    *allowAllocs,
	}, lad, stdout)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}
