// Command perfbench is the repository's end-to-end benchmark. One
// invocation runs one workload in this process — an in-process
// serve.Server on a loopback listener for the planner workloads, a
// sweep.Engine for the simulator workload — and prints a
// readable report followed, as its last line, by one JSON result:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Untraced runs (-trace 0) report the end-to-end metrics; traced runs
// (-trace 1) record spans around calls into each layer and report the
// per-layer metrics. See README.md for the workloads and the layer map.
//
// Build and run it through run.py, which builds the binary from the
// checkout it sits in:
//
//	python3 perfbench/run.py --workload plan-hetero --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// opTimeout bounds one op; an op that exceeds it counts as failed.
const opTimeout = 10 * time.Second

// opts is one invocation's arguments.
type opts struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	root     string // checkout root: inputs and goldens are read from here
	outDir   string // traces are written here
}

// workloadDef is one workload: how to run it and why it exists.
type workloadDef struct {
	run func(o opts) (*runResult, error)
	// why is printed in the report; README.md has the long form.
	why string
}

var workloads = map[string]workloadDef{
	"plan-hetero": {runPlanHetero, "closed-loop POST /v1/plan on fractional host classes (BContinuous-bound)"},
	"plan-day":    {runPlanDay, "closed-loop POST /v1/plan over a 24-bin day (memo reads, cloning, segmentation DP)"},
	"sim-sweep":   {runSimSweep, "closed-loop sweep.Engine.RunPoints on a one-slot pool (sweep, cluster, desim)"},
}

// runResult is what one workload run measured.
type runResult struct {
	setups       []time.Duration // one per round
	lat          []time.Duration // one per timed op
	segmentRates []float64       // each timed segment's ops ÷ its wall time
	wall         time.Duration   // wall time of the timed segments
	cpu          time.Duration   // user+sys CPU of this process over the timed segments
	rssPeakMB    float64         // peak resident set, read right after the last segment
	attempted    int
	failed       int      // ops that failed, timed out or answered wrongly
	wrong        int      // wrong outputs, of timed ops or of the traced replay
	problems     []string // the first few failure descriptions
	planWatts    float64  // the plan's watts; 0 for workloads without a plan

	// layers holds the per-layer metrics; traced runs only.
	layers map[string]float64
	// info is workload-specific provenance (rates, limits, op counts).
	info map[string]any
}

// fail counts one failed or timed-out op.
func (r *runResult) fail(format string, args ...any) {
	r.failed++
	r.note(format, args...)
}

// wrongOp counts one op whose answer was wrong.
func (r *runResult) wrongOp(format string, args ...any) {
	r.failed++
	r.wrong++
	r.note(format, args...)
}

// incorrect counts a wrong output that is not a timed op's: a traced
// replay that disagrees with the program, say.
func (r *runResult) incorrect(format string, args ...any) {
	r.wrong++
	r.note(format, args...)
}

// note keeps the first few problem descriptions for the report.
func (r *runResult) note(format string, args ...any) {
	if len(r.problems) < 8 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o opts
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed; every workload repeats fixed inputs, so it only names the run and its trace file")
	fs.IntVar(&o.seconds, "seconds", 10, "nominal length of the timed segments together; op counts scale with it")
	fs.IntVar(&trace, "trace", 0, "1 records spans and reports per-layer metrics")
	fs.StringVar(&o.root, "root", ".", "repository root holding the inputs and goldens")
	fs.StringVar(&o.outDir, "out", ".bench_build/perfbench", "directory for trace files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[o.workload]
	switch {
	case !ok:
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", o.workload, strings.Join(workloadNames(), ", "))
		return 2
	case o.seconds < 1:
		fmt.Fprintf(stderr, "perfbench: -seconds %d (want >= 1)\n", o.seconds)
		return 2
	case trace != 0 && trace != 1:
		fmt.Fprintf(stderr, "perfbench: -trace %d (want 0 or 1)\n", trace)
		return 2
	case fs.NArg() > 0:
		fmt.Fprintf(stderr, "perfbench: unexpected arguments %q\n", fs.Args())
		return 2
	}
	o.trace = trace == 1

	res, err := w.run(o)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	if err := report(stdout, o, w, res); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd computes the untraced metrics from the run and its windowed
// timing. The JSON result carries those in boundedMetrics, the ones
// BENCHMARK.json bounds; the report prints all of them.
func endToEnd(r *runResult, win windowSummary) map[string]metric {
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	ops := float64(len(r.lat))
	return map[string]metric{
		"setup_s":         {medianDuration(r.setups).Seconds(), "s"},
		"latency_p50_ms":  {ms(win.p50), "ms"},
		"latency_tail_ms": {ms(win.tail), "ms"},
		"ops_per_s":       {median(append([]float64(nil), r.segmentRates...)), "1/s"},
		"cpu_ms_per_op":   {ms(r.cpu) / ops, "ms"},
		"rss_peak_mb":     {r.rssPeakMB, "MB"},
		"success_rate":    {float64(r.attempted-r.failed) / float64(r.attempted), "fraction"},
		"error_rate":      {float64(r.failed) / float64(r.attempted), "fraction"},
	}
}

// boundedMetrics are the end-to-end metrics BENCHMARK.json lists. The
// others are reported but not bounded: error_rate is 0 in a healthy run,
// so it is bounded through success_rate, and plan_watts has no value on
// sim-sweep.
var boundedMetrics = []string{"setup_s", "latency_p50_ms", "latency_tail_ms", "ops_per_s", "cpu_ms_per_op", "rss_peak_mb", "success_rate"}

// layerUnits maps every per-layer metric BENCHMARK.json lists to its unit.
// Every traced run reports all of them; a layer a workload does not
// exercise reads 0.
var layerUnits = map[string]string{
	"serve.requests": "count", "serve.handler_ms": "ms", "serve.wait_ms": "ms", "serve.errors": "count",
	"erlang.memo_hits": "count", "erlang.memo_misses": "count", "erlang.memo_fallbacks": "count",
	"erlang.memo_rhos": "count", "erlang.memo_hit_ratio": "ratio",
	"eval.evaluations_per_op": "count", "eval.ms_per_evaluation": "ms", "eval.busy_ms_per_op": "ms",
	"plan.search_ms": "ms", "plan.self_ms": "ms", "plan.watts": "W",
	"scenario.parse_ms": "ms", "scenario.resolve_periods_ms": "ms", "scenario.compile_ms": "ms",
	"pool.units_run": "count", "pool.peak_active": "count",
	"sweep.points": "count", "sweep.cache_hits": "count", "sweep.ms_per_point": "ms",
	"cluster.runs": "count", "cluster.ms_per_run": "ms", "cluster.admissions": "count",
	"cluster.losses": "count", "cluster.vt_advances": "count",
	"desim.events_fired": "count", "desim.events_scheduled": "count", "desim.events_cancelled": "count",
	"desim.queue_high_water": "count", "desim.ns_per_event": "ns",
	"trace.latency_p50_ms": "ms", "trace.ops_per_s": "1/s", "trace.spans": "count",
}

// report prints the readable summary, the provenance line and the JSON
// result, in that order; the JSON result is the last line.
func report(w io.Writer, o opts, wl workloadDef, r *runResult) error {
	lat := summarize(r.lat)
	e2e := endToEnd(r, lat)
	fmt.Fprintf(w, "workload %s: %s\n", o.workload, wl.why)
	names := make([]string, 0, len(e2e))
	for n := range e2e {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-16s %14.6g %s\n", n, e2e[n].Value, e2e[n].Unit)
	}
	if r.planWatts > 0 {
		fmt.Fprintf(w, "  %-16s %14.6g W\n", "plan_watts", r.planWatts)
	}
	fmt.Fprintf(w, "  latency over %d ops in %d windows of >= %d: median of window p50s and of window p%s (>= %d beyond)\n",
		len(r.lat), lat.windows, lat.minWindow, lat.pct.label, lat.pct.beyond)
	for _, p := range r.problems {
		fmt.Fprintf(w, "  problem: %s\n", p)
	}

	out := result{
		Correct:   r.wrong == 0 && r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metric{},
	}
	unbounded := map[string]float64{}
	for n, m := range e2e {
		unbounded[n] = m.Value
	}
	for _, n := range boundedMetrics {
		out.Metrics[n] = e2e[n]
		delete(unbounded, n)
	}
	if r.planWatts > 0 {
		unbounded["plan_watts"] = r.planWatts
	}
	if o.trace {
		out.Metrics = map[string]metric{}
		for n, u := range layerUnits {
			out.Metrics[n] = metric{r.layers[n], u}
		}
		out.Metrics["trace.latency_p50_ms"] = metric{e2e["latency_p50_ms"].Value, "ms"}
		out.Metrics["trace.ops_per_s"] = metric{e2e["ops_per_s"].Value, "1/s"}
		lnames := make([]string, 0, len(out.Metrics))
		for n := range out.Metrics {
			lnames = append(lnames, n)
		}
		sort.Strings(lnames)
		for _, n := range lnames {
			fmt.Fprintf(w, "  %-28s %14.6g %s\n", n, out.Metrics[n].Value, out.Metrics[n].Unit)
		}
	}

	prov := provenance(o)
	setups := make([]float64, len(r.setups))
	for i, d := range r.setups {
		setups[i] = d.Seconds()
	}
	prov["rounds"] = rounds
	prov["setups_s"] = setups
	prov["ops_per_run"] = len(r.lat)
	prov["timed_wall_s"] = r.wall.Seconds()
	prov["latency_windows"] = lat.windows
	prov["window_ops_min"] = lat.minWindow
	prov["tail_percentile"] = "p" + lat.pct.label
	prov["tail_samples_beyond"] = lat.pct.beyond
	prov["unbounded"] = unbounded
	for k, v := range r.info {
		prov[k] = v
	}
	pj, err := json.Marshal(prov)
	if err != nil {
		return fmt.Errorf("encode provenance: %w", err)
	}
	fmt.Fprintf(w, "provenance %s\n", pj)

	rj, err := json.Marshal(out)
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	_, err = fmt.Fprintf(w, "%s\n", rj)
	return err
}

// readInput reads a file of the tree under test, relative to the root.
func readInput(o opts, rel string) ([]byte, error) {
	return os.ReadFile(filepath.Join(o.root, filepath.FromSlash(rel)))
}
