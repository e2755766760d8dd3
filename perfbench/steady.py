#!/usr/bin/env python3
"""Measure the benchmark's run-to-run spread.

Runs every workload of BENCHMARK.json (or those named with --workloads)
once per seed, untraced, and prints for each end-to-end metric the median,
the first and third quartiles (statistics.quantiles, n=4) and the spread
(Q3 - Q1) / median next to the metric's bound; metrics the report prints
but BENCHMARK.json does not bound show a bound of 0. With --compare it also
reports how far this set's medians moved from a set saved earlier with
--save. With --trace it makes one extra traced run per workload and
prints the per-layer metrics with the tracing overhead on latency.

    python3 perfbench/steady.py --seeds 10 --save .bench_build/set1.json
    python3 perfbench/steady.py --seeds 10 --first-seed 11 --compare .bench_build/set1.json
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    start = time.monotonic()
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - start
    if out.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    res = json.loads(lines[-1])
    if not res["correct"] or res["failed"]:
        raise SystemExit(f"{workload} seed {seed}: {out.stdout}")
    if not trace:
        # The reported but unbounded end-to-end metrics ride in the provenance.
        prov = json.loads(lines[-2].split(" ", 1)[1])
        for name, v in prov.get("unbounded", {}).items():
            res["metrics"].setdefault(name, {"value": v})
    return res, wall


def main():
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--save", help="write this set's raw values to a JSON file")
    ap.add_argument("--compare", help="a file written by --save to compare medians against")
    ap.add_argument("--trace", action="store_true", help="add one traced run per workload")
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    units.update(error_rate="fraction", plan_watts="W")
    earlier = json.load(open(args.compare))["e2e"] if args.compare else {}
    values, traced_layers, walls = {}, {}, {}
    for w in args.workloads.split(","):
        values[w], walls[w] = {}, {"untraced": []}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            res, wall = run(w, seed, args.seconds, False)
            walls[w]["untraced"].append(wall)
            for name, m in res["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
        print(f"\n{w}: {args.seeds} runs, seeds {args.first_seed}..{args.first_seed + args.seeds - 1}, {args.seconds} s each,"
              f" longest run {max(walls[w]['untraced']):.1f} s with the build")
        print(f"  {'metric':16} {'unit':8} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}"
              + (f" {'earlier':>12} {'moved':>8}" if earlier else ""))
        for name in sorted(values[w]):
            xs = values[w][name]
            med = statistics.median(xs)
            q1, _, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med if med else 0.0
            line = f"  {name:16} {units.get(name, ''):8} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} {bounds.get(name, 0):6.3g}"
            if earlier.get(w, {}).get(name):
                old = statistics.median(earlier[w][name])
                line += f" {old:12.6g} {(med - old) / old if old else 0.0:+8.4f}"
            print(line)
        if args.trace:
            res, walls[w]["traced"] = run(w, args.first_seed, args.seconds, True)
            layers = res["metrics"]
            traced_layers[w] = {name: m["value"] for name, m in layers.items()}
            traced = layers["trace.latency_p50_ms"]["value"]
            untraced = statistics.median(values[w]["latency_p50_ms"])
            print(f"  traced run (seed {args.first_seed}, {walls[w]['traced']:.1f} s): latency_p50_ms {traced:.6g}, "
                  f"overhead {traced - untraced:+.6g} ms ({(traced - untraced) / untraced:+.2%}) against the untraced median")
            for name in sorted(layers):
                print(f"    {name:28} {layers[name]['value']:14.6g} {layers[name]['unit']}")
    if args.save:
        with open(args.save, "w") as f:
            json.dump({"e2e": values, "traced": traced_layers, "run_wall_s": walls}, f, indent=1)


if __name__ == "__main__":
    main()
