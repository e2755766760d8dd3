#!/usr/bin/env python3
"""Build the perfbench binary from this checkout and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload plan-hetero --seed 1 --seconds 10 --trace 0

Everything the build and the run write stays under .bench_build/ in the
checkout: the Go build cache, the binary and the trace files. The Go
toolchain must already be installed; nothing is downloaded. The workload
runs with GOGC, GOMAXPROCS and GODEBUG at their defaults. The last line of
standard output is the run's JSON result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench", "perfbench")

# A run must end within 180 s; the workload itself takes --seconds plus
# set-up, checks and (traced) a replay of every op.
RUN_TIMEOUT_S = 170


def go_env():
    env = dict(os.environ)
    for key in ("GOGC", "GOMAXPROCS", "GODEBUG", "GOFLAGS", "GOMEMLIMIT", "GOWORK"):
        env.pop(key, None)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOSUMDB="off",
        GOWORK="off",
        GOTELEMETRY="off",
    )
    return env


def main():
    if not (os.path.isfile(os.path.join(ROOT, "go.mod")) and os.path.isdir(os.path.join(ROOT, "internal"))):
        print("perfbench: no repository source around perfbench/ (need ../go.mod and ../internal)", file=sys.stderr)
        return 2
    env = go_env()
    os.makedirs(os.path.dirname(BINARY), exist_ok=True)
    build = subprocess.run(["go", "build", "-o", BINARY, "."], cwd=HERE, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    cmd = [BINARY, "-root", ROOT, "-out", os.path.join(BUILD, "perfbench", "traces")] + sys.argv[1:]
    try:
        return subprocess.run(cmd, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
