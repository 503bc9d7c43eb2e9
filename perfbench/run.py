#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run it from the repository root. It configures and builds perfbench/
(the src/ libraries plus the benchmark program, Release) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is
unset, then runs one workload. Context lines start with '#'; the last
line of stdout is the result JSON. Build output and diagnostics go to
stderr. Exits nonzero, printing no result, when the program cannot be
built, and nonzero when a correctness check failed.
"""

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    """Configure and build; returns the binary path or exits nonzero."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("perfbench: no src/ tree at %s; nothing to build" % ROOT)
    bdir = build_dir()
    bdir.mkdir(parents=True, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(bdir),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(bdir), "--target", "perfbench", "-j", jobs],
    ]
    for cmd in steps:
        try:
            rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                timeout=BUILD_TIMEOUT_S).returncode
        except (OSError, subprocess.TimeoutExpired) as e:
            sys.exit("perfbench: build failed: %s" % e)
        if rc != 0:
            sys.exit("perfbench: build step failed (%d): %s"
                     % (rc, " ".join(cmd)))
    return bdir / "perfbench"


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if trace else "end_to_end"
    return {m["name"] for m in spec[key]}


def check_result(result, trace):
    """Problems with the result's shape; [] when it is well formed."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result keys are %s" % sorted(result))
        return problems
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    names = set(result["metrics"])
    for name in sorted(names):
        if not NAME_RE.match(name):
            problems.append("invalid metric name %r" % name)
    if (ROOT / "BENCHMARK.json").is_file():
        declared = declared_metrics(trace)
        for name in sorted(declared - names):
            problems.append("declared metric %s not emitted" % name)
        for name in sorted(names - declared):
            problems.append("emitted metric %s not declared" % name)
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full")
    args = ap.parse_args()

    binary = build()
    out = build_dir() / "out"
    out.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scale", args.scale, "--out", str(out)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.exit("perfbench: no result (exit %d)" % proc.returncode)
    result = json.loads(lines[-1])
    problems = check_result(result, args.trace)
    for line in lines[:-1]:
        print(line)
    print(lines[-1])
    for p in problems:
        print("perfbench: " + p, file=sys.stderr)
    if problems:
        return 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
