#!/usr/bin/env python3
"""Build and run the layered mcdft benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload analyze-full --seed 1 --seconds 15 --trace 0

The first call configures and builds perfbench/ (the repository's libraries
plus the driver) into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench
when that variable is unset; later calls rebuild only what changed.  Build
output goes to stderr.  The driver's last stdout line, a JSON object with
"correct", "attempted", "failed" and "metrics", is also this script's last
stdout line.  Exit status 0 only when the build, the benchmark self-test and
the run all succeeded.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["analyze-full", "optimize-zoo", "transient-full", "service-mix"]
RUN_TIMEOUT_S = 175


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def clean_env():
    # MCDFT_* variables (threads, metrics, SIMD level, ...) would change what
    # is measured; the driver sets every knob it needs explicitly.
    return {k: v for k, v in os.environ.items() if not k.startswith("MCDFT_")}


def build(out_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=clean_env()).returncode != 0:
            print("perfbench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def run_checked(cmd):
    """Run `cmd`, forward its stdout; return (exit code, last stdout line)."""
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=clean_env(),
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: %s timed out" % cmd[0], file=sys.stderr)
        return 1, ""
    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    return proc.returncode, lines[-1] if lines else ""


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be >= 0")
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")

    out_dir = build_dir()
    if not build(out_dir):
        return 1
    manifest = os.path.join(ROOT, "BENCHMARK.json")
    code, _ = run_checked(
        [os.path.join(out_dir, "perfbench_selftest"), manifest])
    if code != 0:
        print("perfbench: self-test failed", file=sys.stderr)
        return 1

    cmd = [os.path.join(out_dir, "perfbench_driver"),
           "--workload", args.workload,
           "--seconds", repr(args.seconds),
           "--trace", str(args.trace)]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    code, last = run_checked(cmd)
    if code != 0:
        print("perfbench: driver exited with %d" % code, file=sys.stderr)
        return 1
    try:
        result = json.loads(last)
    except ValueError:
        print("perfbench: driver printed no result line", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
