#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the library from src/ and the
benchmark binary in perfbench/ (CMake, Release) under .bench_build/perfbench,
runs the helper self-tests, then runs one workload. The binary's last line of
standard output is the result object
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
and this script's exit code is the binary's (non-zero when an output is
wrong, a determinism check fails, or the build or self-test fails).
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("explore", "verify_arith", "partition_tiles", "service_mix")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def run_logged(cmd, log_path):
    with open(log_path, "a") as out:
        out.write("$ " + " ".join(cmd) + "\n")
        out.flush()
        return subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode


def build(build_dir):
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    if run_logged(["cmake", "-S", HERE, "-B", build_dir,
                   "-DCMAKE_BUILD_TYPE=Release", "-DEMORPHIC_CHECKS=OFF"],
                  log_path) != 0:
        return log_path
    jobs = str(min(4, os.cpu_count() or 1))
    if run_logged(["cmake", "--build", build_dir, "-j", jobs], log_path) != 0:
        return log_path
    return None


def tail(path, lines=30):
    try:
        with open(path) as f:
            return "".join(f.readlines()[-lines:])
    except OSError:
        return ""


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    build_dir = os.path.join(os.getcwd(), ".bench_build", "perfbench")
    failed_log = build(build_dir)
    if failed_log is not None:
        log("build failed; last lines of " + failed_log)
        sys.stderr.write(tail(failed_log))
        return 3

    # Socket paths stay relative to the checkout root: an absolute path can
    # exceed the 108-byte limit of a Unix-domain socket address.
    pid = os.getpid()
    rel_dir = os.path.relpath(build_dir)
    selftest = subprocess.run(
        [os.path.join(build_dir, "perfbench_selftest"),
         os.path.join(rel_dir, f"selftest-{pid}.sock")])
    if selftest.returncode != 0:
        log("helper self-tests failed")
        return 3

    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--socket", os.path.join(rel_dir, f"service-{pid}.sock")]
    if args.trace == "1":
        cmd += ["--trace-out", os.path.join(
            build_dir, f"trace-{args.workload}-{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench exceeded {RUN_TIMEOUT_S} s and was stopped")
        return 4
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        result = None
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        sys.stdout.write(proc.stdout)
        log(f"perfbench printed no result object (exit code {proc.returncode})")
        return proc.returncode or 5
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    print(json.dumps(result), flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
