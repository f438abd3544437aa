#!/usr/bin/env python3
"""Build and run the inline-path benchmark.

    python3 inlinebench/run.py --workload <clean_bulk|evasion_mix|flow_flood> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first call configures and builds
inlinebench/ (which compiles the repository's libraries from src/) into
.bench_build/inlinebench; later calls only re-check the build. The last line
of standard output is the benchmark's JSON result. With --trace 1 the spans
file is written to .bench_out/spans-<workload>-seed<seed>.json.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "inlinebench")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("clean_bulk", "evasion_mix", "flow_flood")
RUN_TIMEOUT_S = 170


def build():
    """Configure once, then let the build tool decide what is stale."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target", "inline_bench"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("inlinebench: build step failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    a = ap.parse_args()
    if a.seed < 0 or not 1 <= a.seconds <= 600:
        ap.error("--seed must be >= 0 and --seconds in [1, 600]")

    build()
    cmd = [os.path.join(BUILD, "inline_bench"), "--workload", a.workload,
           "--seed", str(a.seed), "--seconds", str(a.seconds), "--trace", str(a.trace)]
    if a.trace:
        os.makedirs(OUT, exist_ok=True)
        cmd += ["--spans", os.path.join(OUT, "spans-%s-seed%d.json" % (a.workload, a.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        sys.exit("inlinebench: run exceeded %d s" % RUN_TIMEOUT_S)
    out = proc.stdout.decode()
    if proc.returncode != 0:
        sys.stderr.write(out)
        sys.exit(proc.returncode)
    sys.stdout.write(out)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
