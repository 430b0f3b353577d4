#!/usr/bin/env python3
"""Builds kf_perfbench from source and runs one benchmark workload.

Run from the repository root:

    python3 perfbench/run.py --workload tpch_mix --seed 1 --seconds 15 --trace 0

The first run configures and builds perfbench/CMakeLists.txt in Release under
.bench_build/ (about a minute on 4 cores); later runs only check the build.
Build output goes to standard error. The benchmark's last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 1 the span log is written to .bench_build/spans_<workload>.json.

Exits non-zero without a result line when the build or the run fails, and
with the benchmark's own non-zero code when a query failed its check.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "kf_perfbench")
WORKLOADS = ("tpch_mix", "serve_merged", "serve_guarded")


def build():
    """Configures (once) and builds the benchmark binary; True on success."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    step = ["cmake", "--build", BUILD_DIR, "--target", "kf_perfbench", "-j", "4"]
    return subprocess.run(step, stdout=sys.stderr).returncode == 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    return parser.parse_args(argv)


def main(argv):
    args = parse_args(argv)
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        command += ["--span-file",
                    os.path.join(BUILD_DIR, "spans_%s.json" % args.workload)]
    run = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    lines = run.stdout.splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if not isinstance(result, dict) or "metrics" not in result:
        sys.stderr.write(run.stdout)
        print("perfbench: no result (exit code %d)" % run.returncode, file=sys.stderr)
        return run.returncode or 3
    for line in lines:
        print(line)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
