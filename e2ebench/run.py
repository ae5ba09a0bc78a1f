#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source and runs one workload.

Usage (from the repository root):

    python3 e2ebench/run.py --workload table1|saturate|service \
        --seed N --seconds S --trace 0|1

The build goes to $CARGO_TARGET_DIR if set, else .bench_build, under the
current directory. Build output goes to stderr; the benchmark's own output,
whose last line is the JSON result, goes to stdout. A traced run also writes
a Chrome trace (trace_<workload>_<seed>.json) into the build directory.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    os.makedirs(build_dir, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "tensat_e2e",
                  "-j", jobs])
    # Compiler temporaries stay inside the build directory too.
    env = dict(os.environ, TMPDIR=build_dir)
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            sys.exit("build failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["table1", "saturate", "service"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "optimizer", "optimizer.h")):
        sys.exit("library sources not found under " + os.path.join(ROOT, "src"))
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build(build_dir)

    cmd = [os.path.join(build_dir, "tensat_e2e"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace]
    if args.trace == "1":
        cmd += ["--trace-out", os.path.join(
            build_dir, "trace_%s_%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
