#!/usr/bin/env python3
"""Build and run the muffin repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload <search|interactive_hot|bulk_remote>
                             --seed <n> --seconds <s> --trace <0|1>

Configures and builds perfbench/ (Release, against the muffin sources in
the repository root) into .bench_build/, then runs the benchmark binary
from the repository root. The binary's standard output is passed through:
its last line is the JSON result. Build output goes to standard error.
The exit code is the binary's, or 1 when the build is impossible (for
example when the muffin sources are missing).
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
# Width of the one global pool every engine and the search share. The
# serving workloads run their own client, dispatcher and socket threads
# beside the pool: with 4 pool workers on a 4-core host their p99 measured
# the scheduler, and 2 workers served as fast or faster. The search has
# no other threads and scales with the pool.
POOL_THREADS = {"search": "4", "interactive_hot": "2", "bulk_remote": "2"}
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "search.h")):
        fail("muffin sources not found in " + ROOT)
    for tool in ("cmake", "c++"):
        if shutil.which(tool) is None:
            fail(tool + " not found")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    command = ["cmake", "--build", BUILD_DIR, "--target", "muffin_perfbench", "-j", jobs]
    if subprocess.run(command, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(BUILD_DIR, "muffin_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(POOL_THREADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    binary = build()
    env = dict(os.environ)
    env.setdefault("MUFFIN_THREADS", POOL_THREADS[args.workload])
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    sys.stdout.flush()
    try:
        completed = subprocess.run(command, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(completed.returncode)


if __name__ == "__main__":
    main()
