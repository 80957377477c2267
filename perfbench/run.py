#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see README.md here).

    python3 perfbench/run.py --workload <fleet_ab|socket_sim|wire|tax_mix|all>
                             [--seed N] [--seconds S] [--trace 0|1]

Run it from a checkout of the repository. It builds the program under test
(the libraries in src/, the real limoncellod, and the benchmark harness)
from source with CMake into .bench_build (or $CARGO_TARGET_DIR), then runs
one workload. Everything before the last stdout line is the human report;
the last line is one JSON object with the keys correct, attempted, failed
and metrics.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fleet_ab", "socket_sim", "wire", "tax_mix")
# Files of the program under test the build needs; without them this is
# not a checkout of the repository and there is nothing to measure.
REQUIRED = ("src/CMakeLists.txt", "tools/limoncellod.cc",
            "bench/bench_util.cc")


def build(build_dir):
    log_path = os.path.join(build_dir, "build.log")
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target",
                  "perfbench", "limoncellod"])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT,
                               cwd=ROOT) != 0:
                log.close()
                with open(log_path) as failed:
                    sys.stderr.write(failed.read()[-4000:])
                return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    missing = [f for f in REQUIRED if not os.path.isfile(os.path.join(ROOT, f))]
    if missing:
        sys.stderr.write("perfbench: %s not found; run from a checkout of "
                         "the repository\n" % ", ".join(missing))
        return 2

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(ROOT, build_dir)
    if not build(build_dir):
        sys.stderr.write("perfbench: build failed\n")
        return 1

    # Relative paths keep the wire workload's UNIX socket paths short.
    rel = os.path.relpath(build_dir, ROOT)
    command = [
        os.path.join(build_dir, "perfbench"),
        "--workload=" + args.workload,
        "--seed=%d" % args.seed,
        "--seconds=%g" % args.seconds,
        "--trace=%d" % args.trace,
        "--daemon=" + os.path.join(rel, "limoncellod"),
        "--scratch=" + rel,
    ]
    sys.stdout.flush()
    return subprocess.call(command, cwd=ROOT)


if __name__ == "__main__":
    sys.exit(main())
