#!/usr/bin/env python3
"""Build the benchmark program from source (if needed) and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload clustered_1m --seed 1 --seconds 10 --trace 0

The program is configured and built under .bench_build/perfbench (CMake,
Release) on first use; later runs rebuild incrementally.  Its standard output
is passed through, so the last line is the result JSON object.  Build output
goes to .bench_build/perfbench-build.log and, on failure, to stderr.

Exit status: the program's (0 = ran and passed its correctness gate), or 2
when the sources or the build are missing, without printing a result.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BUILD_LOG = os.path.join(BUILD_ROOT, "perfbench-build.log")
PROGRAM = os.path.join(BUILD_DIR, "perfbench")
# Compile jobs: at most the cores this process may use, at most 4.
JOBS = max(1, min(4, len(os.sched_getaffinity(0))))


def fail(msg):
    print("perfbench/run.py: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isfile(
        os.path.join(ROOT, "src", "CMakeLists.txt")
    ):
        fail("no greem sources next to perfbench/ (expected CMakeLists.txt and src/)")
    # Compiler temporaries stay inside the checkout too.
    tmp = os.path.join(BUILD_ROOT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", str(JOBS)])
    with open(BUILD_LOG, "w") as log:
        for cmd in steps:
            rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT, cwd=ROOT,
                                env=env).returncode
            if rc != 0:
                log.flush()
                with open(BUILD_LOG) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed: " + " ".join(cmd))
    if not os.access(PROGRAM, os.X_OK):
        fail("program missing after build: " + PROGRAM)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="tiny-N mode (self-test)")
    ap.add_argument("--perturb-check", action="store_true",
                    help="perturb accelerations before the force check (self-test)")
    args = ap.parse_args()

    build()
    cmd = [PROGRAM, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.tiny:
        cmd.append("--tiny")
    if args.perturb_check:
        cmd.append("--perturb-check")
    sys.stdout.flush()
    # The program inherits stdout, so its result line is the last line.
    sys.exit(subprocess.run(cmd, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
