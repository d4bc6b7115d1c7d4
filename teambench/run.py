#!/usr/bin/env python3
"""Builds the team-query benchmark and runs one workload.

Run from the root of a checkout:

    python3 teambench/run.py --workload find-ci --seed 1 --seconds 10 --trace 0

The first run configures and compiles teambench/ (with the repository's
libraries from src/, Release, no tests) into .bench_build/ — or into
$CARGO_TARGET_DIR when set — and later runs reuse that build. Build output
goes to standard error; the last line of standard output is the result JSON.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("find-ci", "explore-ci")


def fail(message):
    print("teambench: error: " + message, file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no src/CMakeLists.txt next to teambench/: run from a full checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    tree = os.path.join(build_dir, "teambench")
    env = dict(os.environ)
    # Keep the compiler's temporary files inside the checkout too.
    env["TMPDIR"] = os.path.join(build_dir, "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(tree, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", tree,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", tree, "--target", "teambench",
                  "-j", str(min(4, os.cpu_count() or 1))])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr, env=env)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(step))
    return os.path.join(tree, "teambench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or os.path.join(ROOT, ".bench_build"))
    binary = build(build_dir)
    work = os.path.join(build_dir, "work-%d" % os.getpid())
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--work-dir", work,
               "--trace-dir", os.path.join(build_dir, "traces")]
    try:
        code = subprocess.run(command).returncode
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
