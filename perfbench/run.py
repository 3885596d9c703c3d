#!/usr/bin/env python3
"""Builds and runs the LSD benchmark.

    python3 perfbench/run.py --workload serve-repeat|serve-fresh|batch-search \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The first run configures and
builds perfbench/ (a standalone CMake project over ../src) into
.bench_build/ in Release mode; later runs only rebuild what changed. Build
output goes to stderr, so the last line of stdout is the benchmark's JSON
result. Exits non-zero without a result when the sources are missing or
the build fails.

The benchmark's unit tests:
    cmake --build .bench_build --target perfbench_test && .bench_build/perfbench_test
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
# One run, set-up and checks included, must end well inside 180 s.
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench/run.py: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "lsd_system.h")):
        fail("no LSD sources next to perfbench/ (expected src/); "
             "run from a full checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(step))


def source_digest():
    """SHA-256 over src/ (paths and contents): names the code under test
    even where the checkout is not a git repository."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for directory, subdirs, files in os.walk(src):
        subdirs.sort()
        for name in sorted(files):
            path = os.path.join(directory, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()[:16]


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main():
    build()
    env = dict(os.environ)
    env["PERFBENCH_GIT_SHA"] = git_sha()
    env["PERFBENCH_SRC_DIGEST"] = source_digest()
    env["PERFBENCH_OUT_DIR"] = os.path.join(BUILD, "results")
    try:
        done = subprocess.run([BINARY] + sys.argv[1:], cwd=ROOT, env=env,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("the run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
