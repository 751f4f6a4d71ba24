#!/usr/bin/env python3
"""Builds the training benchmark from source and runs one workload.

Run from the root of a checkout:

    python3 trainbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first call configures and builds `trainbench/` (which pulls in the
repository's `src/` libraries) under `.bench_build/`; later calls only
re-check the build. Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result. Exits non-zero, without a result,
when the checkout holds no sources to build.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "trainbench"
BUILD_DIR = ROOT / ".bench_build" / "trainbench"
BINARY = BUILD_DIR / "trainbench"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("trainbench: no src/CMakeLists.txt in %s; nothing to build" % ROOT)
    tmp = BUILD_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    # Keep compiler scratch files inside the checkout.
    env = dict(os.environ, TMPDIR=str(tmp))
    jobs = str(len(os.sched_getaffinity(0)))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "trainbench",
                  "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            sys.exit("trainbench: build step failed: %s" % " ".join(cmd))


def main():
    build()
    sys.stdout.flush()
    done = subprocess.run([str(BINARY)] + sys.argv[1:], cwd=ROOT,
                          timeout=RUN_TIMEOUT_S, check=False)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
