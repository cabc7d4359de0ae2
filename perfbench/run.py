#!/usr/bin/env python3
"""Build the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload distill --seed 1 --seconds 36 --trace 0

Run from the root of a checkout.  The build goes to _build/ inside the
checkout (the shared dune cache is disabled so nothing is written
outside it) and its output goes to standard error, so the last line of
standard output is the benchmark's JSON result.  Exits non-zero, with
no result, when the build or the run fails.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TARGET = "./perfbench/bench.exe"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def main():
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", TARGET],
            cwd=ROOT,
            env=env,
            stdout=sys.stderr,
            timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"build failed: {e}", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("build failed", file=sys.stderr)
        return 1
    exe = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
    try:
        run = subprocess.run([exe] + sys.argv[1:], cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run failed: {e}", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
