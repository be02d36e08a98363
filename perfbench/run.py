#!/usr/bin/env python3
"""Build the benchmark from source and run it.

    python3 perfbench/run.py --workload steady|grid|serve-churn \
        --seed N --seconds S --trace 0|1

Builds perfbench/bench.exe with dune (shared cache off, so nothing is
read or written outside the checkout; build output goes to stderr),
then replaces itself with the benchmark, passing every argument on.
The benchmark prints its result as the last line of standard output.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    os.chdir(ROOT)
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "--display", "quiet",
         "--no-print-directory", "perfbench/bench.exe"],
        env=env, stdout=sys.stderr)
    if build.returncode != 0:
        sys.exit(build.returncode)
    exe = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
    os.execv(exe, [exe] + sys.argv[1:])


if __name__ == "__main__":
    main()
