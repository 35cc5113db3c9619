#!/usr/bin/env python3
"""Build the hgp benchmark from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The build goes to dune's _build directory in the checkout (the shared dune
cache is disabled, so nothing is written outside it).  Build output goes to
standard error; the benchmark's standard output is passed through, and its
last line is the JSON result.  The exit code is the benchmark's, or the
build's when the build fails.
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "hgpbench.exe")


def main():
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/hgpbench.exe"],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        return build.returncode
    sys.stdout.flush()
    return subprocess.run([EXE] + sys.argv[1:], env=env, timeout=175).returncode


if __name__ == "__main__":
    sys.exit(main())
