#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload deploy|steady|serve-mix \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The build's output goes to stderr, so
the last line of stdout is the benchmark's JSON result. Exits non-zero,
without a result, when the program's sources are not there to build.
"""

import glob
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def find_dune():
    found = shutil.which("dune")
    if found:
        return found
    prefix = os.environ.get("OPAM_SWITCH_PREFIX")
    candidates = [os.path.join(prefix, "bin", "dune")] if prefix else []
    candidates += sorted(glob.glob(os.path.expanduser("~/.opam/*/bin/dune")))
    return next((c for c in candidates if os.access(c, os.X_OK)), None)


def main():
    for needed in ("dune-project", "lib"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            print(f"run.py: {needed} not found next to perfbench/; "
                  "run from a full checkout of the repository", file=sys.stderr)
            return 2
    dune = find_dune()
    if dune is None:
        print("run.py: dune not found", file=sys.stderr)
        return 2
    build = subprocess.run(
        [dune, "build", "--root", ROOT, "./perfbench/bench.exe"],
        cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
    return subprocess.run([exe] + sys.argv[1:], cwd=ROOT,
                          timeout=RUN_TIMEOUT_S).returncode


if __name__ == "__main__":
    sys.exit(main())
