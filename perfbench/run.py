#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Builds perfbench/bench.exe with dune
(into the checkout's own _build, with dune's shared cache off), then runs
it with the given arguments and exits with its status.  The last line of
its standard output is the result object.  Without the repository's
sources next to this directory it fails before printing any result.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg, code):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def dune_command():
    dune = shutil.which("dune")
    if dune:
        return [dune]
    opam = shutil.which("opam")
    if opam:
        return [opam, "exec", "--", "dune"]
    fail("dune is not on PATH", 3)


def main():
    for needed in ("dune-project", "lib"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("no %s at %s: run from a checkout of the repository" % (needed, ROOT), 2)
    build = subprocess.run(
        dune_command()
        + ["build", "--root", ROOT, "--cache=disabled", "--display=quiet",
           "./perfbench/bench.exe"],
        cwd=ROOT,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        fail("build failed", 3)
    exe = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
    run = subprocess.run([exe] + sys.argv[1:], cwd=ROOT)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
