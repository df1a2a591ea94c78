#!/usr/bin/env python3
"""Build and run the end-to-end benchmark of `tcsq serve`.

Run from the repository root:

    python3 perfbench/run.py --workload caida-sweep --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --quick   # every workload at small scale, all checks
    python3 perfbench/run.py regen     # rewrite the stored query pools

The script builds bin/tcsq.exe and perfbench/perfbench.exe with dune
into _build/, then replaces itself with perfbench.exe, which prints the
run's result as the last line of its standard output. See
perfbench/README.md.
"""

import os
import subprocess
import sys


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    os.chdir(root)
    targets = ["./bin/tcsq.exe", "./perfbench/perfbench.exe"]
    try:
        # dune's progress goes to stderr, so the result stays the last
        # line of stdout; its shared cache stays off, so the build writes
        # nothing outside the working tree
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--build-dir", "_build"] + targets,
            stdout=sys.stderr,
            env=dict(os.environ, DUNE_CACHE="disabled"),
        )
    except FileNotFoundError:
        print("perfbench: dune is not on PATH", file=sys.stderr)
        return 2
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    exe = os.path.join("_build", "default", "perfbench", "perfbench.exe")
    tcsq = os.path.join("_build", "default", "bin", "tcsq.exe")
    sys.stdout.flush()
    sys.stderr.flush()
    os.execv(exe, [exe, "--tcsq", tcsq] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
