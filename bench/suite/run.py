#!/usr/bin/env python3
"""Build otterbench from source, then run it.

    python3 bench/suite/run.py --workload W --seed S --seconds T --trace 0|1

Run from the root of a checkout.  The build goes to _build/ in that
checkout; its log goes to standard error, so the last line of standard
output stays otterbench's JSON result.  If the build fails (for instance
when the compiler's sources are missing) this exits non-zero without
printing a result.
"""

import os
import subprocess
import sys

TARGET = "./bench/suite/otterbench.exe"
EXE = os.path.join("_build", "default", "bench", "suite", "otterbench.exe")


def main():
    build = subprocess.run(
        ["dune", "build", "--root", os.getcwd(), "--cache=disabled",
         "--display=quiet", TARGET],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        sys.exit(build.returncode)
    sys.stdout.flush()
    os.execv(EXE, [EXE, "run"] + sys.argv[1:])


if __name__ == "__main__":
    main()
