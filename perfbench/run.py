#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Builds the benchmark program and the
simbench CLI (the serve daemon) from source with dune, then runs the
benchmark program, whose last line of standard output is the JSON result.  Exits
non-zero when the build fails, when a cell fails its pin, row-set or
clock check, or when the run does not finish in time.
"""

import os
import signal
import subprocess
import sys

RUN_TIMEOUT_S = 170
BENCH = os.path.join("_build", "default", "perfbench", "main.exe")
CLI = os.path.join("_build", "default", "bin", "simbench_cli.exe")


def main():
    # dune's shared cache lives outside the checkout; keep every build
    # artefact under _build
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet",
         "./perfbench/main.exe", "./bin/simbench_cli.exe"],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    cmd = [BENCH] + sys.argv[1:] + [
        "--pins", os.path.join("perfbench", "pins.tsv"), "--cli", CLI]
    # own process group, so a timeout also takes down the serve daemon
    # and pool workers the benchmark program started
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 124


if __name__ == "__main__":
    sys.exit(main())
