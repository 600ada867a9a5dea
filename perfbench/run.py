#!/usr/bin/env python3
"""Build the benchmark from the checkout's sources and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload serve-warm --seed 1 --seconds 20 --trace 0

The OCaml program prints every metric by name, unit and sample count; its
last line of standard output is the JSON result. This script only builds
it (dune, release profile, shared dune cache off so nothing is written
outside the checkout), runs it with a time limit, and passes its exit
code on. Build output goes to standard error.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ["serve-warm", "cluster-warm", "pipeline-cold", "trees-large"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()
    if not 1 <= a.seconds <= 120:
        ap.error("--seconds must be in 1..120")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", root, "--profile", "release", "./perfbench/main.exe"],
            cwd=root, env=env, stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build did not complete: {e}", file=sys.stderr)
        return 2
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    # All of the run shares one CPU: the workload's domains (client,
    # server, shards) and the calibration op then see the same contention
    # from other tenants of the machine, which the calibration cancels.
    cpu = max(os.sched_getaffinity(0))
    exe = os.path.join(root, "_build", "default", "perfbench", "main.exe")
    cmd = [exe, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace)]
    try:
        run = subprocess.run(cmd, cwd=root, timeout=RUN_TIMEOUT_S,
                             preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    except subprocess.TimeoutExpired:
        print(f"perfbench: {a.workload} ran past {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
