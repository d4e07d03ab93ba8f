#!/usr/bin/env python3
"""Build and run the end-to-end benchmark from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/bench.exe from source with dune (the shared dune cache
is disabled, so the build reads and writes only inside the checkout),
then runs it. The benchmark's stdout passes through unchanged: a
human-readable table, then one JSON line. Build output goes to stderr.
Exits non-zero without a result when the sources are missing or the
build fails.
"""

import argparse
import os
import signal
import subprocess
import sys

WORKLOADS = ["hs_ip_noisy", "hs_mm_flow", "oracle_compile", "serve_mixed"]
EXE = os.path.join("_build", "default", "perfbench", "bench.exe")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    # turn SIGTERM into SystemExit, so subprocess.run kills and reaps the
    # child it is waiting for
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    for needed in ("dune-project", "lib", os.path.join("perfbench", "bench.ml")):
        if not os.path.exists(needed):
            print(f"run.py: {needed} not found; run from the root of a dautoq checkout",
                  file=sys.stderr)
            return 2

    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/bench.exe"],
        stdout=sys.stderr, stderr=sys.stderr, env=env, timeout=850)
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return build.returncode

    sys.stdout.flush()
    bench = subprocess.run(
        [EXE, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        env=env, timeout=175)
    return bench.returncode


if __name__ == "__main__":
    sys.exit(main())
