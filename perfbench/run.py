#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source and runs one workload.

Run from the root of the repository:

    python3 perfbench/run.py --workload tpch_power --seed 1 --seconds 20 --trace 0

The build goes to .bench_build/perfbench (configured on every run,
incremental afterwards); per-run reports and trace spans go to .bench_out/.
The last line of stdout is the result object of the driver (see README.md).
Extra flags (--corrupt) pass through to the driver.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD_DIR, "perfbench_e2e")
RUN_TIMEOUT_S = 170


def build():
    """Configures and builds the driver; build output goes to stderr."""
    steps = [["cmake", "-S", HERE, "-B", BUILD_DIR,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", BUILD_DIR, "-j", "4",
              "--target", "perfbench_e2e"]]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--corrupt", action="store_true",
                    help="perturb one checked result; the run must fail")
    args = ap.parse_args()

    build()
    os.makedirs(OUT_DIR, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.corrupt:
        cmd.append("--corrupt")
    # A terminated runner takes the driver down with it.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit("perfbench: terminated"))
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    sys.exit(code)


if __name__ == "__main__":
    main()
