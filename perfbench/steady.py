#!/usr/bin/env python3
"""Runs each workload repeatedly and reports how steady its metrics are.

Run from the root of the repository:

    python3 perfbench/steady.py                      # 10 runs of every workload
    python3 perfbench/steady.py --workloads tpch_power --runs 5
    python3 perfbench/steady.py --save base.json     # keep the values
    python3 perfbench/steady.py --compare base.json  # medians vs a saved set

Run i uses seed SEED_BASE + i. For every end-to-end metric it prints the
median, the quartiles (statistics.quantiles, n=4), the spread (quartile
distance over the median) against the metric's bound from BENCHMARK.json,
and for every run the host steal share and process CPU seconds of its timed
window. With --compare it also prints, per metric, how much worse the median
is than the saved one, as a share of the saved median, against the bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    """Returns (result, context) of one benchmark run, or (None, None)."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print("  seed %d: run failed (exit %d)" % (seed, proc.returncode))
        return None, None
    context = {}
    for line in lines:
        if line.startswith("context "):
            context = json.loads(line[len("context "):])
    return json.loads(lines[-1]), context


def worse_share(metric, base, new):
    """How much worse `new` is than `base`, as a share of `base`."""
    if base == 0:
        return 0.0
    delta = (new - base) / abs(base)
    return delta if metric["better"] == "lower" else -delta


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--save", help="write the per-run values to this file")
    ap.add_argument("--compare", help="a file written by --save")
    args = ap.parse_args()

    metrics = bench["end_to_end"]
    baseline = {}
    if args.compare:
        with open(args.compare) as f:
            baseline = json.load(f)
    saved = {}
    for workload in args.workloads.split(","):
        print("== %s: %d runs of %d s" % (workload, args.runs, args.seconds))
        values = {m["name"]: [] for m in metrics}
        steal, failed = [], 0
        for i in range(args.runs):
            seed = args.seed_base + i
            result, context = run_once(workload, seed, args.seconds, 0)
            if result is None or not result["correct"]:
                failed += 1
                continue
            for m in metrics:
                values[m["name"]].append(result["metrics"][m["name"]]["value"])
            steal.append(context.get("steal_pct", 0.0))
            print("  seed %d: steal %.2f%%  cpu %.1f s  qps %.2f" %
                  (seed, context.get("steal_pct", 0.0),
                   context.get("process_cpu_s", 0.0),
                   result["metrics"]["qps"]["value"]))
        print("  %-18s %-6s %12s %12s %12s %8s %6s  %s" %
              ("metric", "unit", "median", "q1", "q3", "spread", "bound",
               "verdict"))
        for m in metrics:
            xs = values[m["name"]]
            if len(xs) < 2:
                continue
            q1, med, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med if med else 0.0
            verdict = ("steady" if spread < m["bound"] / 3 else
                       "within bound" if spread <= m["bound"] else "NOISY")
            if m["name"] == "setup_s":
                verdict += " (spread not gated)"
            line = "  %-18s %-6s %12.4f %12.4f %12.4f %8.4f %6.2f  %s" % (
                m["name"], m["unit"], med, q1, q3, spread, m["bound"], verdict)
            base = baseline.get(workload, {}).get(m["name"])
            if base:
                share = worse_share(m, statistics.median(base), med)
                line += "  | vs saved: %+.4f %s" % (
                    share, "REGRESSED" if share > m["bound"] else "ok")
            print(line)
        print("  steal %% per run: %s" % " ".join("%.2f" % s for s in steal))
        if failed:
            print("  %d run(s) failed or reported a wrong result" % failed)
        saved[workload] = values
    if args.save:
        with open(args.save, "w") as f:
            json.dump(saved, f, indent=1)


if __name__ == "__main__":
    main()
