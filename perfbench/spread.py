#!/usr/bin/env python3
"""Run each workload repeatedly and print every metric's median and quartiles.

    python3 perfbench/spread.py                      # 10 runs per workload
    python3 perfbench/spread.py --runs 5 --workloads serve-closed
    python3 perfbench/spread.py --trace 1 --runs 2   # per-layer metrics

Runs the command of BENCHMARK.json from the repository root for
run_seconds, one seed per run (seeds 1, 2, ..., --runs), and reads the
result line each run prints last. Each run's line shows a digest of its simulated
statistics: equal digests for one seed mean identical statistics. For each
metric it prints the median, the first and third quartiles (Python's
statistics.quantiles(values, n=4)), and the spread: the distance between
the quartiles as a share of the median, beside a third of the metric's
bound. It also prints each workload's failed share. The bounds in
BENCHMARK.json are set from this evidence.
"""

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(cmd, workload, seed, seconds, trace):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.monotonic()
    proc = subprocess.run(args, cwd=ROOT, capture_output=True, text=True)
    wall = time.monotonic() - t0
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    sim = next((l for l in lines if l.startswith("simulated per round:")), "")
    return json.loads(lines[-1]), wall, hashlib.sha1(sim.encode()).hexdigest()[:12]


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    opts = ap.parse_args()

    catalogue = bench["per_layer"] if opts.trace else bench["end_to_end"]
    worst = 0.0
    for workload in opts.workloads.split(","):
        values = {m["name"]: [] for m in catalogue}
        shares, walls = [], []
        for i in range(opts.runs):
            seed = i + 1
            result, wall, sim = run_once(bench["command"], workload, seed,
                                         bench["run_seconds"], opts.trace)
            walls.append(wall)
            if not result["correct"]:
                print(f"  {workload} seed {seed}: correct is false")
            shares.append(result["failed"] / result["attempted"])
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            print(f"  {workload} seed {seed}: {wall:.1f} s, "
                  f"{result['attempted']} attempted, {result['failed']} failed, "
                  f"simulated statistics {sim}", flush=True)
        print(f"{workload}: {opts.runs} runs, longest {max(walls):.1f} s, "
              f"failed share {sorted(set(shares))}")
        print(f"  {'metric':32} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound/3':>8}")
        for m in catalogue:
            vals = values[m["name"]]
            med = statistics.median(vals)
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
            else:
                q1 = q3 = med
            spread = (q3 - q1) / med if med else 0.0
            bound = m.get("bound")
            third = f"{bound / 3:.4f}" if bound is not None else "-"
            flag = ""
            if bound is not None and m["name"] != "setup_s":
                worst = max(worst, spread / (bound / 3))
                flag = "  over a third of the bound" if spread > bound / 3 else ""
            print(f"  {m['name']:32} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} {third:>8}{flag}")
    if not opts.trace:
        print(f"largest spread as a share of a third of its bound: {worst:.2f}")


if __name__ == "__main__":
    main()
