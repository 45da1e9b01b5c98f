#!/usr/bin/env python3
"""Measure how steady the end-to-end metrics are across seeds.

    python3 perfbench/steadiness.py [--runs 10] [--first-seed 1]
                                    [--workload NAME ...]

Runs run.py once per seed (seeds first..first+runs-1) on every workload with
tracing off, then prints a markdown table. For each end-to-end metric it
shows the median over the runs and the spread: the distance between the
first and third quartile (statistics.quantiles, n=4) as a share of the
median. It also shows the metric's bound from BENCHMARK.json. A metric is
steady when its spread is below a third of its bound. setup_s is judged on
its median alone, so it gets the widest bound. STEADINESS.md records the
table this produced.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append",
                    help="only these workloads (default: all)")
    a = ap.parse_args()
    workloads = a.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    print("| workload | metric | median | spread (IQR/median) | bound | "
          "steady (< bound/3) |")
    print("|---|---|---|---|---|---|")
    failures = 0
    for name in workloads:
        values = {}
        for seed in range(a.first_seed, a.first_seed + a.runs):
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds",
                 str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                text=True, timeout=600)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if done.returncode != 0 or not result["correct"]:
                print(f"{name} seed {seed}: incorrect result", file=sys.stderr)
                failures += 1
            for metric, v in result["metrics"].items():
                values.setdefault(metric, []).append(v["value"])
            print(f"{name} seed {seed}: " + ", ".join(
                f"{m}={v['value']:.4f}" for m, v in result["metrics"].items()),
                file=sys.stderr, flush=True)
        for metric, vs in values.items():
            q1, _q2, q3 = statistics.quantiles(vs, n=4)
            mid = statistics.median(vs)
            spread = (q3 - q1) / mid
            steady = "yes" if spread < bounds[metric] / 3 else "no"
            if metric == "setup_s":
                steady += " (median only)"
            print(f"| {name} | {metric} | {mid:.4f} | {spread * 100:.2f}% | "
                  f"{bounds[metric]:.2f} | {steady} |", flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
