#!/usr/bin/env python3
"""Compare two perfbench results and rank the metrics by how much they moved.

    python3 perfbench/diff.py BASE.json NEW.json [--top N]

Each file is a run record written by run.py (results/*.json under the build
directory, or --out) or a saved last line of its output. Timing metrics
(units s, ms, us, ns) are converted to seconds and ranked by absolute
change, so the first row names the layer where the time went; counts and
ratios follow, ranked by relative change. A metric's layer is its name up
to the first dot (gen, store, core, pipeline, kernel, stream, rolling,
transport, live, bench).
"""

import argparse
import json
import sys

TO_SECONDS = {"s": 1.0, "ms": 1e-3, "us": 1e-6, "ns": 1e-9}


def load_metrics(path):
    with open(path) as f:
        data = json.load(f)
    if "result" in data:
        data = data["result"]
    return data["metrics"]


def rows(base, new):
    timing, other = [], []
    for name in sorted(base.keys() & new.keys()):
        unit = base[name]["unit"]
        b, n = float(base[name]["value"]), float(new[name]["value"])
        rel = (n - b) / b if b else (0.0 if n == b else float("inf"))
        row = (name, unit, b, n, rel)
        if unit in TO_SECONDS:
            timing.append(((n - b) * TO_SECONDS[unit], row))
        elif n != b:
            other.append((rel, row))
    timing.sort(key=lambda t: -abs(t[0]))
    other.sort(key=lambda t: -abs(t[0]))
    return timing, other


def fmt(row, delta_s=None):
    name, unit, b, n, rel = row
    layer = name.split(".")[0]
    change = f"{delta_s:+.6f} s" if delta_s is not None else f"{n - b:+.6g}"
    return (f"{layer:<10} {name:<40} {b:>14.6g} {n:>14.6g} {unit:<6}"
            f" {change:>16} {rel * 100:+9.2f}%")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base")
    ap.add_argument("new")
    ap.add_argument("--top", type=int, default=20)
    a = ap.parse_args()
    base, new = load_metrics(a.base), load_metrics(a.new)
    only = sorted(base.keys() ^ new.keys())
    timing, other = rows(base, new)

    header = (f"{'layer':<10} {'metric':<40} {'base':>14} {'new':>14} "
              f"{'unit':<6} {'change':>16} {'rel':>10}")
    if timing:
        delta_s, (name, *_rest) = timing[0]
        print(f"largest timing change: layer {name.split('.')[0]} "
              f"({name}, {delta_s:+.6f} s)")
    print("\ntiming, by absolute change:")
    print(header)
    for delta_s, row in timing[:a.top]:
        print(fmt(row, delta_s))
    print("\ncounts and ratios that changed, by relative change:")
    print(header)
    for _rel, row in other[:a.top]:
        print(fmt(row))
    if only:
        print("\nin one file only:", ", ".join(only))
    return 0


if __name__ == "__main__":
    sys.exit(main())
