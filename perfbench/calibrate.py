#!/usr/bin/env python3
"""Choose each workload's generator-seed pool (perfbench/seed_pool.json).

    python3 perfbench/calibrate.py [--candidates 80] [--pool 16] [--jobs 3]

The synthetic corpus is heavy-tailed: at benchmark scales two generator
seeds can differ by 20% in flows and by 60% in out-of-core decode work,
which would swamp any regression a bound could catch. run.py therefore maps
--seed onto a pool of generator seeds whose corpora do nearly the same
work, a run's corpora taking consecutive entries. Work is measured by proxies that drive the
workload's wall time:

  analyze-ram     flows (load decodes and scatters each), wall at
                  BW_THREADS=1 and 2
  analyze-ooc     store.chunks_decoded, wall at BW_THREADS=1 and 2
  replay-rolling  wall at BW_THREADS=1
  replay-final    events delivered, wall at BW_THREADS=1 and 2
  live-unix       wall at BW_THREADS=1

Counts repeat exactly at BW_THREADS=1 and come from one traced pass. Where
no count predicts the time well enough, the proxy is the measured wall
itself, the first quartile of 9 untraced passes (as run.py reports it), and
candidates then run one at a time. The incremental kernels' cost grows faster than any count they
expose: two seeds 7% apart in rolling.bytes differ by 60% in snapshot
time, and two live corpora 1% apart in frames differ by 40% in wall. How
well two threads split the out-of-core scans also varies with the event
mix.

For every workload this script generates candidate seeds 1..N, measures the
proxies, and keeps the `--pool` seeds whose largest relative distance from
the candidates' medians is smallest. Every candidate's proxies are kept in
seed_pool.json. Rerun it when the generator changes.
"""

import argparse
import json
import shutil
import statistics
import sys
from concurrent.futures import ThreadPoolExecutor

import run

PROXY = {
    "analyze-ram": ["flows", "wall_t1", "wall_t2"],
    "analyze-ooc": ["store.chunks_decoded", "wall_t1", "wall_t2"],
    "replay-rolling": ["wall_t1"],
    "replay-final": ["stream.delivered", "wall_t1", "wall_t2"],
    "live-unix": ["wall_t1"],
}
WALLS = {"wall_t1": "1", "wall_t2": "2"}


def work_counts(exe, name, cfg, seed, bdir):
    work = bdir / "calibrate" / f"{name}-{seed}"
    if work.exists():
        shutil.rmtree(work)
    counts = {"flows": run.setup_corpus(exe, name, cfg, seed, work, 1)["flows"]}
    args = ["pass", "--workload", name, "--dir", str(work),
            "--cadence-ms", str(cfg["cadence_ms"]), "--trace"]

    def one_pass(threads, trace):
        code, res = run.invoke(exe, args + [trace], {"BW_THREADS": threads})
        if code != 0 or res is None or res["gates_failed"]:
            raise run.BenchError(f"calibration pass {name} seed {seed} "
                                 "failed")
        return res

    counts.update(one_pass("1", "1")["metrics"])
    for key, threads in WALLS.items():
        if key in PROXY[name]:
            counts[key] = run.low_quartile(
                [one_pass(threads, "0")["wall_s"] for _ in range(9)])
    shutil.rmtree(work)
    return [counts[key] for key in PROXY[name]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--candidates", type=int, default=80)
    ap.add_argument("--pool", type=int, default=16)
    ap.add_argument("--jobs", type=int, default=3)
    ap.add_argument("--workload", action="append",
                    help="only these workloads (default: all)")
    a = ap.parse_args()

    bdir = run.build_dir()
    exe = run.build(bdir)
    path = run.HERE / "seed_pool.json"
    pools = json.loads(path.read_text()) if path.exists() else {}
    for name in a.workload or list(run.WORKLOADS):
        cfg = dict(run.WORKLOADS[name])
        seeds = list(range(1, a.candidates + 1))
        timed = any(key in WALLS for key in PROXY[name])
        jobs = 1 if timed else a.jobs
        with ThreadPoolExecutor(max_workers=jobs) as ex:
            counts = list(ex.map(
                lambda s, n=name, c=cfg: work_counts(exe, n, c, s, bdir),
                seeds))
        mids = [statistics.median(col) for col in zip(*counts)]

        def distance(vector):
            return max(abs(v / m - 1.0) for v, m in zip(vector, mids))

        ranked = sorted(zip(seeds, counts), key=lambda sc: distance(sc[1]))
        chosen = sorted(ranked[:a.pool])
        pools[name] = {
            "proxy": PROXY[name],
            "candidates": a.candidates,
            "candidate_medians": mids,
            "pool_max_distance": distance(ranked[a.pool - 1][1]),
            "seeds": [s for s, _c in chosen],
            "values": {str(s): c for s, c in zip(seeds, counts)},
        }
        run.log(f"{name}: proxy {PROXY[name]} medians {mids}; pool within "
                f"{pools[name]['pool_max_distance'] * 100:.2f}% of them")
        path.write_text(json.dumps(pools, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except run.BenchError as e:
        run.log("error:", e)
        sys.exit(2)
