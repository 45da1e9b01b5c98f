#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of blackwatch.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--smoke] [--out FILE]

Run from the repository root. The first run builds perfbench/ (the
blackwatch libraries plus perfbench.cpp, Release) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench). Each run then

  1. sets up: generates the workload's corpora from --seed with one
     generation thread, saves each as .bwds v3, and writes the reference
     result the passes are checked against;
  2. measures for --seconds seconds: short timed passes rotating over the
     corpora, each a fresh process from input file to user-visible result,
     alternating BW_THREADS=1 and BW_THREADS=2 (--trace 1: one corpus,
     alternating untraced and traced passes at BW_THREADS=1);
  3. prints the result as the last line of standard output:
     {"correct", "attempted", "failed", "metrics"} with the end-to-end
     metrics (--trace 0) or the per-layer metrics (--trace 1).

The full record (environment, workload settings, every pass) goes to
results/<workload>-seed<N>-trace<T>.json under the build directory (or
--out); perfbench/diff.py compares two of them layer by layer. A traced run
also writes a Chrome trace to traces/ and prints each layer's self time.
See perfbench/README.md for why the workloads and metrics are what they are.
"""

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_REPS = 3
MIN_PASSES = 3        # per corpus and side (thread count, or traced/untraced)
PASS_TIMEOUT_S = 45   # a pass that hangs is killed and counted as failed
HOUR_MS = 3_600_000

# Sizes were measured on a shared 4-core box (README.md). Host contention
# comes and goes within seconds and spreads a single pass by up to +-25%, so
# a run is made of many short passes (0.1-0.2 s each) rather than a few long
# ones. An untraced run sets up `corpora` corpora from different generator
# seeds and rotates its passes over them: each corpus gets a dozen or more
# passes per side, and the corpora's mean averages out what the seed pool
# leaves of the corpus's heavy tail. A traced run uses one corpus, so its
# counts repeat.
WORKLOADS = {
    "analyze-ram": {"scale": 0.01, "chunk_rows": None, "cadence_ms": 0,
                    "corpora": 8},
    "analyze-ooc": {"scale": 0.004, "chunk_rows": 4096, "cadence_ms": 0,
                    "corpora": 8},
    "replay-rolling": {"scale": 0.005, "chunk_rows": None,
                       "cadence_ms": 2 * HOUR_MS, "corpora": 4},
    "replay-final": {"scale": 0.005, "chunk_rows": None, "cadence_ms": 0,
                     "corpora": 8},
    "live-unix": {"scale": 0.02, "chunk_rows": None, "cadence_ms": 0,
                  "corpora": 3},
}
# --smoke: the same chains on tiny corpora, so the self-test runs in
# seconds. analyze-ooc keeps more chunks than the 4-slot chunk cache holds.
SMOKE = {
    "analyze-ram": {"scale": 0.002},
    "analyze-ooc": {"scale": 0.002, "chunk_rows": 2048},
    "replay-rolling": {"scale": 0.002, "cadence_ms": 24 * HOUR_MS},
    "replay-final": {"scale": 0.002},
    "live-unix": {"scale": 0.002},
}

STAGES = ["summary", "event_merge", "pre_rtbh", "drop_rate", "protocol_mix",
          "filtering", "participation", "victims", "classify"]
KERNELS = ["summary", "drop_rate", "anomaly", "protocol_mix", "filtering",
           "classify", "collateral", "port_stats"]

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "wall_s_t2": "s",
    "peak_rss_mb": "MiB",
}


def per_layer_units():
    """Every per-layer metric a traced run reports, with its unit."""
    units = {
        "gen.generate_s": "s",
        "store.save_s": "s",
        "store.file_mb": "MiB",
        "core.load_s": "s",
        "core.columns_s": "s",
        "store.open_s": "s",
        "store.chunk_count": "count",
        "store.chunks_decoded": "count",
        "store.decode_amplification": "ratio",
        "store.decode_pass_s": "s",
        "core.pipeline_s": "s",
    }
    for stage in STAGES:
        units[f"pipeline.stage.{stage}.wall_us"] = "us"
    for kernel in KERNELS:
        units[f"kernel.{kernel}.scan_ns"] = "ns"
        units[f"kernel.{kernel}.scan_rows"] = "count"
    units.update({
        "core.whatif_s": "s",
        "core.render_s": "s",
        "stream.replay_s": "s",
        "stream.delivered": "count",
        "stream.shed_total": "count",
        "stream.late_dropped": "count",
        "stream.forced_releases": "count",
        "rolling.update_s": "s",
        "rolling.snapshots": "count",
        "rolling.snapshot_s": "s",
        "rolling.snapshot_p50_ms": "ms",
        "rolling.snapshot_p99_ms": "ms",
        "rolling.snapshot_growth": "ratio",
        "rolling.bytes": "bytes",
        "transport.encode_s": "s",
        "transport.decode_s": "s",
        "transport.frames": "count",
        "transport.bytes": "bytes",
        "transport.crc_failures": "count",
        "live.writer_blocked_s": "s",
        "bench.trace_overhead_pct": "%",
    })
    return units


PER_LAYER = per_layer_units()


def log(*parts):
    print("perfbench:", *parts, file=sys.stderr, flush=True)


class BenchError(Exception):
    """Set-up or infrastructure failure: the run prints no result."""


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def build(bdir):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError("blackwatch sources (src/) are missing; run from a "
                         "full checkout")
    cmake_dir = bdir / "build"
    cache = cmake_dir / "CMakeCache.txt"
    if not cache.is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(cmake_dir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_build_step(cmd)
    build_type = ""
    for line in cache.read_text().splitlines():
        if line.startswith("CMAKE_BUILD_TYPE:"):
            build_type = line.split("=", 1)[1]
    if build_type not in ("Release", "RelWithDebInfo"):
        raise BenchError(f"refusing to run: build type '{build_type}' is not "
                         "optimised (Release or RelWithDebInfo)")
    jobs = str(min(4, os.cpu_count() or 1))
    run_build_step(["cmake", "--build", str(cmake_dir), "--target",
                    "perfbench", "-j", jobs])
    return cmake_dir / "perfbench"


def run_build_step(cmd):
    done = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True, cwd=ROOT,
                          timeout=850)
    if done.returncode != 0:
        sys.stderr.write(done.stdout[-20000:])
        raise BenchError(f"build step failed ({done.returncode}): "
                         + " ".join(cmd))


def invoke(exe, args, env_extra, timeout=PASS_TIMEOUT_S):
    """Run one perfbench job; return (exit code, parsed JSON line or None)."""
    env = dict(os.environ)
    env.pop("BW_STORE_CHUNK_ROWS", None)
    env.update(env_extra)
    try:
        done = subprocess.run([str(exe)] + args, env=env, cwd=ROOT,
                              stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        log("timed out:", " ".join(args))
        return -1, None
    lines = done.stdout.strip().splitlines()
    try:
        return done.returncode, json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return done.returncode, None


def median(values):
    return statistics.median(values) if values else 0.0


def low_quartile(values):
    """First quartile of the pass times. Contention from other tenants of a
    shared box only ever adds time, and it comes and goes within a run: a
    single pass of the same corpus spreads by up to ±25%. The faster
    quarter of a run's passes is the part least touched by it."""
    if len(values) < 2:
        return median(values)
    return statistics.quantiles(values, n=4)[0]


def generator_seeds(name, seed, count):
    """The corpus seeds for --seed: `count` entries of the workload's pool
    of equal-work generator seeds (calibrate.py explains why), drawn with
    --seed. A random draw varies the set from seed to seed while keeping
    its mean work close to the pool's."""
    pool = json.loads((HERE / "seed_pool.json").read_text())[name]["seeds"]
    return random.Random(seed).sample(pool, min(count, len(pool)))


def setup(exe, name, cfg, seeds, work, reps):
    """Set up one corpus per seed in work/c<i>; merge what they report."""
    if work.exists():
        shutil.rmtree(work)
    merged = {}
    for i, seed in enumerate(seeds):
        out = setup_corpus(exe, name, cfg, seed, work / f"c{i}", reps)
        for key, value in out.items():
            # Span lists stay per process: parents index within them.
            if isinstance(value, list) and key != "spans":
                merged.setdefault(key, []).extend(value)
            else:
                merged.setdefault(key, []).append(value)
    return merged


def setup_corpus(exe, name, cfg, seed, work, reps):
    work.mkdir(parents=True)
    env = {"BW_THREADS": "1"}
    if cfg["chunk_rows"]:
        env["BW_STORE_CHUNK_ROWS"] = str(cfg["chunk_rows"])
    args = ["setup", "--workload", name, "--dir", str(work),
            "--scale", repr(cfg["scale"]), "--seed", str(seed),
            "--reps", str(reps), "--cadence-ms", str(cfg["cadence_ms"])]
    code, out = invoke(exe, args, env, timeout=100)
    if code != 0 or out is None:
        raise BenchError(f"setup of {name} failed (exit {code})")
    return out


def measure(exe, name, cfg, work, corpora, seconds, trace, min_passes):
    """Alternate the two sides of the run until `seconds` have passed and
    each side has min_passes passes on every corpus; round r runs on corpus
    r % corpora.
    Sides: BW_THREADS 1 and 2, or (traced run) untraced and traced at
    BW_THREADS 1."""
    sides = [("1", False), ("1", True)] if trace else [("1", False),
                                                       ("2", False)]
    passes = []
    start = time.monotonic()
    while True:
        corpus = len(passes) // len(sides) % corpora
        for threads, traced in sides:
            args = ["pass", "--workload", name, "--dir",
                    str(work / f"c{corpus}"),
                    "--cadence-ms", str(cfg["cadence_ms"]),
                    "--trace", "1" if traced else "0"]
            code, out = invoke(exe, args, {"BW_THREADS": threads})
            if code != 0 or out is None:
                out = {"wall_s": 0.0, "peak_rss_mb": 0.0, "ops": 1,
                       "ops_failed": 1,
                       "gates_failed": [f"{name}.pass_exit_{code}"]}
            out["side"] = {"threads": int(threads), "traced": traced}
            out["corpus"] = corpus
            passes.append(out)
            for gate in out["gates_failed"]:
                log(f"GATE FAILED: {gate} (pass {len(passes)}, "
                    f"BW_THREADS={threads}{', traced' if traced else ''})")
        done = len(passes) // len(sides)
        if (time.monotonic() - start >= seconds
                and done >= min_passes * corpora):
            return passes


def walls(passes, threads, traced=False):
    return [p["wall_s"] for p in passes
            if p["side"] == {"threads": threads, "traced": traced}
            and not p["gates_failed"]]


def per_corpus(passes, threads, stat, key="wall_s"):
    """Mean over the run's corpora of stat(key) over each corpus's passes
    at `threads` (untraced, gates passed)."""
    values = {}
    for p in passes:
        if (p["side"] == {"threads": threads, "traced": False}
                and not p["gates_failed"]):
            values.setdefault(p["corpus"], []).append(p[key])
    return statistics.fmean(stat(v) for v in values.values()) if values \
        else 0.0


def end_to_end(setup_out, passes, reps):
    # Set-up time is that of every corpus the run sets up (the median of a
    # corpus's `reps` repetitions).
    totals = [g + s for g, s in zip(setup_out["gen_s"], setup_out["save_s"])]
    setup_s = sum(median(totals[i:i + reps])
                  for i in range(0, len(totals), reps))
    return {
        "setup_s": setup_s,
        "wall_s": per_corpus(passes, 1, low_quartile),
        "wall_s_t2": per_corpus(passes, 2, low_quartile),
        "peak_rss_mb": per_corpus(passes, 1, median, "peak_rss_mb"),
    }


def per_layer(setup_out, passes):
    traced = [p for p in passes if p["side"]["traced"]]
    values = {}
    for key in PER_LAYER:
        samples = [p["metrics"][key] for p in traced
                   if key in p.get("metrics", {})]
        values[key] = median(samples)
    values["gen.generate_s"] = median(setup_out["gen_s"])
    values["store.save_s"] = median(setup_out["save_s"])
    values["store.file_mb"] = median(setup_out["file_mb"])
    if "encode_s" in setup_out:
        values["transport.encode_s"] = median(setup_out["encode_s"])
    if values["store.chunk_count"] > 0:
        values["store.decode_amplification"] = (
            values["store.chunks_decoded"] / values["store.chunk_count"])
    untraced_wall = median(walls(passes, 1, traced=False))
    traced_wall = median(walls(passes, 1, traced=True))
    if untraced_wall > 0:
        values["bench.trace_overhead_pct"] = (
            (traced_wall / untraced_wall - 1.0) * 100.0)
    return values


def span_tables(setup_out, passes):
    """Chrome-trace events and per-layer self times from every span list:
    the set-up process is pid 0, traced pass k is pid k."""
    sources = [(0, spans) for spans in setup_out.get("spans", [])]
    traced = [p for p in passes if p["side"]["traced"]]
    sources += [(k + 1, p.get("spans", [])) for k, p in enumerate(traced)]
    events = []
    layers = {}
    for pid, spans in sources:
        child_ns = [0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        for i, (name, start, end, parent) in enumerate(spans):
            events.append({
                "name": name, "cat": name.split(".")[0], "ph": "X",
                "ts": start / 1000.0, "dur": (end - start) / 1000.0,
                "pid": pid, "tid": 1,
                "args": {"parent": spans[parent][0] if parent >= 0 else ""},
            })
            key = f"setup/{name}" if pid == 0 else name
            row = layers.setdefault(key, {"calls": 0, "total_ns": 0,
                                          "self_ns": 0, "setup": pid == 0})
            row["calls"] += 1
            row["total_ns"] += end - start
            row["self_ns"] += end - start - child_ns[i]
    return events, layers, max(len(traced), 1)


def print_layer_table(layers, traced_passes, overhead_pct):
    log("per-layer self time (set-up spans: per run; pass spans: mean per "
        f"traced pass over {traced_passes})")
    print(f"  {'span':<28}{'calls':>8}{'total_s':>12}{'self_s':>12}",
          file=sys.stderr)
    for name, row in sorted(layers.items(),
                            key=lambda kv: -kv[1]["self_ns"]):
        div = 1 if row["setup"] else traced_passes
        print(f"  {name:<28}{row['calls'] // div:>8}"
              f"{row['total_ns'] / div * 1e-9:>12.4f}"
              f"{row['self_ns'] / div * 1e-9:>12.4f}", file=sys.stderr)
    print(f"  bench.trace_overhead_pct = {overhead_pct:.2f}",
          file=sys.stderr, flush=True)


def environment(info, name, cfg, seed, gen_seeds, seconds, reps):
    return {
        "nproc": os.cpu_count(),
        "hardware_concurrency": info.get("hardware_concurrency"),
        "compiler": info.get("compiler"),
        "build_type": info.get("build_type"),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "workload": name,
        "scale": cfg["scale"],
        "seed": seed,
        "generator_seeds": gen_seeds,
        "chunk_rows": cfg["chunk_rows"] or "default (131072)",
        "cadence_ms": cfg["cadence_ms"],
        "corpora": cfg["corpora"],
        "setup_reps": reps,
        "seconds": seconds,
        "threads": [1, 2],
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny corpora, one set-up, one pass per side")
    ap.add_argument("--out", help="result record path")
    a = ap.parse_args()

    name = a.workload
    cfg = dict(WORKLOADS[name])
    min_passes = 1 if a.smoke else MIN_PASSES
    if a.trace:
        cfg["corpora"] = 1
    reps = max(1, -(-SETUP_REPS // cfg["corpora"]))
    if a.smoke:
        cfg.update(SMOKE[name])
        reps = 1
        gen_seeds = [a.seed + i for i in range(cfg["corpora"])]
    else:
        gen_seeds = generator_seeds(name, a.seed, cfg["corpora"])

    bdir = build_dir()
    exe = build(bdir)
    code, info = invoke(exe, ["info"], {})
    if code != 0 or info is None or not info.get("optimized"):
        raise BenchError("perfbench binary refused to run or is unoptimised")
    env = environment(info, name, cfg, a.seed, gen_seeds, a.seconds, reps)
    log("environment", json.dumps(env, sort_keys=True))

    work = bdir / "work" / name
    setup_out = setup(exe, name, cfg, gen_seeds, work, reps)
    passes = measure(exe, name, cfg, work, cfg["corpora"], a.seconds,
                     bool(a.trace), min_passes)

    attempted = sum(int(p["ops"]) for p in passes)
    failed = sum(int(p["ops_failed"]) for p in passes)
    if a.trace:
        values = per_layer(setup_out, passes)
        units = PER_LAYER
        events, layers, n = span_tables(setup_out, passes)
        traces = bdir / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        trace_file = traces / f"{name}-seed{a.seed}.json"
        trace_file.write_text(json.dumps({"traceEvents": events,
                                          "displayTimeUnit": "ms"}))
        print_layer_table(layers, n, values["bench.trace_overhead_pct"])
        log("chrome trace:", trace_file)
    else:
        values = end_to_end(setup_out, passes, reps)
        units = END_TO_END
    result = {
        "correct": failed == 0 and all(v == v for v in values.values()),
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }

    out = Path(a.out) if a.out else (
        bdir / "results" / f"{name}-seed{a.seed}-trace{a.trace}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    record = {"env": env, "setup": {k: v for k, v in setup_out.items()
                                    if k != "spans"},
              "passes": [{k: v for k, v in p.items() if k != "spans"}
                         for p in passes],
              "result": result}
    out.write_text(json.dumps(record, indent=1, sort_keys=True))
    log(f"{len(passes)} passes, {failed} of {attempted} ops failed; "
        f"record: {out}")
    for k in units:
        log(f"  {k:<36} {values[k]:>16.6g} {units[k]}")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as e:
        log("error:", e)
        sys.exit(2)
