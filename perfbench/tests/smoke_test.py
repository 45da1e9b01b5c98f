#!/usr/bin/env python3
"""Smoke self-test of the benchmark: every workload at tiny scale.

    python3 perfbench/tests/smoke_test.py

Runs run.py --smoke on each workload run.py defines, with tracing off and
on. It checks that the result line has exactly the contract's keys, that
every metric named in BENCHMARK.json is reported with its unit, that every
correctness gate passed, and that the 1-thread counts repeat exactly across
traced passes and runs. It then corrupts a reference to prove the gates can
fail, and runs diff.py on two records. Builds the benchmark first if needed
(minutes); afterwards the whole test takes about a minute.
"""

import json
import math
import os
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402  (perfbench/run.py)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# Every workload run.py knows, including any BENCHMARK.json leaves out.
WORKLOADS = list(run.WORKLOADS)
# Counts that must repeat exactly at BW_THREADS=1.
EXACT_COUNTS = ["store.chunks_decoded", "rolling.snapshots", "rolling.bytes",
                "transport.frames", "stream.delivered"] + [
    f"kernel.{k}.scan_rows" for k in run.KERNELS]


def run_bench(workload, trace, out):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace), "--smoke",
         "--out", str(out)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=900)
    if done.returncode != 0:
        raise AssertionError(f"run.py {workload} trace {trace} exited "
                             f"{done.returncode}:\n{done.stderr[-4000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1]), done.stderr


class SmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.tmp = tempfile.TemporaryDirectory()
        cls.results = {}
        for workload in WORKLOADS:
            for trace in (0, 1):
                out = Path(cls.tmp.name) / f"{workload}-{trace}.json"
                cls.results[workload, trace] = (run_bench(workload, trace, out),
                                                out)

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def check_metrics(self, result, spec, positive):
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(list(result["metrics"]), [m["name"] for m in spec])
        for m in spec:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])
            if positive:
                self.assertGreater(got["value"], 0, m["name"])

    def test_end_to_end_metrics_and_gates(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                (result, _err), _out = self.results[workload, 0]
                self.check_metrics(result, SPEC["end_to_end"], positive=True)

    def test_per_layer_metrics_and_gates(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                (result, err), _out = self.results[workload, 1]
                self.check_metrics(result, SPEC["per_layer"], positive=False)
                self.assertIn("bench.trace_overhead_pct", err)

    def test_layers_are_exercised_where_predicted(self):
        m = {w: self.results[w, 1][0][0]["metrics"] for w in WORKLOADS}
        self.assertGreater(m["analyze-ram"]["core.load_s"]["value"], 0)
        self.assertEqual(
            m["analyze-ram"]["store.decode_amplification"]["value"], 1.0)
        self.assertGreater(
            m["analyze-ooc"]["store.decode_amplification"]["value"], 1.0)
        self.assertGreater(m["replay-rolling"]["rolling.snapshots"]["value"],
                           10)
        self.assertEqual(m["live-unix"]["rolling.snapshots"]["value"], 1)
        self.assertEqual(m["replay-final"]["rolling.snapshots"]["value"], 1)
        self.assertGreater(m["replay-final"]["transport.frames"]["value"], 0)
        self.assertGreater(m["live-unix"]["transport.frames"]["value"], 0)
        for w in WORKLOADS:
            for zero in ("stream.shed_total", "stream.late_dropped",
                         "transport.crc_failures"):
                self.assertEqual(m[w][zero]["value"], 0, (w, zero))

    def test_counts_repeat_exactly_at_one_thread(self):
        for workload in WORKLOADS:
            _res, out = self.results[workload, 1]
            record = json.loads(out.read_text())
            traced = [p["metrics"] for p in record["passes"]
                      if p["side"]["traced"]]
            self.assertGreaterEqual(len(traced), 1)
            (again, _err) = run_bench(workload, 1, out)
            repeat = json.loads(out.read_text())["passes"]
            traced += [p["metrics"] for p in repeat if p["side"]["traced"]]
            for key in EXACT_COUNTS:
                values = {t.get(key) for t in traced}
                self.assertEqual(len(values), 1, (workload, key, values))

    def test_environment_record(self):
        _res, out = self.results["analyze-ooc", 0]
        env = json.loads(out.read_text())["env"]
        for key in ("nproc", "hardware_concurrency", "compiler", "build_type",
                    "scale", "seed", "chunk_rows", "cadence_ms"):
            self.assertIn(key, env)
        self.assertIn(env["build_type"], ("Release", "RelWithDebInfo"))

    def test_corrupted_reference_fails_named_gate(self):
        bdir = run.build_dir()
        exe = bdir / "build" / "perfbench"
        expect = {
            "analyze-ram": "analyze-ram.report_digest",
            "analyze-ooc": "analyze-ooc.report_equals_in_ram",
            "replay-rolling": "replay-rolling.final_figures_equal_batch",
            "replay-final": "replay-final.final_figures_equal_batch",
            "live-unix": "live-unix.final_snapshot_equals_lockstep",
        }
        for workload, gate in expect.items():
            with self.subTest(workload=workload):
                # Rebuild the smoke work directory, then corrupt it.
                run_bench(workload, 0, Path(self.tmp.name) / "rebuild.json")
                work = bdir / "work" / workload / "c0"
                ref = work / "reference.txt"
                ref.write_text(ref.read_text() + " ")
                cadence = run.SMOKE[workload].get(
                    "cadence_ms", run.WORKLOADS[workload]["cadence_ms"])
                done = subprocess.run(
                    [str(exe), "pass", "--workload", workload, "--dir",
                     str(work), "--cadence-ms", str(cadence)],
                    cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=120,
                    env=dict(os.environ, BW_THREADS="1"))
                out = json.loads(done.stdout.strip().splitlines()[-1])
                self.assertIn(gate, out["gates_failed"])
                self.assertGreater(out["ops_failed"], 0)

    def test_diff_names_a_layer(self):
        _res, base = self.results["analyze-ooc", 1]
        _res, new = self.results["analyze-ram", 1]
        done = subprocess.run(
            [sys.executable, str(BENCH / "diff.py"), str(base), str(new)],
            stdout=subprocess.PIPE, text=True, timeout=60)
        self.assertEqual(done.returncode, 0)
        self.assertIn("largest timing change: layer ", done.stdout)


if __name__ == "__main__":
    unittest.main()
