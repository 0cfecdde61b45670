#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/test_bench.py        (from the repository root)

Each test drives the real command, perfbench/run.py, on short runs
(--seconds 3: one instance per solve workload, a stream of about 70
arrivals), so the whole file takes a few minutes.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BENCH = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
SECONDS = "3"
# Outputs that depend only on the inputs, never on the wall clock.
DETERMINISTIC_META = ["inputs_digest", "fingerprint", "revenue_hex", "nodes",
                      "ticks"]
DETERMINISTIC_METRICS = ["revenue_share", "bound_share", "acceptance_ratio"]

_cache = {}


def run(workload, seed, trace, cwd=ROOT):
    """(exit code, metadata line, result object) of one benchmark run."""
    key = (workload, seed, trace, cwd)
    if key not in _cache:
        proc = subprocess.run(
            [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
             "--workload", workload, "--seed", str(seed),
             "--seconds", SECONDS, "--trace", str(trace)],
            cwd=cwd, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        meta = json.loads(lines[-2]) if len(lines) >= 2 else None
        result = json.loads(lines[-1]) if lines else None
        _cache[key] = (proc.returncode, meta, result)
    return _cache[key]


def declared(section):
    return {m["name"]: m["unit"] for m in BENCH[section]}


class Determinism(unittest.TestCase):
    def test_same_seed_same_inputs_and_decisions(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                rc1, meta1, res1 = run(w, 7, 0)
                rc2, meta2, res2 = run(w, 7, 0)
                self.assertEqual((rc1, rc2), (0, 0))
                for k in DETERMINISTIC_META:
                    self.assertEqual(meta1[k], meta2[k], k)
                for k in DETERMINISTIC_METRICS:
                    self.assertEqual(res1["metrics"][k], res2["metrics"][k], k)

    def test_different_seed_different_inputs(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                _, meta7, _ = run(w, 7, 0)
                _, meta8, _ = run(w, 8, 0)
                self.assertNotEqual(meta7["inputs_digest"],
                                    meta8["inputs_digest"])
                self.assertNotEqual(meta7["fingerprint"], meta8["fingerprint"])


class Results(unittest.TestCase):
    def check_result(self, result, section):
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        units = declared(section)
        printed = result["metrics"]
        self.assertEqual(set(printed), set(units))
        for name, m in printed.items():
            self.assertEqual(m["unit"], units[name], name)
            self.assertIsInstance(m["value"], (int, float), name)

    def test_untraced_prints_every_end_to_end_metric(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                rc, _, result = run(w, 7, 0)
                self.assertEqual(rc, 0)
                self.check_result(result, "end_to_end")
                for name, m in result["metrics"].items():
                    self.assertNotEqual(m["value"], 0, name)

    def test_traced_prints_every_per_layer_metric(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                rc, meta, result = run(w, 7, 1)
                self.assertEqual(rc, 0)
                self.check_result(result, "per_layer")
                self.assertEqual(meta["fingerprint"],
                                 meta["untraced_fingerprint"])
                host = meta["host"]
                for k in ["online_cpus", "recommended_domains",
                          "ocaml_version", "jobs", "work_rate", "seed"]:
                    self.assertIn(k, host)
                self.assertEqual(host["seed"], 7)


class Stripped(unittest.TestCase):
    def test_fails_without_the_program(self):
        # Only BENCHMARK.json and the benchmark's own files: the build
        # cannot find the solver, so the command must fail without a result.
        workdir = os.path.join(HERE, "_run")
        os.makedirs(workdir, exist_ok=True)
        d = tempfile.mkdtemp(dir=workdir)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), d)
            for p in BENCH["paths"]:
                shutil.copytree(os.path.join(ROOT, p), os.path.join(d, p),
                                ignore=shutil.ignore_patterns("_run"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 WORKLOADS[0], "--seed", "1", "--seconds", SECONDS,
                 "--trace", "0"],
                cwd=d, capture_output=True, text=True, timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(d)


if __name__ == "__main__":
    unittest.main(verbosity=2)
