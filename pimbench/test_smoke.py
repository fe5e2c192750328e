#!/usr/bin/env python3
"""Smoke self-test of the benchmark.

  python3 pimbench/test_smoke.py

Runs every workload at tiny size (--smoke), untraced and traced, and checks
the result line's shape, that metric names and units match BENCHMARK.json,
that every per-layer metric has a layers.json mapping, that a deliberately
corrupted schedule or reply is counted as a failed op (nonzero exit), and
that the benchmark refuses to run without the repository sources.
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
RUN = os.path.join(HERE, "run.py")
BENCH = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
LAYERS = json.load(open(os.path.join(HERE, "layers.json")))
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run(workload, trace=0, *extra):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke", *extra],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, [json.loads(l) for l in lines], proc.stderr


class ResultShape(unittest.TestCase):
    def check(self, workload, trace):
        rc, lines, err = run(workload, trace)
        self.assertEqual(rc, 0, err[-2000:])
        result = lines[-1]
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True)
        self.assertIsInstance(result["attempted"], int)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        spec = BENCH["per_layer" if trace else "end_to_end"]
        self.assertEqual(list(result["metrics"]), [m["name"] for m in spec])
        for m in spec:
            got = result["metrics"][m["name"]]
            self.assertEqual(set(got), {"value", "unit"})
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float))
        if not trace:
            for m in spec:
                self.assertGreater(result["metrics"][m["name"]]["value"], 0,
                                   m["name"])
        info = lines[-2]["info"]
        for key in ("nproc", "simd_tier", "build_type"):
            self.assertIn(key, info["host"])
        self.assertTrue({"git_sha", "source_sha1"} & set(info["host"]))
        self.assertEqual(info["seed"], 3)

    def test_every_workload_untraced(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                self.check(w, 0)

    def test_every_workload_traced(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                self.check(w, 1)


class Checks(unittest.TestCase):
    def test_corruption_is_a_failed_op(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                rc, lines, err = run(w, 0, "--corrupt")
                self.assertNotEqual(rc, 0)
                result = lines[-1]
                self.assertIs(result["correct"], False)
                self.assertGreaterEqual(result["failed"], 1)

    def test_layer_mapping_covers_every_metric(self):
        names = {m["name"] for m in BENCH["per_layer"]}
        self.assertEqual(names, set(LAYERS["per_layer"]))
        for info in LAYERS["per_layer"].values():
            self.assertTrue(set(info["workloads"]) <= set(WORKLOADS))
            self.assertTrue(info["moves"])
        self.assertEqual(set(LAYERS["workloads"]), set(WORKLOADS))

    def test_refuses_without_sources(self):
        # A directory holding only BENCHMARK.json and pimbench/.
        scratch = tempfile.mkdtemp(dir=HERE)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), scratch)
            shutil.copytree(HERE, os.path.join(scratch, "pimbench"),
                            ignore=shutil.ignore_patterns(
                                os.path.basename(scratch), "__pycache__"))
            env = dict(os.environ)
            env.pop("CARGO_TARGET_DIR", None)
            proc = subprocess.run(
                [sys.executable, os.path.join("pimbench", "run.py"),
                 "--workload", WORKLOADS[0], "--seed", "1", "--seconds",
                 "1", "--trace", "0"],
                cwd=scratch, env=env, stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, text=True, timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")
        finally:
            shutil.rmtree(scratch)


if __name__ == "__main__":
    unittest.main()
