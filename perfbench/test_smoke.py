"""Smoke test of the benchmark runner at the ``tiny`` size.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Each workload runs once through ``run.py`` itself; the test checks that every
metric named in ``BENCHMARK.json`` is printed with its unit, that a corrupted
expected digest registers as a failure, that trace counts repeat exactly
under two different string-hash seeds, and that the runner fails without a result when the library is missing.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT, trace=0, seed=1, env=None):
    cmd = [sys.executable, "perfbench/run.py", "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace), "--size", "tiny", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170,
                          env={**os.environ, **(env or {})})


def copy_bench(tmp) -> Path:
    """A copy of the benchmark files alone, without the library."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp)
    shutil.copytree(HERE, Path(tmp) / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    return Path(tmp) / "perfbench"


def result(proc):
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


class SmokeTest(unittest.TestCase):

    def assert_metrics(self, res, specs):
        self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(set(res["metrics"]), {m["name"] for m in specs})
        for m in specs:
            got = res["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])

    def test_every_workload_prints_every_metric(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                _, res = result(bench("--workload", w["name"]))
                self.assertTrue(res["correct"])
                self.assertEqual(res["failed"], 0)
                self.assertGreaterEqual(res["attempted"], 1)
                self.assert_metrics(res, SPEC["end_to_end"])

    def test_traced_run_prints_every_layer_metric_and_counts_repeat(self):
        for name in ("so_formal", "diag_formal"):
            with self.subTest(workload=name):
                counts = []
                for hash_seed in ("1", "2"):
                    lines, res = result(bench("--workload", name, trace=1,
                                              env={"PYTHONHASHSEED": hash_seed}))
                    self.assertTrue(res["correct"])
                    self.assert_metrics(res, SPEC["per_layer"])
                    counts.append(next(json.loads(l)["counts"] for l in lines
                                       if '"counts"' in l))
                self.assertEqual(counts[0], counts[1])

    def test_corrupted_digest_is_a_failure(self):
        expected = json.loads((HERE / "expected.json").read_text())
        expected["so_formal"]["tiny"]["digest"] = "0" * 64
        with tempfile.TemporaryDirectory() as tmp:
            (copy_bench(tmp) / "expected.json").write_text(json.dumps(expected))
            _, res = result(bench("--workload", "so_formal", cwd=tmp,
                                  env={"PYTHONPATH": str(ROOT / "src")}))
        self.assertFalse(res["correct"])
        self.assertGreaterEqual(res["failed"], 1)
        self.assertLess(res["metrics"]["pass_ratio"]["value"], 1)

    def test_fails_without_the_library(self):
        with tempfile.TemporaryDirectory() as tmp:
            copy_bench(tmp)
            proc = bench("--workload", "ops_random", cwd=tmp)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
