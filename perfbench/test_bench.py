#!/usr/bin/env python3
"""Tests of the benchmark itself (smoke mode, small fixed sizes).

    python3 perfbench/test_bench.py

Each test goes through run.py, so every run here also passes run.py's own
checks: no process of the run's group and no socket file survives it, and
the metric names and units match BENCHMARK.json.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, seed, trace, *extra):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace), "--smoke", *extra]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)


def info(stdout, key):
    for line in stdout.splitlines():
        parts = line.split(" ", 2)
        if parts[:2] == ["pfbench:", key]:
            return parts[2]
    raise AssertionError(f"no '{key}' line in:\n{stdout}")


class BenchmarkTest(unittest.TestCase):
    def test_every_metric_printed_with_its_unit(self):
        for workload in WORKLOADS:
            for trace, group in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    p = run(workload, 7, trace)
                    self.assertEqual(p.returncode, 0, p.stderr[-3000:])
                    result = json.loads(p.stdout.splitlines()[-1])
                    self.assertEqual(
                        sorted(result), ["attempted", "correct", "failed",
                                         "metrics"])
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    got = {name: m["unit"]
                           for name, m in result["metrics"].items()}
                    want = {m["name"]: m["unit"] for m in SPEC[group]}
                    self.assertEqual(got, want)

    def test_stream_digest_is_a_function_of_the_seed(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                runs = [run(workload, seed, 0, "--digest-only")
                        for seed in (3, 3, 4)]
                for p in runs:
                    self.assertEqual(p.returncode, 0, p.stderr[-3000:])
                digests = [info(p.stdout, "stream-digest") for p in runs]
                mixes = [info(p.stdout, "stream-mix") for p in runs]
                self.assertEqual(digests[0], digests[1])
                self.assertNotEqual(digests[0], digests[2])
                self.assertEqual(mixes[0], mixes[1])
                self.assertEqual(mixes[0], mixes[2])

    def test_planted_wrong_answer_fails_the_run(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                p = run(workload, 5, 0, "--plant-wrong")
                self.assertNotEqual(p.returncode, 0)
                self.assertIn(
                    f"WRONG ANSWER workload={workload} seed=5 op=", p.stderr)
                self.assertNotIn('"correct"', p.stdout)


if __name__ == "__main__":
    unittest.main()
