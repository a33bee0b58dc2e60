#!/usr/bin/env python3
"""End-to-end tests of the benchmark command.

    python3 perfbench/tests/test_run.py      (from the repository root)

Runs every workload through perfbench/run.py (building it on first use)
and checks: the result line names every metric of BENCHMARK.json with its
unit; outputs pass their checks on two seeds; counts of a traced run
repeat exactly for the same seed; and the command fails without printing
a result where the repository's sources are missing. Takes a few minutes.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
WORKLOADS = ("anytime_session", "serve_shared", "serve_distinct")

# Counts that depend only on the seed, never on timing.
EXACT_COUNTS = {
    "anytime_session": (
        "core.plans_generated", "core.pairs_generated",
        "core.candidate_retrievals", "core.result_insert_ratio",
        "pareto.dominance_checks", "pareto.prune_calls",
        "index.result_entries", "index.candidate_entries",
        "plan.arena_plans"),
    "serve_shared": ("fragment_store.hits", "core.plans_per_request",
                     "service.steps", "sharing.repeat_share"),
    "serve_distinct": ("core.plans_per_request", "service.steps"),
}
# serve_distinct shares nothing: no lookup hits, no repeats.
ZERO = {"serve_distinct": ("fragment_store.hits", "sharing.repeat_share",
                           "service.cache_hit_rate", "service.coalesced")}


def run(workload, seed, trace, seconds=2, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=900)
    return proc


def result(proc):
    return json.loads(proc.stdout.splitlines()[-1])


class BenchmarkCommandTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)
        cls.traced = {}

    def traced_run(self, workload, seed):
        key = (workload, seed)
        if key not in self.traced:
            proc = run(workload, seed, trace=1)
            self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
            self.traced[key] = result(proc)
        return self.traced[key]

    def assert_clean(self, out, group):
        self.assertTrue(out["correct"])
        self.assertGreaterEqual(out["attempted"], 1)
        self.assertEqual(out["failed"], 0)
        expected = {m["name"]: m["unit"] for m in self.spec[group]}
        got = {name: m["unit"] for name, m in out["metrics"].items()}
        self.assertEqual(got, expected)
        for name, m in out["metrics"].items():
            self.assertIsInstance(m["value"], (int, float), name)

    def test_untraced_runs_report_every_end_to_end_metric(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                proc = run(workload, 1, trace=0)
                self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                out = result(proc)
                self.assert_clean(out, "end_to_end")
                for name, m in out["metrics"].items():
                    self.assertGreater(m["value"], 0, name)

    def test_traced_runs_report_every_per_layer_metric(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.assert_clean(self.traced_run(workload, 1), "per_layer")

    def test_counts_repeat_exactly_and_a_second_seed_runs_clean(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first = self.traced_run(workload, 1)
                again = run(workload, 1, trace=1)
                self.assertEqual(again.returncode, 0, again.stderr[-2000:])
                again = result(again)
                for name in EXACT_COUNTS[workload]:
                    self.assertEqual(first["metrics"][name]["value"],
                                     again["metrics"][name]["value"], name)
                    self.assertGreater(first["metrics"][name]["value"], 0,
                                       name)
                for name in ZERO.get(workload, ()):
                    self.assertEqual(first["metrics"][name]["value"], 0, name)
                self.assert_clean(self.traced_run(workload, 2), "per_layer")

    def test_fails_without_the_repository_sources(self):
        with tempfile.TemporaryDirectory() as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(os.path.join(ROOT, "perfbench"),
                            os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ)
            env.pop("CARGO_TARGET_DIR", None)
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "serve_shared", "--seed", "1", "--seconds", "1",
                 "--trace", "0"],
                cwd=bare, env=env, stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, text=True, timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
