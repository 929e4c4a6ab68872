"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Runs every workload at a tiny size, traced and untraced, and checks that
each metric named in BENCHMARK.json is emitted with its unit; checks
that a certify op that exits 1 (the QFDIV_SELFTEST_CORRUPT hook) is
counted as failed and not timed; checks that the inputs' floor keeps
the known psi_sup defect away from the workloads; and checks that the
benchmark refuses to run without the qfdiv sources.  Takes well under a
minute.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import unittest
from dataclasses import replace

import run

TINY = {
    "fuzz-d4": {"trials": 2, "warm_trials": 3},
    "fuzz-d16": {"trials": 1, "warm_trials": 1},
    "fuzz-d8-jobs2": {"trials": 2, "warm_trials": 2},
    "certify-cold": {},
}


def _load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class BenchmarkSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run._import_qfdiv()
        cls.spec = _load(os.path.join(run.ROOT, "BENCHMARK.json"))
        cls.scratch = os.path.join(run.OUT, f"selftest-{os.getpid()}")
        os.makedirs(cls.scratch, exist_ok=True)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.scratch, ignore_errors=True)

    def test_workloads_match_benchmark_json(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]], list(run.WORKLOADS))
        self.assertEqual(set(TINY), set(run.WORKLOADS))

    def test_every_metric_is_emitted_with_its_unit(self):
        for name in run.WORKLOADS:
            w = replace(run.WORKLOADS[name], **TINY[name])
            for trace, key in ((False, "end_to_end"), (True, "per_layer")):
                with self.subTest(workload=name, trace=trace):
                    doc = run.run(w, seed=1, seconds=0.1, trace=trace, min_samples=3,
                                  probes=1)["result"]
                    self.assertEqual(set(doc), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(doc["correct"])
                    self.assertEqual(doc["failed"], 0)
                    self.assertGreaterEqual(doc["attempted"], 4)
                    want = {m["name"]: m["unit"] for m in self.spec[key]}
                    got = {k: m["unit"] for k, m in doc["metrics"].items()}
                    self.assertEqual(got, want)
                    for k, m in doc["metrics"].items():
                        self.assertTrue(math.isfinite(m["value"]), k)
                    if not trace:
                        for k in want:
                            self.assertGreater(doc["metrics"][k]["value"], 0.0, k)

    def test_failed_certify_op_is_counted_and_not_timed(self):
        runner = run.CertifyRunner(run.WORKLOADS["certify-cold"], 1, self.scratch)
        tally = run.Tally()
        tally.add(runner.op(0))
        runner.env["QFDIV_SELFTEST_CORRUPT"] = "1"
        tally.add(runner.op(1))
        self.assertEqual((tally.attempted, tally.failed, len(tally.passed)), (2, 1, 1))
        self.assertIn("exit code 1", tally.reasons[0])

    def test_floor_avoids_the_known_defect(self):
        probe = run.known_defect_probe()
        self.assertEqual(probe["exit_code"] == 1, probe["violations"] > 0)
        runner = run.FuzzRunner(run.WORKLOADS["fuzz-d16"], 1)
        argv = list(run.DEFECT_ARGV) + ["--floor", repr(run.FLOOR)]
        outcome = runner.call(argv, 3)
        self.assertTrue(outcome.ok, outcome.reason)

    def test_refuses_to_run_without_sources(self):
        bare = os.path.join(self.scratch, "bare")
        shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "fuzz-d4", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
            env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)

    def test_predictions_cite_known_names(self):
        metrics = {m["name"] for m in self.spec["end_to_end"] + self.spec["per_layer"]}
        workloads = set(run.WORKLOADS)
        pred = _load(os.path.join(run.HERE, "predictions.json"))
        for row in pred["predictions"]:
            self.assertLessEqual(set(row["layer_metrics"]), metrics)
            for effect in row["moves"] + row["barely_moves"]:
                self.assertIn(effect["metric"], metrics)
                self.assertLessEqual(set(effect["on"]), workloads)
        self.assertLessEqual(set(pred["largest_self_time"]), workloads)


if __name__ == "__main__":
    unittest.main(verbosity=2)
