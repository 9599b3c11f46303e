"""Tests of the benchmark itself, on its tiny --smoke inputs.

Run from the repository root:

    python3 -m unittest discover -s perfbench/tests -v

Each test goes through perfbench/run.py, so the first one builds the program.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN = os.path.join(ROOT, "perfbench", "run.py")
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(*args, cwd=ROOT, script=RUN):
    done = subprocess.run([sys.executable, script] + list(args), cwd=cwd,
                          capture_output=True, text=True, timeout=900, check=False)
    return done


def result(done):
    lines = done.stdout.strip().splitlines()
    assert done.returncode == 0, done.stderr + done.stdout[-2000:]
    return json.loads(lines[-1]), lines


def smoke(workload, *extra, trace=0):
    return result(run("--workload", workload, "--seed", "1", "--seconds", "1",
                      "--trace", str(trace), "--smoke", *extra))


class MetricsTest(unittest.TestCase):
    def check_metrics(self, res, lines, expected):
        self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(list(res["metrics"]), [m["name"] for m in expected])
        for m in expected:
            got = res["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float))
            self.assertTrue(any(line.startswith("metric %s = " % m["name"]) and
                                line.endswith(" " + m["unit"]) for line in lines),
                            "no printed line for " + m["name"])

    def test_end_to_end_metrics_print_with_units(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                res, lines = smoke(workload)
                self.check_metrics(res, lines, SPEC["end_to_end"])
                self.assertTrue(res["correct"])
                self.assertEqual(res["failed"], 0)
                self.assertGreater(res["attempted"], 0)
                self.assertTrue(any(l.startswith("env: nproc=") for l in lines))
                for name in ("query_s", "cpu_s", "setup_s", "peak_rss_mb"):
                    self.assertGreater(res["metrics"][name]["value"], 0, name)
                self.assertEqual(res["metrics"]["ops_ok_ratio"]["value"], 1)

    def test_per_layer_metrics_print_with_units_and_counts_repeat(self):
        counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first, lines = smoke(workload, trace=1)
                self.check_metrics(first, lines, SPEC["per_layer"])
                self.assertTrue(first["correct"])
                self.assertTrue(any(l.startswith("layer shares: ") for l in lines))
                second, _ = smoke(workload, trace=1)
                for name in counts:
                    self.assertEqual(first["metrics"][name]["value"],
                                     second["metrics"][name]["value"], name)


class ReferenceTest(unittest.TestCase):
    def test_perturbed_reference_is_a_failed_op(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                res, lines = smoke(workload, "--perturb-reference")
                self.assertFalse(res["correct"])
                self.assertGreaterEqual(res["failed"], 1)
                self.assertLess(res["metrics"]["ops_ok_ratio"]["value"], 1)
                self.assertTrue(any("FAILED" in l and "pinned" in l for l in lines))

    def test_seed_changes_inputs_not_correctness(self):
        res, lines = smoke("splatt_cpd", "--seed", "7")
        self.assertTrue(res["correct"])
        self.assertTrue(any("no reference pinned for this seed" in l for l in lines))


class IsolationTest(unittest.TestCase):
    def test_fails_without_library_sources(self):
        build = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
        if not os.path.isabs(build):
            build = os.path.join(ROOT, build)
        alone = os.path.join(build, "isolated")
        shutil.rmtree(alone, ignore_errors=True)
        shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(alone, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), alone)
        done = run("--workload", "fig3_sweep", "--seed", "1", "--seconds", "1",
                   "--trace", "0", cwd=alone,
                   script=os.path.join(alone, "perfbench", "run.py"))
        shutil.rmtree(alone, ignore_errors=True)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    unittest.main()
