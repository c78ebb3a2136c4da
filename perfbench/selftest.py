"""Self-test of the benchmark: python3 perfbench/selftest.py

Runs every workload at its smallest size, untraced and traced, and checks
the result line against BENCHMARK.json; checks that corrupted outputs count
as failed operations; and checks that a directory without the solv3d
sources gets a non-zero exit and no result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import unittest

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)


def bench(*args, cwd=ROOT):
    cmd = [sys.executable, *BENCHMARK["command"][1:], *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def result_line(proc) -> dict:
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def failures(proc) -> list[str]:
    """The FAILED lines a run printed, without their prefix."""
    return [line.strip()[len("FAILED "):] for line in proc.stdout.splitlines()
            if line.startswith("  FAILED ")]


class SmallestRuns(unittest.TestCase):
    def check_metrics(self, proc, specs):
        res = result_line(proc)
        self.assertEqual(sorted(res), ["attempted", "correct", "failed", "metrics"])
        self.assertEqual(failures(proc), [])
        self.assertTrue(res["correct"])
        self.assertEqual(res["failed"], 0)
        self.assertGreaterEqual(res["attempted"], 1)
        self.assertEqual(sorted(res["metrics"]), sorted(m["name"] for m in specs))
        for m in specs:
            got = res["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float))

    def test_every_workload_untraced(self):
        for name in run.WORKLOAD_NAMES:
            with self.subTest(workload=name):
                proc = bench("--workload", name, "--seed", "7", "--seconds", "1",
                             "--trace", "0", "--small")
                self.check_metrics(proc, BENCHMARK["end_to_end"])
                res = result_line(proc)
                for m in BENCHMARK["end_to_end"]:
                    self.assertGreater(res["metrics"][m["name"]]["value"], 0.0, m["name"])

    def test_every_workload_traced(self):
        for name in run.WORKLOAD_NAMES:
            with self.subTest(workload=name):
                procs = [bench("--workload", name, "--seed", "7", "--seconds", "0",
                               "--trace", "1", "--small") for _ in range(2)]
                for proc in procs:
                    self.check_metrics(proc, BENCHMARK["per_layer"])
                runs = [result_line(proc) for proc in procs]
                calls = [{k: v["value"] for k, v in r["metrics"].items()
                          if v["unit"] in ("count", "bytes")} for r in runs]
                self.assertEqual(calls[0], calls[1], "call counts must repeat exactly")

    def test_missing_sources_fail(self):
        bare = os.path.join(HERE, "out", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in BENCHMARK["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = bench("--workload", "reach_grid", "--seed", "1", "--seconds", "1",
                      "--trace", "0", cwd=bare)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


class CorruptedOutputs(unittest.TestCase):
    """A wrong output must count as a failed operation."""

    def setUp(self):
        self.work_dir = run.fresh_dir(os.path.join(HERE, "out", "selftest"))

    def tearDown(self):
        shutil.rmtree(self.work_dir, ignore_errors=True)

    def test_perturbed_simulate_endpoint(self):
        wl = workloads.TrajectoryWorkload(3, self.work_dir, small=True)
        s = wl.sim_inputs(0)[0]
        rec = workloads.Recorder(wl.reference)

        def corrupted(sim_input):
            traj = wl.simulate(sim_input)
            traj.states[-1, 1] += 1e-6
            return traj

        rec.call("simulate", wl.sim_check(s), wl.simulate, s)
        rec.call("simulate corrupted", wl.sim_check(s), corrupted, s)
        rec.run_checks()
        self.assertEqual((rec.attempted, rec.failed), (2, 1), rec.messages)
        self.assertIn("oracle", rec.messages[0])

    def test_wrong_expected_taxonomy(self):
        wl = workloads.ReachGridWorkload(3, self.work_dir, small=True)
        wl.cases[1].taxonomy = workloads.reach.TAX_WHOLE  # the Closed system
        rec = workloads.Recorder(wl.reference)
        wl.round(rec, 0)
        rec.run_checks()
        self.assertEqual((rec.attempted, rec.failed), (3, 1), rec.messages)

    def test_changed_cli_artifact(self):
        wl = workloads.CliSessionWorkload(3, self.work_dir, small=True)
        cmd = wl.session(0)[-2]  # plan circle-hop
        out_dir = os.path.join(self.work_dir, "a")
        rerun_dir = os.path.join(self.work_dir, "b")
        rec = workloads.Recorder(wl.reference)
        for d in (out_dir, rerun_dir):
            rec.call(cmd.label, None, wl.run_command, cmd, d)
        with open(os.path.join(rerun_dir, "control.csv"), "a", encoding="utf-8") as fh:
            fh.write("0.1,0.0\n")
        rec.call("rerun", wl.check(cmd, out_dir, rerun_dir), lambda: 0)
        rec.run_checks()
        self.assertEqual(rec.failed, 1, rec.messages)
        self.assertIn("changed control.csv", rec.messages[0])


class Statistics(unittest.TestCase):
    def test_tail_has_ten_samples_beyond(self):
        values = list(np.arange(1.0, 26.0))
        value, pct = workloads.tail(values)
        self.assertEqual(sum(v > value for v in values), 10)
        self.assertEqual((value, pct), (15.0, 60))
        with self.assertRaises(ValueError):
            workloads.tail(values[:10])


if __name__ == "__main__":
    unittest.main(verbosity=2)
