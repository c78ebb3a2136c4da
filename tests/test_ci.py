"""The CI workflow runs the ROADMAP's tier-1 command, and the benchmark only
through its self-test."""

import re
from pathlib import Path

import pytest

yaml = pytest.importorskip("yaml")

ROOT = Path(__file__).resolve().parents[1]


def _jobs():
    return yaml.safe_load((ROOT / ".github" / "workflows" / "tier1.yml").read_text())["jobs"]


def _runs(job):
    return [step["run"] for step in job["steps"] if "run" in step]


def test_tier1_workflow_runs_the_roadmap_command():
    job = _jobs()["tests"]
    runs = _runs(job)
    tier1 = re.search(r"\*\*Tier-1 verify:\*\* `([^`]+)`",
                      (ROOT / "ROADMAP.md").read_text()).group(1)
    assert runs == ["pip install -e '.[test]'", tier1]
    [python] = [step["with"]["python-version"] for step in job["steps"]
                if "setup-python" in step.get("uses", "")]
    assert python == "3.11"
    assert not any("perfbench" in run for run in runs)


def test_bench_selftest_job_runs_only_the_selftest():
    jobs = _jobs()
    assert set(jobs) == {"tests", "bench-selftest"}
    assert _runs(jobs["bench-selftest"]) == ["pip install -e '.[test]'",
                                             "python3 perfbench/selftest.py"]
