"""The CI workflow runs the ROADMAP's tier-1 command and not the benchmark."""

import re
from pathlib import Path

import pytest

yaml = pytest.importorskip("yaml")

ROOT = Path(__file__).resolve().parents[1]


def test_tier1_workflow_runs_the_roadmap_command():
    workflow = yaml.safe_load((ROOT / ".github" / "workflows" / "tier1.yml").read_text())
    [job] = workflow["jobs"].values()
    runs = [step["run"] for step in job["steps"] if "run" in step]
    tier1 = re.search(r"\*\*Tier-1 verify:\*\* `([^`]+)`",
                      (ROOT / "ROADMAP.md").read_text()).group(1)
    assert runs == ["pip install -e '.[test]'", tier1]
    [python] = [step["with"]["python-version"] for step in job["steps"]
                if "setup-python" in step.get("uses", "")]
    assert python == "3.11"
    assert not any("perfbench" in run for run in runs)
