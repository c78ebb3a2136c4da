"""Shared pytest hooks: per-criterion pass/fail lines for the acceptance suite."""

import os
import tempfile

# hypothesis caches the constants it reads from local source files under its
# storage directory even without an example database; keep that cache out of
# the checkout
os.environ.setdefault("HYPOTHESIS_STORAGE_DIRECTORY",
                      os.path.join(tempfile.gettempdir(), "solv3d-hypothesis"))

CRITERIA = {
    "test_criterion_1_kernel_exactness": (1, "kernel closed forms vs oracles"),
    "test_criterion_2_group_flow_laws": (2, "group axioms and flow laws"),
    "test_criterion_3_rank_conditions": (3, "rank-condition equivalences"),
    "test_criterion_4_planar_machinery": (4, "planar equilibria, solutions, roots"),
    "test_criterion_5_classification_vs_numerics": (5, "taxonomy vs sampled reach sets"),
    "test_criterion_6_constructive_planners": (6, "planner endpoint errors and roots"),
    "test_criterion_7_rank_zero_dichotomy": (7, "rank-zero dichotomy certificates"),
    "test_criterion_8_covering_theorems": (8, "quotient/lift consistency"),
    "test_criterion_9_determinism": (9, "byte-identical reruns"),
}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    results = {}
    for status, ok in (("passed", True), ("failed", False), ("error", False)):
        for rep in terminalreporter.stats.get(status, []):
            name = rep.location[2].split("[")[0]
            if name in CRITERIA:
                num, _ = CRITERIA[name]
                results[num] = results.get(num, True) and ok
    if not results:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name, (num, desc) in sorted(CRITERIA.items(), key=lambda kv: kv[1][0]):
        if num in results:
            verdict = "PASS" if results[num] else "FAIL"
            terminalreporter.write_line(f"criterion {num}: {verdict} ({desc})")
