"""The package imports no third-party module that it does not declare.

Every top-level module imported anywhere in ``src/solv3d`` (inside
functions too) is the package itself, the standard library, or a runtime
dependency listed in ``pyproject.toml``.  Test-only tools such as scipy
live in the ``test`` extra and must not come back into the package.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "solv3d"


def imported_modules(source: str) -> set[str]:
    """Top-level names of the absolute imports anywhere in ``source``."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_checker():
    source = "import numpy as np\nfrom . import plan\ndef f():\n    from scipy import optimize\n"
    assert imported_modules(source) == {"numpy", "scipy"}


def test_every_third_party_import_is_a_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", dep).group().lower().replace("-", "_")
                for dep in project["dependencies"]}
    undeclared = {
        path.name: sorted(name for name in imported_modules(path.read_text())
                          if name != "solv3d" and name not in sys.stdlib_module_names
                          and name not in declared)
        for path in sorted(SRC.glob("*.py"))
    }
    assert {k: v for k, v in undeclared.items() if v} == {}
