"""The package imports no third-party module that it does not declare.

Every top-level module imported anywhere in ``src/solv3d`` (inside
functions too) is the package itself, the standard library, or a runtime
dependency listed in ``pyproject.toml``.  Test-only tools such as scipy
live in the ``test`` extra and must not come back into the package.
Verification and planning propagate every leg in closed form, so they
import no ``simulate`` and its fixed-step integration; ``simulate`` itself
reaches no planar reduction.  No module imports a ``_``-prefixed name of
another: a helper two modules need is public, or both uses live beside it.
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


def simulate_uses(source: str) -> list[int]:
    """Lines of ``source`` that import ``simulate`` or read it as an attribute."""
    return sorted(
        node.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and any(alias.name.split(".")[-1] == "simulate" for alias in node.names)
        or isinstance(node, ast.Attribute) and node.attr == "simulate"
    )


def test_simulate_checker():
    source = ("from .system import nilrank\ndef f():\n    from .system import simulate\n"
              "from . import system\nsystem.simulate(g, ctrl, sys)\n")
    assert simulate_uses(source) == [3, 5]
    assert simulate_uses("def simulate_leg():\n    return 'simulate'\n") == []


@pytest.mark.parametrize("name", ["reach.py", "plan.py"])
def test_verification_and_planning_use_no_simulate(name):
    assert simulate_uses((SRC / name).read_text()) == [], name


def names_reached(source: str, entry: str) -> set[str]:
    """Every name that the module-level function ``entry`` of ``source``
    reads, directly or through the module-level functions it calls."""
    defs = {node.name: node for node in ast.parse(source).body
            if isinstance(node, ast.FunctionDef)}
    seen, todo = set(), [entry]
    while todo:
        for node in ast.walk(defs[todo.pop()]):
            name = node.id if isinstance(node, ast.Name) else \
                node.attr if isinstance(node, ast.Attribute) else None
            if name is not None and name not in seen:
                seen.add(name)
                if name in defs:
                    todo.append(name)
    return seen


def test_names_reached_checker():
    source = ("def simulate(g):\n    return _arc(g)\n"
              "def _arc(g):\n    return red.to_planar(g)\n"
              "def other():\n    return conjugate_to_planar\n")
    assert {"_arc", "red", "to_planar"} <= names_reached(source, "simulate")
    assert "conjugate_to_planar" not in names_reached(source, "simulate")


def test_simulate_reaches_no_planar_reduction():
    # nilrank-2 arcs are exact in group coordinates, with no A^{-1} xi shift
    reached = names_reached((SRC / "system.py").read_text(), "simulate")
    assert reached & {"conjugate_to_planar", "PlanarReduction"} == set()


def private_imports(source: str) -> list[str]:
    """``module.name`` of every ``_``-prefixed name that ``source`` imports
    from another solv3d module, inside functions too, sorted.  Dunder names
    such as ``__version__`` are public."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "solv3d":
            continue
        found += [f"{'.' * node.level}{module}.{alias.name}" for alias in node.names
                  if alias.name.startswith("_") and not alias.name.endswith("__")]
    return sorted(found)


def test_private_import_checker():
    source = ("from __future__ import annotations\nfrom numpy import _core\n"
              "from . import __version__\nfrom .kernel2d import ROT90, _series\n"
              "def f():\n    from .plan import _bang_for, staircase\n"
              "from solv3d.reach import _mark\n")
    assert private_imports(source) == [".kernel2d._series", ".plan._bang_for",
                                       "solv3d.reach._mark"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_another_modules_private_name(path):
    assert private_imports(path.read_text()) == [], path.name
