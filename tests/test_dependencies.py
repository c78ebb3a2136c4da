"""The package imports no third-party module that it does not declare.

Every top-level module imported anywhere in ``src/solv3d`` (inside
functions too) is the package itself, the standard library, or a runtime
dependency listed in ``pyproject.toml``.  Test-only tools such as scipy
live in the ``test`` extra and must not come back into the package.
Verification and planning propagate every leg in closed form, so they
import no ``simulate`` and its fixed-step integration; ``simulate`` itself
reaches no planar reduction and no ``field_values``.  No module imports a
``_``-prefixed name of another: a helper two modules need is public, or
both uses live beside it.  No module asserts: the CLI turns only
``ValueError`` and ``RuntimeError`` into a one-line error, so a failed
``assert`` or an ``AssertionError`` would end in a traceback.  Only
``cli.dump_json`` writes JSON, so every report is strict RFC 8259 JSON.
Only ``kernel2d`` scales by powers of two (``ldexp``, ``frexp``), so every
float-range scale goes through ``unit_scaled`` and ``unscaled``.
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


def test_simulate_reaches_no_field_values():
    # RK4 stages evaluate the field directly: no group element, no control check
    reached = names_reached((SRC / "system.py").read_text(), "simulate")
    assert "field_values" not in reached


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


def assertions(source: str) -> list[int]:
    """Lines of ``source`` with an ``assert`` statement or a use of
    ``AssertionError`` (raised, caught or bound)."""
    return sorted(
        node.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Assert)
        or isinstance(node, ast.Name) and node.id == "AssertionError"
        or isinstance(node, ast.Attribute) and node.attr == "AssertionError"
    )


def test_assertion_checker():
    source = ("def f(x):\n    assert x > 0, 'x'\n    if x > 1:\n"
              "        raise AssertionError('too big')\n    return builtins.AssertionError\n"
              "def g():\n    raise ValueError('assert nothing')\n")
    assert assertions(source) == [2, 4, 5]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_asserts(path):
    assert assertions(path.read_text()) == [], path.name


def json_writers(source: str) -> list[str]:
    """Top-level definitions of ``source`` (``<module>`` for code outside
    any) that read ``json.dump`` or ``json.dumps`` or import either from
    ``json``, sorted."""
    found = set()
    for top in ast.parse(source).body:
        where = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if (isinstance(node, ast.Attribute) and node.attr in ("dump", "dumps")
                    and isinstance(node.value, ast.Name) and node.value.id == "json"
                    or isinstance(node, ast.ImportFrom) and node.module == "json"
                    and any(alias.name in ("dump", "dumps") for alias in node.names)):
                found.add(where)
    return sorted(found)


def test_json_writer_checker():
    source = ("import json\ndef dump_json(obj, fh):\n    json.dump(obj, fh)\n"
              "class Report:\n    def text(self):\n        return json.dumps(self.d)\n"
              "def load(fh):\n    return json.load(fh)\n"
              "def f():\n    from json import dumps\n"
              "HOOK = json.dumps\n")
    assert json_writers(source) == ["<module>", "Report", "dump_json", "f"]


def test_only_dump_json_writes_json():
    writers = {path.name: json_writers(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert {k: v for k, v in writers.items() if v} == {"cli.py": ["dump_json"]}


def power_of_two_scalings(source: str) -> list[int]:
    """Lines of ``source`` that read ``ldexp`` or ``frexp`` from ``np``,
    ``numpy`` or ``math``, or import either from ``numpy`` or ``math``."""
    names, modules = ("ldexp", "frexp"), ("np", "numpy", "math")
    return sorted(
        node.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr in names
        and isinstance(node.value, ast.Name) and node.value.id in modules
        or isinstance(node, ast.ImportFrom) and node.module in modules
        and any(alias.name in names for alias in node.names)
    )


def test_power_of_two_scaling_checker():
    source = ("import math\nimport numpy as np\nx = np.ldexp(1.0, 3)\n"
              "def f(y):\n    return math.frexp(y)[1]\n"
              "from numpy import ldexp\nfrom math import frexp, log2\n"
              "z = numpy.frexp(y)\nw = math.ldexp\n"
              "def ldexp(x, e):\n    return unscaled(x, e)\nv = obj.ldexp(1.0, 2)\n")
    assert power_of_two_scalings(source) == [3, 5, 6, 7, 8, 9]


def test_only_kernel2d_scales_by_powers_of_two():
    users = {path.name: power_of_two_scalings(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    assert sorted(k for k, v in users.items() if v) == ["kernel2d.py"]
