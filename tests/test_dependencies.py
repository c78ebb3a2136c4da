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
float-range scale goes through ``unit_scaled`` and ``unscaled``.  Only
``reach._cells`` floors, so the grid-cell formula has one owner, which the
marker, ``ReachGrid.cell_of`` and the far-start check all call.  Only
``reach.check_box`` divides by a box width, so the raw-to-grid scale
``res / width`` has one owner, and ``reach._sample_direction`` divides
nothing: its samples stay in grid coordinates, where a cell is one floor.
Only
``reach.planar_experiment`` calls ``reach_sets``, so the sampled control
set has one owner, which ``solv3d reach`` and the planar verdict checks
both run; ``cmd_reach`` reaches neither ``conjugate_to_planar`` nor
``reach_sets`` itself.  Only ``reach._sample_maps`` calls
``reach._arc_table``, so one memo tabulates every sample map, once per
(system, step, grid) per process.  Only ``system._group_arc`` calls
``kernel2d.expm_series``, so every other exponential is a 2x2 one through
``kernel2d.arc``, and the one larger generator is ``simulate``'s arc map.
``reach.DEFAULT_BOX`` and ``reach.DEFAULT_RESOLUTION`` are the one default
grid of the sampled experiment, which ``reach_sets``,
``verify_classification`` and the CLI's default numerics all read, and
the checks take every other length from the box.
"""

import ast
import inspect
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


def functions_where(source: str, hit) -> list[str]:
    """Qualified names of the functions of ``source`` (``<module>`` for code
    outside any) holding a node for which ``hit`` is true, sorted."""
    found = set()

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, child.name if where == "<module>" else f"{where}.{child.name}")
                continue
            if hit(child):
                found.add(where)
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return sorted(found)


def floor_users(source: str) -> list[str]:
    """The functions of ``source`` that read ``floor`` from ``np``, ``numpy``
    or ``math`` or import it from either (``functions_where``)."""
    modules = ("np", "numpy", "math")
    return functions_where(source, lambda node: (
        isinstance(node, ast.Attribute) and node.attr == "floor"
        and isinstance(node.value, ast.Name) and node.value.id in modules
        or isinstance(node, ast.ImportFrom) and node.module in modules
        and any(alias.name == "floor" for alias in node.names)))


def test_floor_checker():
    source = ("import math\nimport numpy as np\nx = np.floor(1.5)\n"
              "def f(y):\n    return math.floor(y)\n"
              "class Grid:\n    def cell(self):\n        from numpy import floor, ceil\n"
              "def outer():\n    def inner(v):\n        return [numpy.floor(w) for w in v]\n"
              "    return inner\n"
              "def g(a, b):\n    return np.floor_divide(a, b) + obj.floor(a) + math.ceil(b)\n"
              "def floor(v):\n    return v // 1\n")
    assert floor_users(source) == ["<module>", "Grid.cell", "f", "outer.inner"]


def test_only_the_cell_formula_floors():
    users = {path.name: floor_users(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert {k: v for k, v in users.items() if v} == {"reach.py": ["_cells"]}


def _is_division(node) -> bool:
    """Whether ``node`` is a ``/``, ``//`` or ``%`` (also augmented) or a call
    of numpy's ``divide``, ``true_divide``, ``floor_divide`` or ``reciprocal``."""
    ops = (ast.Div, ast.FloorDiv, ast.Mod)
    return (isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ops)
            or isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("divide", "true_divide", "floor_divide", "reciprocal"))


def divisions(source: str, function: str) -> list[int]:
    """Lines of the module-level function ``function`` of ``source`` that
    divide (``_is_division``), nested functions included."""
    (node,) = [n for n in ast.parse(source).body
               if isinstance(n, ast.FunctionDef) and n.name == function]
    return sorted({n.lineno for n in ast.walk(node) if _is_division(n)})


def test_divisions_checker():
    source = ("def f(x, y):\n    a = x / y\n    b = np.divide(x, y, out=x)\n    x //= 2\n"
              "    return a % 3 + np.multiply(x, y) + x * y - y\n"
              "def g(x):\n    return 1.0 / x\n")
    assert divisions(source, "f") == [2, 3, 4, 5]
    assert divisions("def f(x):\n    return np.floor(x) * 2 + x - 1\n", "f") == []


def test_sample_loop_divides_nothing():
    assert divisions((SRC / "reach.py").read_text(), "_sample_direction") == []


def width_dividers(source: str) -> list[str]:
    """The functions of ``source`` that divide by a difference, such as a box
    width ``x1 - x0``: a ``/`` whose right operand, or a numpy ``divide``
    whose second argument, is a subtraction (``functions_where``)."""
    def sub(node):
        return isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)

    return functions_where(source, lambda node: (
        isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div) and sub(node.right)
        or isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("divide", "true_divide") and len(node.args) > 1
        and sub(node.args[1])))


def test_width_divider_checker():
    source = ("w = 1.0 / (b - a)\n"
              "def scale(box, res):\n    return res / (box[1] - box[0])\n"
              "class Grid:\n    def cells(self, x):\n        return np.divide(x - 1, hi - lo)\n"
              "def center(i, a, b, res):\n    return a + (i + 0.5) * (b - a) / res\n"
              "def rate(x, y):\n    return (x - y) / y + np.divide(x, y - 1.0 * 0)\n")
    assert width_dividers(source) == ["<module>", "Grid.cells", "rate", "scale"]


def test_one_owner_scales_raw_to_grid():
    # the start, cell_of, the far-start check and the escape test all map
    # through check_box's scale
    assert width_dividers((SRC / "reach.py").read_text()) == ["check_box"]


def callers(source: str, name: str) -> list[str]:
    """The functions of ``source`` that call ``name``, bare or as an
    attribute (``functions_where``)."""
    return functions_where(source, lambda node: (
        isinstance(node, ast.Call)
        and (isinstance(node.func, ast.Name) and node.func.id == name
             or isinstance(node.func, ast.Attribute) and node.func.attr == name)))


def test_callers_checker():
    source = ("from .reach import reach_sets\ngrid = reach_sets(spec, v0, 1.0, 10)\n"
              "def f(sys):\n    return reach_mod.reach_sets(sys)\n"
              "class Sampler:\n    def run(self):\n        return [reach_sets(s) for s in x]\n"
              "def g():\n    sample = reach_sets\n    return reach_sets_of(sample)\n"
              "__all__ = ['reach_sets']\n")
    assert callers(source, "reach_sets") == ["<module>", "Sampler.run", "f"]


def test_one_owner_samples_the_control_set():
    # solv3d reach and the planar verdict checks run one experiment
    users = {path.name: callers(path.read_text(), "reach_sets")
             for path in sorted(SRC.glob("*.py"))}
    assert {k: v for k, v in users.items() if v} == {"reach.py": ["planar_experiment"]}
    reached = names_reached((SRC / "cli.py").read_text(), "cmd_reach")
    assert "planar_experiment" in reached
    assert reached & {"conjugate_to_planar", "reach_sets"} == set()


def test_one_owner_tabulates_the_sample_maps():
    # reach_sets reads every table through the memo, so a rerun tabulates none
    users = {path.name: callers(path.read_text(), "_arc_table")
             for path in sorted(SRC.glob("*.py"))}
    assert {k: v for k, v in users.items() if v} == {"reach.py": ["_sample_maps"]}


def test_one_owner_exponentiates_a_larger_generator():
    # the 5x5 arc generator of simulate is the only matrix past 2x2
    users = {path.name: callers(path.read_text(), "expm_series")
             for path in sorted(SRC.glob("*.py"))}
    assert {k: v for k, v in users.items() if v} == {"system.py": ["_group_arc"]}


def box_literals(source: str) -> list[str]:
    """The top-level definitions of ``source`` (a function or class by name,
    a constant by its assigned name, else ``<module>``) that write the box
    side ``(-10, 10)`` as a tuple or list literal or read a name
    ``FILL_WINDOW``, sorted."""
    def hit(node):
        if isinstance(node, ast.Name) and node.id == "FILL_WINDOW":
            return True
        try:
            return isinstance(node, (ast.Tuple, ast.List)) \
                and list(ast.literal_eval(node)) == [-10.0, 10.0]
        except ValueError:  # not a literal
            return False

    def where(top):
        if isinstance(top, ast.Assign) and isinstance(top.targets[0], ast.Name):
            return top.targets[0].id
        return getattr(top, "name", "<module>")

    return sorted({where(top) for top in ast.parse(source).body
                   if any(map(hit, ast.walk(top)))})


def test_box_literal_checker():
    source = ("BOX = ((-10.0, 10.0), (-10.0, 10.0))\nSIDE = [-10, 10]\nOTHER = (-5.0, 5.0)\n"
              "def f(box=((-10.0, 10.0), (0.0, 1.0))):\n    return box\n"
              "def g(grid):\n    return window_fill(grid, FILL_WINDOW)\n"
              "def h(x):\n    return (x, 10.0) + (-10.0,) + 10.0 * x\n"
              "class Grid:\n    box = [[-10.0, 10.0], [0.0, 1.0]]\nprint((-10, 10))\n")
    assert box_literals(source) == ["<module>", "BOX", "Grid", "SIDE", "f", "g"]


def test_one_owner_holds_the_default_grid():
    # the checks' window and far starts follow the box, so rescaling the
    # experiment is one change of box
    from solv3d import cli, reach

    grid = {"box": reach.DEFAULT_BOX, "resolution": reach.DEFAULT_RESOLUTION}
    for fn in (reach.reach_sets, reach.verify_classification):
        params = inspect.signature(fn).parameters
        assert {k: params[k].default for k in grid} == grid, fn.__name__
    assert cli.DEFAULT_NUMERICS["grid"] == {
        "box": [list(side) for side in reach.DEFAULT_BOX], "resolution": reach.DEFAULT_RESOLUTION}
    users = {path.name: box_literals(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    # plan's literal is the t range of the rank-zero certificate, no length
    assert {k: v for k, v in users.items() if v} == {"plan.py": ["CERT_T_RANGE"],
                                                     "reach.py": ["DEFAULT_BOX"]}
