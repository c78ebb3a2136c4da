"""The benchmark's traced names still name functions of the package, and
every package name the benchmark reads still exists.

``perfbench/tracing.py`` patches the functions it lists by name, and the
other benchmark files call package functions directly; a rename in
``src/solv3d`` would otherwise surface only in a benchmark run.  The tracing
module is read from its file and executed here, and the others are only
parsed, so no bytecode is written next to them.
"""

import ast
import importlib
import os
import types

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")
TRACING = os.path.join(PERFBENCH, "tracing.py")


@pytest.fixture(scope="module")
def tracing():
    with open(TRACING, encoding="utf-8") as fh:
        source = fh.read()
    module = types.ModuleType("perfbench_tracing")
    module.__file__ = TRACING
    exec(compile(source, TRACING, "exec"), module.__dict__)
    return module


def test_every_traced_name_resolves(tracing):
    assert tracing.TRACED and tracing.GROUP_FUNCTIONS
    names = ([(mod, path) for mod, path, _ in tracing.TRACED]
             + [("group", name) for name in tracing.GROUP_FUNCTIONS])
    missing = []
    for mod, path in names:
        module = importlib.import_module(f"solv3d.{mod}")
        try:
            owner, attr = tracing._resolve(module, path)
        except AttributeError:
            missing.append(f"{mod}.{path}")
            continue
        if not callable(getattr(owner, attr, None)):
            missing.append(f"{mod}.{path}")
    assert missing == []


def _solv3d_references(path):
    """(line, module, attribute path) for every ``solv3d`` name the file reads:
    each name of a ``from solv3d... import``, and each attribute chain rooted
    at a name bound by ``import solv3d...``."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    aliases, refs = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "solv3d":
            refs += [(node.lineno, node.module, a.name) for a in node.names]
        elif isinstance(node, ast.Import):
            # ``import solv3d.x`` binds solv3d, ``import solv3d.x as y`` binds y
            for a in node.names:
                if a.name.split(".")[0] == "solv3d":
                    aliases[a.asname or "solv3d"] = a.name if a.asname else "solv3d"
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            parts = []
            while isinstance(node, ast.Attribute):
                parts.insert(0, node.attr)
                node = node.value
            if isinstance(node, ast.Name) and node.id in aliases:
                refs.append((node.lineno, aliases[node.id], ".".join(parts)))
    return refs


def _resolves(module_name, path):
    """Whether the attribute path names something in the module, following
    submodules until the first object that is not a module."""
    owner = importlib.import_module(module_name)
    for part in path.split("."):
        if not isinstance(owner, types.ModuleType):
            return True
        if not hasattr(owner, part):
            try:
                importlib.import_module(f"{owner.__name__}.{part}")
            except ImportError:
                return False
        owner = getattr(owner, part)
    return True


@pytest.mark.parametrize("name", sorted(n for n in os.listdir(PERFBENCH) if n.endswith(".py")))
def test_every_package_name_the_benchmark_reads_resolves(name):
    refs = _solv3d_references(os.path.join(PERFBENCH, name))
    missing = [f"{name}:{line}: {mod}.{path}" for line, mod, path in refs
               if not _resolves(mod, path)]
    assert missing == []


def test_reference_scan_sees_the_workload_calls():
    refs = {(mod, path.split(".")[0]) for _, mod, path in
            _solv3d_references(os.path.join(PERFBENCH, "workloads.py"))}
    assert {("solv3d.reach", "window_fill"), ("solv3d.planar", "planar_solution"),
            ("solv3d.covering", "lift_trajectory"), ("solv3d.planar", "PiecewiseControl"),
            ("solv3d.system", "simulate")} <= refs
