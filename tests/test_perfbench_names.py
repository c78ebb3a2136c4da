"""The benchmark's traced names still name functions of the package.

``perfbench/tracing.py`` patches the functions it lists by name; a rename
in ``src/solv3d`` would otherwise surface only in a traced benchmark run.
The module is read from its file and executed here, so no bytecode is
written next to it.
"""

import importlib
import os
import types

import pytest

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "perfbench", "tracing.py")


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
