"""No absolute threshold hides in the package's code.

A float literal below 1e-6 inside a function is almost always a threshold
that ignores the size of its data.  The package keeps every such number in a
named module-level constant (``kernel2d.ZERO_TOL``, ``planar.ROOT_BAND``,
...), where the README's "Tolerances" section can list it and each use can
scale it by the data it judges.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "solv3d"
LIMIT = 1e-6


def small_literals(source: str) -> list[int]:
    """Lines of float literals with 0 < |x| < LIMIT outside a module-level
    assignment to plain names."""
    tree = ast.parse(source)
    named = set()
    for node in tree.body:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        if targets and all(isinstance(t, ast.Name) for t in targets):
            named.update(id(n) for n in ast.walk(node))
    return sorted(
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and type(node.value) is float
        and 0.0 < abs(node.value) < LIMIT and id(node) not in named
    )


def test_checker():
    assert small_literals("TOL = 1e-12\nPAIR = (1e-9, 2.0)\n") == []
    assert small_literals("def f(x):\n    return x < -1e-12\n") == [2]
    assert small_literals("x = 1.0\nd = {'a': 1e-7}\nd['b'] = 1e-8\n") == [3]
    assert small_literals("def f(x=1e-3, y=1e-6, z=0.0):\n    return 5e-7\n") == [2]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_small_float_literal_outside_a_named_constant(path):
    assert small_literals(path.read_text(encoding="utf-8")) == [], path.name
