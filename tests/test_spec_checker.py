"""The CLI's own spec checker against jsonschema.

``solv3d.cli._schema_ok`` accepts valid spec files without importing
jsonschema. These tests hold it to jsonschema's Draft 7 verdict on mutated
specs, and check that ``SPEC_SCHEMA`` uses only keywords it knows.
"""

import copy
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema import Draft7Validator
from jsonschema.validators import validator_for

from solv3d.cli import _KEYWORDS, _TYPES, SPEC_SCHEMA, _schema_ok

NUMERICS_SCHEMA = SPEC_SCHEMA["properties"]["numerics"]

OPEN_SPEC = {
    "theta": {"family": "spiral", "gamma": 0.0},
    "A": [[1.0, 0.0], [0.0, 1.0]],
    "xi": [1.0, 0.0],
    "alpha": 1.0,
    "eta": [0.0, 0.0],
    "omega": [-0.5, 0.5],
}

FULL_SPEC = dict(
    OPEN_SPEC,
    theta={"family": "diagonal", "gamma": 0.5},
    variant={"type": "se2n", "n": 2},
    numerics={"step": 1e-3, "seed": 4, "horizon": 12.0, "budget": 5000,
              "grid": {"box": [[-5.0, 5.0], [-4.0, 4.0]], "resolution": 32}},
)

# values a mutation puts in: the sharp cases (non-finite numbers, bools, an
# integral float), bounds and their neighbours, the enums' own strings, and
# lists of the wrong length or depth
VALUES = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, True, False, 3.0, None]),
    st.sampled_from([0, 0.0, -1, -0.5, 1, 1.5, 7, 8, 4096, 4097, 10**7, 10**7 + 1,
                     1e7, 10**40]),
    st.sampled_from(["x", "jordan", "diagonal", "spiral", "se2n", "aff_circle",
                     "simply_connected"]),
    st.sampled_from([[], {}, [1.0], [1.0, 2.0], [1.0, 2.0, 3.0], [[1.0, 0.0]],
                     [[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0, 2.0], [0.0, 1.0]],
                     [True, 1.0], [math.nan, math.inf], {"type": "se2n"},
                     {"family": "jordan"}]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-10, 10**8),
)
KEYS = st.sampled_from(["gamma", "n", "type", "family", "grid", "box", "resolution",
                        "step", "seed", "horizon", "budget", "numerics", "variant",
                        "alpha", "extra"])


def _paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _paths(value, prefix + (i,))


def _mutated(data, base):
    """``base`` with one or two subtrees replaced, deleted or extended."""
    def value():
        return copy.deepcopy(data.draw(VALUES))  # the pool's lists are shared

    doc = copy.deepcopy(base)
    for _ in range(data.draw(st.integers(1, 2))):
        path = data.draw(st.sampled_from(list(_paths(doc))))
        op = data.draw(st.sampled_from(["replace", "delete", "add"]))
        if not path:
            parent, node = None, doc
        else:
            parent = doc
            for key in path[:-1]:
                parent = parent[key]
            node = parent[path[-1]]
        if op == "add" and isinstance(node, dict):
            node[data.draw(KEYS)] = value()
        elif op == "add" and isinstance(node, list):
            node.append(value())
        elif op == "delete" and parent is not None:
            del parent[path[-1]]
        elif parent is None:
            doc = value()
        else:
            parent[path[-1]] = value()
    return doc


def _agrees(schema, instance) -> bool:
    ours = _schema_ok(schema, instance)
    return (ours == Draft7Validator(schema).is_valid(instance)
            == validator_for(schema)(schema).is_valid(instance))


@settings(derandomize=True, database=None, max_examples=1000, deadline=None)
@given(data=st.data(), base=st.sampled_from([OPEN_SPEC, FULL_SPEC]))
def test_checker_agrees_with_jsonschema_on_mutated_specs(data, base):
    spec = _mutated(data, base)
    assert _agrees(SPEC_SCHEMA, spec), spec


@settings(derandomize=True, database=None, max_examples=1000, deadline=None)
@given(data=st.data())
def test_checker_agrees_with_jsonschema_on_mutated_numerics(data):
    numerics = _mutated(data, FULL_SPEC["numerics"])
    assert _agrees(NUMERICS_SCHEMA, numerics), numerics


@pytest.mark.parametrize("numerics, valid", [
    ({"step": math.nan}, True),        # a bound never fails on NaN
    ({"horizon": math.inf}, True),     # finiteness is checked after the schema
    ({"budget": 3.0}, True),           # an integral float is an integer
    ({"budget": True}, False),         # a bool is no number
    ({"seed": math.inf}, False),       # inf is no integer
    ({"budget": 10**40}, False),
    ({"step": 0}, False),
    ({"grid": {"resolution": 4096.0}}, True),
    ({"grid": {"box": [[0.0, 1.0], [0.0]]}}, False),
])
def test_checker_on_chosen_numerics(numerics, valid):
    assert _schema_ok(NUMERICS_SCHEMA, numerics) is valid
    assert Draft7Validator(NUMERICS_SCHEMA).is_valid(numerics) is valid


def _subschemas(schema):
    yield schema
    for sub in schema.get("properties", {}).values():
        yield from _subschemas(sub)
    if "items" in schema:
        yield from _subschemas(schema["items"])


def test_spec_schema_uses_only_keywords_the_checker_knows():
    subs = list(_subschemas(SPEC_SCHEMA))
    assert len(subs) > 20
    for sub in subs:
        assert set(sub) <= set(_KEYWORDS), sub
        assert sub.get("additionalProperties", False) is False, sub
        assert sub.get("type", "object") in _TYPES, sub
        assert all(isinstance(v, str) for v in sub.get("enum", [])), sub


@pytest.mark.parametrize("schema", [
    {"pattern": "^a"},
    {"additionalProperties": True},
    {"additionalProperties": {"type": "number"}},
    {"type": "string"},
])
def test_checker_raises_on_keywords_it_does_not_know(schema):
    with pytest.raises((ValueError, KeyError)):
        _schema_ok(schema, "a")
