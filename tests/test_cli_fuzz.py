"""Fuzz of the CLI exit contract over mutated README problem documents.

Each example starts from the README problem, applies one of the
known bad-input mutations (or none), then swaps the value at a few
random paths for a random JSON value of any type, or deletes a key.
Whatever the document, every suite that reads the family must end
with a verdict (0, 1, 2) or with bad input (4 and exactly one stderr
line), never with an internal error (3) or a traceback.
"""

import copy
import json

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from raamkit.cli import main

from .test_cli import BAD_INPUTS, readme_problem

NUMBERS = st.one_of(
    st.integers(min_value=-(10**400), max_value=10**400),
    st.integers(min_value=-3, max_value=8),
    st.floats(),
    st.sampled_from([0.0, -0.5, 0.999, 1.5, 1e155, -1e200, 1.7e308, 5e-324]),
)

SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    NUMBERS,
    st.text(max_size=4),
    st.sampled_from(["g1", "id", "g1g2", "g5"]),
)

VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=6,
)


def _paths(node, prefix=()):
    """Every path into the document, the root included."""
    yield prefix
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _paths(child, prefix + (key,))
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from _paths(child, prefix + (i,))


_DELETE = object()


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _swap(doc, path, value):
    """Put value at path, or delete the key there when value is _DELETE."""
    if value is _DELETE:
        if path and isinstance(parent := _at(doc, path[:-1]), dict):
            del parent[path[-1]]
        return doc
    if not path:
        return value
    _at(doc, path[:-1])[path[-1]] = value
    return doc


@st.composite
def mutated_documents(draw):
    # half the documents start clean, so swaps also reach the checks
    seed = draw(st.one_of(st.none(), st.sampled_from(sorted(BAD_INPUTS))))
    doc = readme_problem()
    if seed is not None:
        # a copy: the mutation's own value must not be edited below
        doc = copy.deepcopy(BAD_INPUTS[seed](doc))
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        paths = list(_paths(doc))
        numeric = [p for p in paths if _is_number(_at(doc, p))]
        if numeric and draw(st.booleans()):
            # a value swap: another number where a number stands
            doc = _swap(doc, draw(st.sampled_from(numeric)), draw(NUMBERS))
        else:
            # a type swap, or a deletion, anywhere
            value = draw(st.one_of(VALUES, st.just(_DELETE)))
            doc = _swap(doc, draw(st.sampled_from(paths)), value)
    return doc


@settings(
    max_examples=500,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(
    doc=mutated_documents(),
    suite=st.sampled_from(["all", "brehmer", "property-p", "cauchy", "poisson"]),
)
def test_mutated_problem_never_exits_3(doc, suite, tmp_path, capsys):
    src = tmp_path / "problem.json"
    src.write_text(json.dumps(doc))
    code = main([suite, "--input", str(src), "--truncation", "1"])
    err = capsys.readouterr().err
    assert code in (0, 1, 2, 4), err
    assert "Traceback" not in err
    if code == 4:
        assert err.startswith("error: ") and err.count("\n") == 1, err
