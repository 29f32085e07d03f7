"""The per-layer metrics the benchmark declares name real functions.

bench/tracer.py wraps the public functions defined in each layer module
and bench/run.py looks every declared `layer.fn.stat` metric up by name,
so renaming or removing a traced function must fail here rather than
crash a traced benchmark run.
"""

import importlib
import json
import pathlib

import numpy as np
import pytest

DECLARED = pathlib.Path(__file__).resolve().parent.parent / "BENCHMARK.json"
LAYERS = {"graphs", "monoid", "counting", "operators", "fock", "cli", "linalg"}


def per_layer_names() -> list[str]:
    return [m["name"] for m in json.loads(DECLARED.read_text())["per_layer"]]


def test_declared_layers_exist():
    layers = {name.split(".")[0] for name in per_layer_names()}
    assert layers - {"trace"} <= LAYERS


@pytest.mark.parametrize(
    "name", [n for n in per_layer_names() if len(n.split(".")) == 3]
)
def test_traced_function_is_public(name):
    layer, fn, _stat = name.split(".")
    assert not fn.startswith("_")
    if layer == "linalg":
        obj = getattr(np.linalg, fn, None)
    else:
        module = importlib.import_module(f"raamkit.{layer}")
        obj = getattr(module, fn, None)
        assert getattr(obj, "__module__", None) == module.__name__
    assert callable(obj), name
