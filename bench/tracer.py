"""Spans around raamkit's public functions, recorded from outside the library.

Every public function of each layer module is wrapped, and every
module-global alias of it found by identity (``is``) is rebound, so
calls between modules and within a module are timed as well.  The
``linalg`` layer is the ``numpy.linalg`` entry points the package calls.

Spans (name, start, end, parent) are kept in flat arrays in memory and
written out once, when the run ends.  Self time is a span's duration
minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

LAYERS = ("graphs", "monoid", "counting", "operators", "fock", "cli")
LINALG = ("eigh", "eigvalsh", "norm", "matrix_power")

# Wasted-work ratios: spans whose result counts as a useful outcome.
OUTCOMES = {
    "monoid.left_divides": lambda result: result is True,
    "monoid.lcm": lambda result: hasattr(result, "syllables"),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.useful: dict[str, int] = {}
        self._stack = [-1]

    def wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        name_ids, parents, starts, ends = self.name_id, self.parent, self.start, self.end
        stack, clock = self._stack, time.perf_counter
        outcome = OUTCOMES.get(name)
        useful = self.useful
        if outcome is not None:
            useful[name] = 0

        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if outcome is not None and outcome(result):
                useful[name] += 1
            return result

        return functools.update_wrapper(traced, fn)

    def install(self) -> None:
        """Wrap every public layer function and rebind all aliases."""
        import raamkit  # noqa: F401  (loads every layer module)

        swap: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            mod = sys.modules[f"raamkit.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if (
                    not attr.startswith("_")
                    and callable(obj)
                    and not isinstance(obj, type)
                    and getattr(obj, "__module__", None) == mod.__name__
                ):
                    swap[id(obj)] = (obj, self.wrap(f"{layer}.{attr}", obj))
        for attr in LINALG:
            obj = getattr(np.linalg, attr)
            swap[id(obj)] = (obj, self.wrap(f"linalg.{attr}", obj))
        modules = [m for k, m in sys.modules.items() if k == "raamkit" or k.startswith("raamkit.")]
        for mod in modules + [np.linalg]:
            for attr, obj in list(vars(mod).items()):
                hit = swap.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.uint16).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def write(self, path: str) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())

    def summary(self) -> dict:
        """Calls, total and self time per function and per layer."""
        a = self.arrays()
        n_names = len(self.names)
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        covered = np.bincount(
            a["parent"][has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        self_time = dur - covered
        calls = np.bincount(a["name_id"], minlength=n_names)
        total = np.bincount(a["name_id"], weights=dur, minlength=n_names)
        own = np.bincount(a["name_id"], weights=self_time, minlength=n_names)
        funcs = {
            name: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(own[i])}
            for i, name in enumerate(self.names)
        }
        for name, hits in self.useful.items():
            funcs[name]["useful"] = hits
        layers: dict[str, dict] = {}
        for name, f in funcs.items():
            layer = layers.setdefault(name.split(".")[0], {"calls": 0, "self_s": 0.0})
            layer["calls"] += f["calls"]
            layer["self_s"] += f["self_s"]
        return {"spans": int(len(dur)), "functions": funcs, "layers": layers}
