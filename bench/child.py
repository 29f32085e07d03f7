"""One repetition of a workload, in a fresh interpreter.

    python3 bench/child.py SPEC.json [--trace SPANS.npz]
    python3 bench/child.py --setup-only

Imports raamkit from ``src/`` of the current directory first, so the
parent can time interpreter start through ``import raamkit, raamkit.cli``
on the shared monotonic clock.  Prints one JSON line last.
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.getcwd(), "src"))
import raamkit  # noqa: E402
import raamkit.cli  # noqa: E402,F401

IMPORTED = time.monotonic()


def main(argv: list[str]) -> int:
    import json
    import resource
    import traceback

    source = os.path.realpath(raamkit.__file__)
    if not source.startswith(os.path.realpath(os.path.join(os.getcwd(), "src")) + os.sep):
        print(f"raamkit imported from {source}, not from ./src", file=sys.stderr)
        return 3
    result: dict = {"imported": IMPORTED}
    if argv[:1] == ["--setup-only"]:
        print(json.dumps(result))
        return 0

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import workloads

    with open(argv[0], encoding="utf-8") as fh:
        spec = json.load(fh)
    tracer = None
    if argv[1:2] == ["--trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        wall, phases, outputs = workloads.run_body(spec)
        result.update(wall_s=wall, phases=phases)
        result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result["digest"] = workloads.run_gate(spec, outputs)
        result["ok"] = True
    except workloads.GateFailure as exc:
        result.update(ok=False, error=f"gate: {exc}")
    except Exception:  # any raise inside the program is a failed repetition
        result.update(ok=False, error=traceback.format_exc(limit=-3))
    if tracer is not None:
        tracer.write(argv[2])
        result["trace"] = tracer.summary()
    sys.stdout.flush()
    print("\n" + json.dumps(result))
    return 0 if result["ok"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
