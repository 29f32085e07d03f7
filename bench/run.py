"""raamkit benchmark: one workload, timed in fresh interpreters, with exact gates.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the repository root.  The seed generates the workload's input
(a problem file or a list of words); raamkit only ever sees that input.
Each repetition is a new ``python3`` process, because raamkit keeps
process-wide unbounded caches (``_levels``, ``neighbor_sets``,
``enumerate_cliques`` ...) that every command-line user pays to fill.
Repetitions run one after another (closed loop, one client) until
``--seconds`` have passed, and at least ``MIN_REPS`` of them.

``--trace 0`` prints the end-to-end metrics named in BENCHMARK.json;
``--trace 1`` alternates untraced and traced repetitions and prints the
per-layer metrics.  Human-readable lines come first, then one JSON line
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0
when every gate held, 1 when one failed, 2 when the checkout has no
``src/raamkit``.  Spans, report files and a full result record land in
``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import workloads  # noqa: E402

CHILD = os.path.join(HERE, "child.py")
OUT_DIR = ".bench_out"
MIN_REPS = 3
SETUP_PROBES_FIRST = 4
HARD_LIMIT_S = 170.0
# Matrices are at most 50 wide; one BLAS thread measured within noise of
# the default, never exceeds nproc and keeps both commits on the same footing.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
REPORT_SHARE_MIN = 0.9
WORDS_RATES = {"enum_words_per_s": "1/s", "query_pairs_per_s": "1/s"}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, for the harness's own tests")
    return ap.parse_args(argv)


def child_env() -> dict:
    env = dict(os.environ)
    for key in BLAS_ENV:
        env[key] = str(BLAS_THREADS)
    return env


def spawn(args: list[str], env: dict, deadline: float) -> dict:
    """One fresh interpreter; returns its result line plus setup_s and exit."""
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, CHILD, *args],
            env=env,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - t0),
        )
    except subprocess.TimeoutExpired:
        return {"ok": False, "error": "timed out", "exit": None}
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"ok": False, "error": "no result line: " + proc.stderr[-2000:]}
    result["exit"] = proc.returncode
    if "imported" in result:
        result["setup_s"] = result["imported"] - t0
    if proc.returncode != 0 and "error" not in result:
        result["error"] = proc.stderr[-2000:]
    return result


def environment(root: str) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], capture_output=True, text=True, check=True
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    src = os.path.join(root, "src", "raamkit")
    digest = hashlib.sha256()
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def median(values):
    return statistics.median(values) if values else float("nan")


def run_rounds(spec_path: str, trace: bool, seconds: float, spans_path: str, env):
    """Closed loop of rounds for ``seconds``, at least ``MIN_REPS`` (one when
    tracing).  A round is one repetition and one set-up probe, so probes
    sample the whole window; traced, it is an untraced and a traced
    repetition.  No round starts that the last one's length says would end
    past the window."""
    started = time.monotonic()
    deadline, hard = started + seconds, started + HARD_LIMIT_S
    min_rounds = 1 if trace else MIN_REPS
    reps: list[dict] = []
    probes: list[dict] = []
    rounds, last = 0, 0.0
    while rounds < min_rounds or time.monotonic() + last <= deadline:
        t = time.monotonic()
        if rounds and t + last > hard:
            break
        for traced in (False, True) if trace else (False,):
            rep = spawn([spec_path] + (["--trace", spans_path] if traced else []), env, hard)
            rep["traced"] = traced
            reps.append(rep)
        if not trace:
            probes.append(spawn(["--setup-only"], env, hard))
        rounds += 1
        last = time.monotonic() - t
        if any(r["exit"] is None for r in reps):
            break
    return reps, probes, time.monotonic() - started


def samples(name: str, spec: dict, reps: list[dict], setups: list[float]) -> list[float]:
    """Per-repetition values of one end-to-end metric."""
    if name == "setup_s":
        return setups
    per_rep = {
        "wall_s": lambda r: r["wall_s"],
        "peak_rss_mb": lambda r: r["maxrss_kb"] / 1024,
        "enum_words_per_s": lambda r: r["phases"]["ball_words"] / r["phases"]["enum_s"],
        "query_pairs_per_s": lambda r: len(spec["pairs"]) / r["phases"]["query_s"],
    }[name]
    return [per_rep(r) for r in reps if "wall_s" in r]


def layer_metric(name: str, summaries: list[dict]) -> float:
    """'layer.self_s', 'layer.fn.calls', 'layer.fn.self_s', 'layer.fn.total_s'
    or a wasted-work ratio 'layer.fn.<useful>_frac' (useful outcomes / calls)."""
    parts = name.split(".")
    if len(parts) == 2:
        return median([s["layers"][parts[0]][parts[1]] for s in summaries])
    fn = [s["functions"][f"{parts[0]}.{parts[1]}"] for s in summaries]
    stat = parts[2]
    if stat == "calls":
        return fn[0]["calls"]
    if stat.endswith("_frac"):
        return fn[0]["useful"] / fn[0]["calls"] if fn[0]["calls"] else 0.0
    return median([f[stat] for f in fn])


def shape_errors(spec: dict, traced: list[dict]) -> list[str]:
    """Where each workload must spend its time, so drift is caught."""
    errors = []
    first = traced[0]["trace"]
    for other in traced[1:]:
        if {k: v["calls"] for k, v in other["trace"]["functions"].items()} != {
            k: v["calls"] for k, v in first["functions"].items()
        }:
            errors.append("traced repetitions disagree on call counts")
    layers = first["layers"]
    wl = spec["workload"]
    if wl == "words-toy":
        for layer in ("fock", "linalg", "operators"):
            if layers[layer]["calls"]:
                errors.append(f"words-toy made {layers[layer]['calls']} {layer} calls")
    if wl == "positivity-k22222" and layers["fock"]["calls"]:
        errors.append(f"positivity-k22222 made {layers['fock']['calls']} fock calls")
    if wl == "report-toy-t3" and not spec["smoke"]:
        for rep in traced:
            share = rep["trace"]["functions"]["fock.poisson_reproduce_check"]["total_s"] / rep["wall_s"]
            if share < REPORT_SHARE_MIN:
                errors.append(f"poisson_reproduce_check covers {share:.1%} of the traced wall time")
    return errors


def judge(reps: list[dict], probes: list[dict]) -> list[str]:
    """Mark each repetition ``bad`` if it exited non-zero, failed a gate, or
    wrote other output bytes than the rest; return what went wrong."""
    errors = [f"setup probe: {p.get('error')}" for p in probes if p["exit"] != 0]
    for r in reps:
        r["bad"] = r["exit"] != 0 or not r.get("ok")
        if r["bad"]:
            errors.append(f"repetition: {r.get('error')}")
    digests = Counter(r["digest"] for r in reps if r.get("digest"))
    if len(digests) > 1:
        usual = digests.most_common(1)[0][0]
        errors.append(f"outputs differ between repetitions: {dict(digests)}")
        for r in reps:
            r["bad"] |= r.get("digest", usual) != usual
    return errors


def traced_metrics(declared, spec, reps, errors) -> tuple[dict, list[str]]:
    traced = [r for r in reps if r["traced"] and r.get("ok")]
    untraced = [r for r in reps if not r["traced"] and "wall_s" in r]
    shape = shape_errors(spec, traced) if traced else ["no traced repetition completed"]
    errors += shape
    for r in traced if shape else []:
        r["bad"] = True
    summaries = [r["trace"] for r in traced]
    metrics, lines = {}, []
    for m in declared["per_layer"]:
        if not summaries:
            value = math.nan
        elif m["name"] == "trace.overhead_s":
            value = median([r["wall_s"] for r in traced]) - median([r["wall_s"] for r in untraced])
        else:
            value = layer_metric(m["name"], summaries)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        lines.append(f"{m['name']:<42} {value:>14.6g} {m['unit']}")
    lines.append(f"spans per traced repetition: {[s['spans'] for s in summaries]}")
    return metrics, lines


def timed_metrics(declared, spec, reps, setups) -> tuple[dict, list[str]]:
    units = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    # The phase rates exist on words-toy only, so they are printed but not
    # declared: every declared metric is reported on every workload.
    extra = WORDS_RATES if spec["workload"] == "words-toy" else {}
    metrics, lines = {}, []
    for name, unit in {**units, **extra}.items():
        values = samples(name, spec, reps, setups)
        value = median(values)
        if name in units:
            metrics[name] = {"value": value, "unit": unit}
        lines.append(
            f"{name:<20} {value:>14.6g} {unit:<6} median of {len(values)}"
            f" (min {min(values, default=math.nan):.6g}, max {max(values, default=math.nan):.6g})"
        )
    return metrics, lines


def main(argv=None) -> int:
    args = parse_args(argv)
    # subprocess.run kills and reaps its child when an exception unwinds it.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "raamkit", "__init__.py")):
        print("error: run from a raamkit checkout (no src/raamkit here)", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    sys.path.insert(0, os.path.join(root, "src"))

    tag = f"{args.workload}-seed{args.seed}" + ("-smoke" if args.smoke else "")
    outdir = os.path.join(OUT_DIR, tag)
    os.makedirs(outdir, exist_ok=True)
    spec = workloads.make_spec(args.workload, args.seed, args.smoke, outdir)
    try:
        workloads.validate_inputs(spec)
    except workloads.GateFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    spec_path = os.path.join(outdir, "spec.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    env = child_env()

    spawn(["--setup-only"], env, time.monotonic() + 60)  # fills __pycache__
    probes = [
        spawn(["--setup-only"], env, time.monotonic() + 60)
        for _ in range(0 if args.trace else SETUP_PROBES_FIRST)
    ]
    spans_path = os.path.join(outdir, "spans.npz")
    reps, more, measured_s = run_rounds(spec_path, bool(args.trace), args.seconds, spans_path, env)
    probes += more
    setups = [p["setup_s"] for p in probes if "setup_s" in p]

    errors = judge(reps, probes)
    if args.trace:
        metrics, lines = traced_metrics(declared, spec, reps, errors)
    else:
        metrics, lines = timed_metrics(declared, spec, reps, setups)
    attempted = len(reps)
    failed = sum(r["bad"] for r in reps)
    lines.append(f"{'failed_frac':<20} {failed / max(attempted, 1):>14.6g} {'':<6} {failed} of {attempted}")
    digests = sorted({r["digest"] for r in reps if r.get("digest")})
    env_record = environment(root)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "smoke": args.smoke,
        "trace": args.trace,
        "seconds": args.seconds,
        "measured_s": measured_s,
        "environment": env_record,
        "output_sha256": digests,
        "setup_samples_s": setups,
        "repetitions": reps,
        "metrics": metrics,
        "errors": errors,
    }
    with open(os.path.join(outdir, f"result-trace{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    print(f"raamkit benchmark: workload={args.workload} seed={args.seed} trace={args.trace}"
          f" smoke={args.smoke} measured {measured_s:.1f} s over {attempted} repetitions")
    print("environment: " + " ".join(f"{k}={v}" for k, v in env_record.items()))
    print(f"output sha256: {', '.join(digests) or 'none'}")
    print(f"details: {outdir}")
    for line in lines:
        print(line)
    for err in errors:
        print(f"GATE FAILED: {err}", file=sys.stderr)
    if not metrics or not all(math.isfinite(m["value"]) for m in metrics.values()):
        return 1
    correct = not errors
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
