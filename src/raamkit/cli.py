"""Command line front end: run check suites over a problem file.

A problem file is JSON with a graph, optionally a matrix family and
options.  Suites bundle the library checks; reports are emitted as
deterministic JSON (sorted keys, stable ordering, round-trip floats)
so reruns are byte-identical.

Exit codes: 0 all checks passed, 1 at least one failed, 2 nothing
failed but some check was inconclusive, 3 internal error (an
unexpected exception, reported as one line on stderr), 4 bad input
or an unreadable input or unwritable output file.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from .counting import alternating_cover_sum, cover_count_enum, cover_count_formula
from .errors import NotPropertyP, ParseError, RaamkitError, ValidationError
from .fock import (
    build_fock,
    cauchy_apply,
    nica_covariance_check,
    poisson_kernel,
    poisson_reproduce_check,
    truncated_shift_family,
    unit_resolution_check,
    vn_certificate,
)
from .graphs import (
    Graph,
    _json_int,
    clique_number,
    complement_components,
    enumerate_cliques,
    graph_from_json,
    graph_to_json,
)
from .monoid import (
    DEFAULT_BALL_GUARD,
    ball,
    generator,
    identity,
    parse_element,
)
from .operators import (
    CheckReport,
    GammaFamily,
    _finite_real,
    brehmer_clique_check,
    family_from_json,
    key_estimate_check,
    opnorm,
    property_p_scan,
    validate_family,
    weak_brehmer_check,
)

SUITES = (
    "graph",
    "identities",
    "brehmer",
    "property-p",
    "cauchy",
    "poisson",
    "fixtures",
    "all",
)

GUARD_ENV = "RAAMKIT_GUARD"
RNG_SEED = 37117  # fixed: reports must be reproducible byte for byte
EXIT_INTERNAL_ERROR = 3
EXIT_INPUT_ERROR = 4


@dataclass
class ProblemSpec:
    graph: Graph
    family: GammaFamily | None = None
    truncation: int = 4
    r_grid: list[float] = field(default_factory=lambda: [0.5, 0.9, 0.99])
    tol: float = 1e-9
    guard: int = DEFAULT_BALL_GUARD
    vn_terms: list[tuple[complex, object, object]] | None = None


def parse_problem(source: str | dict) -> ProblemSpec:
    """Parse a problem into a spec: JSON text, a file path, or a dict.

    Unknown keys, malformed structure -> ParseError; structurally fine
    but out-of-range values (r outside [0,1), bad dimensions,
    non-finite numbers, true/false where a number belongs) ->
    ValidationError.
    """
    if isinstance(source, str):
        text = source
        if not text.lstrip().startswith(("{", "[")) and os.path.exists(text):
            with open(text, "r", encoding="utf-8") as fh:
                text = fh.read()
        try:
            obj = json.loads(text)
        except ValueError as exc:  # JSONDecodeError, or an int over the digit limit
            raise ParseError(f"problem file is not valid JSON: {exc}") from exc
    else:
        obj = source
    if not isinstance(obj, dict):
        raise ParseError("problem document must be a JSON object")
    extra = set(obj) - {"graph", "family", "options", "vn_terms"}
    if extra:
        raise ParseError(f"unknown problem keys {sorted(extra)}")
    if "graph" not in obj:
        raise ParseError("problem document needs a 'graph'")
    g = graph_from_json(obj["graph"])
    fam = None
    if "family" in obj and obj["family"] is not None:
        fam = family_from_json(g, obj["family"])

    opts = obj.get("options", {})
    if not isinstance(opts, dict):
        raise ParseError("'options' must be an object")
    bad = set(opts) - {"truncation", "r_grid", "tol", "guard"}
    if bad:
        raise ParseError(f"unknown option keys {sorted(bad)}")
    trunc = opts.get("truncation", 4)
    if not _json_int(trunc) or trunc < 0:
        raise ValidationError(f"truncation must be a nonnegative integer, got {trunc!r}")
    grid = opts.get("r_grid", [0.5, 0.9, 0.99])
    if not isinstance(grid, list) or not grid:
        raise ValidationError("r_grid must be a nonempty list")
    for r in grid:
        if not _finite_real(r) or not (0.0 <= float(r) < 1.0):
            raise ValidationError(f"grid radius {r!r} outside [0, 1)")
    tol = opts.get("tol", 1e-9)
    if not _finite_real(tol) or tol <= 0:
        raise ValidationError(f"tol must be positive, got {tol!r}")
    guard = opts.get("guard", DEFAULT_BALL_GUARD)
    if not _json_int(guard) or guard < 1:
        raise ValidationError(f"guard must be a positive integer, got {guard!r}")

    terms = None
    if "vn_terms" in obj and obj["vn_terms"] is not None:
        raw = obj["vn_terms"]
        if not isinstance(raw, list) or not raw:
            raise ParseError("vn_terms must be a nonempty list")
        terms = []
        for t in raw:
            if not isinstance(t, dict) or not all(
                isinstance(t.get(k), str) for k in ("p", "q")
            ):
                raise ParseError("each vn term needs 'p' and 'q' literals")
            re, im = t.get("re", 1.0), t.get("im", 0.0)
            if not (_finite_real(re) and _finite_real(im)):
                raise ValidationError(
                    f"vn term coefficients must be finite numbers, got {re!r}, {im!r}"
                )
            coeff = complex(re, im)
            terms.append((coeff, parse_element(g, t["p"]), parse_element(g, t["q"])))
    return ProblemSpec(
        graph=g,
        family=fam,
        truncation=trunc,
        r_grid=[float(r) for r in grid],
        tol=float(tol),
        guard=guard,
        vn_terms=terms,
    )


def _require_family(spec: ProblemSpec) -> GammaFamily:
    if spec.family is None:
        raise ValidationError("this suite needs a 'family' in the problem file")
    return spec.family


def _suite_graph(spec: ProblemSpec) -> list[CheckReport]:
    g = spec.graph
    comps = [sorted(c) for c in complement_components(g)]
    cliques = [sorted(c) for c in enumerate_cliques(g)]
    return [
        CheckReport(
            name="graph_summary",
            passed=True,
            parameters={
                "graph": graph_to_json(g),
                "complement_components": comps,
                "clique_number": clique_number(g),
                "cliques": cliques,
            },
        )
    ]


def _suite_identities(spec: ProblemSpec) -> list[CheckReport]:
    sums = {str(u): alternating_cover_sum(u) for u in range(1, 7)}
    expected = all(
        v == (-1 if u == "1" else 0) for u, v in sums.items()
    )
    reports = [
        CheckReport(
            name="alternating_cover_sums",
            passed=expected,
            parameters={"sums": sums},
        )
    ]
    worst = 0
    checked = 0
    for u in range(1, 7):
        for k in range(1, u + 1):
            if math.comb(u, k) > 24:
                continue
            for m in range(1, math.comb(u, k) + 1):
                diff = abs(cover_count_enum(u, m, k) - cover_count_formula(u, m, k))
                worst = max(worst, diff)
                checked += 1
    reports.append(
        CheckReport(
            name="cover_count_agreement",
            passed=worst == 0,
            residual=float(worst),
            parameters={"cases": checked},
        )
    )
    fam = spec.family or truncated_shift_family(
        spec.graph, min(spec.truncation, 2), scale=0.8, guard=spec.guard
    )
    gens = [generator(spec.graph, i) for i in spec.graph.vertices()]
    reports.append(key_estimate_check(fam, gens))
    return reports


def _suite_brehmer(spec: ProblemSpec, fam: GammaFamily | None = None) -> list[CheckReport]:
    f = fam or _require_family(spec)
    out = [validate_family(f)]
    out.extend(weak_brehmer_check(f, spec.tol))
    out.extend(brehmer_clique_check(f, spec.tol))
    return out


def _suite_property_p(spec: ProblemSpec, fam: GammaFamily | None = None) -> list[CheckReport]:
    f = fam or _require_family(spec)
    return property_p_scan(f, spec.r_grid, spec.tol)


def _suite_cauchy(spec: ProblemSpec, fam: GammaFamily | None = None) -> list[CheckReport]:
    f = fam or _require_family(spec)
    omega = clique_number(spec.graph)
    rng = np.random.default_rng(RNG_SEED)
    reports = []
    for r in spec.r_grid:
        bound = 1.0 / (1.0 - r * r) ** omega
        worst = 0.0
        for _ in range(25):
            h = rng.normal(size=f.dim) + 1j * rng.normal(size=f.dim)
            h /= np.linalg.norm(h)
            sq = float(
                np.linalg.norm(cauchy_apply(f, r, h, spec.truncation, spec.guard)) ** 2
            )
            worst = max(worst, sq)
        reports.append(
            CheckReport(
                name="cauchy_bound",
                passed=worst <= bound + spec.tol,
                residual=max(0.0, worst - bound),
                parameters={"r": r, "bound": bound, "max_square_norm": worst},
            )
        )
    return reports


def _suite_poisson(spec: ProblemSpec, fam: GammaFamily | None = None) -> list[CheckReport]:
    f = fam or _require_family(spec)
    g = spec.graph
    m = spec.truncation
    reports = []
    for r in spec.r_grid:
        try:
            kern = poisson_kernel(f, r, m, guard=spec.guard)
        except NotPropertyP as exc:
            # a refuted hypothesis fails the report; the other checks
            # at this radius need the square root of the defect
            reports.append(
                CheckReport(
                    name="kernel_isometry",
                    passed=False,
                    parameters={"r": r, "reason": str(exc)},
                )
            )
            continue
        gram = kern.matrix.conj().T @ kern.matrix
        resid = opnorm(gram - np.eye(f.dim))
        rep = unit_resolution_check(kern, spec.tol)
        allowance = rep.parameters["allowance"]
        reports.append(
            CheckReport(
                name="kernel_isometry",
                passed=resid <= spec.tol + allowance,
                residual=resid,
                parameters={"r": r, "allowance": allowance},
            )
        )
        reports.append(rep)
        small = [q for q in ball(g, min(2, m), spec.guard)]
        worst_rep = None
        for p in small:
            for q in small:
                rr = poisson_reproduce_check(kern, p, q, spec.tol)
                if worst_rep is None or rr.residual > worst_rep.residual:
                    worst_rep = rr
        worst_rep.parameters["pairs"] = len(small) ** 2
        reports.append(worst_rep)
    terms = spec.vn_terms or [(1.0 + 0j, generator(g, 1), identity(g))]
    reports.append(vn_certificate(f, terms, m, spec.guard))
    return reports


def _suite_fixtures(spec: ProblemSpec) -> list[CheckReport]:
    """End-to-end run on the canonical compressed-shift family."""
    fam = truncated_shift_family(spec.graph, spec.truncation, scale=0.9, guard=spec.guard)
    fk = build_fock(spec.graph, spec.truncation, spec.guard)
    reports = [
        CheckReport(
            name="fixture_family",
            passed=True,
            parameters={
                "kind": "truncated_shift",
                "level": spec.truncation,
                "scale": 0.9,
                "dim": fam.dim,
            },
        )
    ]
    reports.extend(nica_covariance_check(fk))
    reports.extend(_suite_brehmer(spec, fam))
    reports.extend(_suite_property_p(spec, fam))
    reports.extend(_suite_cauchy(spec, fam))
    reports.extend(_suite_poisson(spec, fam))
    return reports


def run_report(spec: ProblemSpec, suite: str) -> tuple[int, dict]:
    """Run one suite; returns (exit_code, JSON-ready report document)."""
    if suite not in SUITES:
        raise ValidationError(f"unknown suite {suite!r}; choose from {SUITES}")
    reports: list[CheckReport] = []
    if suite in ("graph", "all"):
        reports.extend(_suite_graph(spec))
    if suite in ("identities", "all"):
        reports.extend(_suite_identities(spec))
    if suite == "brehmer" or (suite == "all" and spec.family is not None):
        reports.extend(_suite_brehmer(spec))
    if suite == "property-p" or (suite == "all" and spec.family is not None):
        reports.extend(_suite_property_p(spec))
    if suite == "cauchy" or (suite == "all" and spec.family is not None):
        reports.extend(_suite_cauchy(spec))
    if suite == "poisson" or (suite == "all" and spec.family is not None):
        reports.extend(_suite_poisson(spec))
    if suite in ("fixtures", "all"):
        reports.extend(_suite_fixtures(spec))

    failed = sum(1 for r in reports if not r.passed and not r.inconclusive)
    inconclusive = sum(1 for r in reports if r.inconclusive)
    passed = sum(1 for r in reports if r.passed)
    if failed:
        code = 1
    elif inconclusive:
        code = 2
    else:
        code = 0
    doc = {
        "suite": suite,
        "reports": [r.to_jsonable() for r in reports],
        "summary": {
            "total": len(reports),
            "passed": passed,
            "failed": failed,
            "inconclusive": inconclusive,
            "exit_code": code,
        },
    }
    return code, doc


def _human_lines(doc: dict) -> str:
    lines = []
    for rep in doc["reports"]:
        if rep["passed"]:
            tag = "PASS"
        elif rep["inconclusive"]:
            tag = "INCONCLUSIVE"
        else:
            tag = "FAIL"
        bits = [f"[{tag}] {rep['name']}"]
        if rep["residual"] is not None:
            bits.append(f"residual={rep['residual']:.3e}")
        if rep["min_eigenvalue"] is not None:
            bits.append(f"min_eig={rep['min_eigenvalue']:.3e}")
        lines.append("  ".join(bits))
    s = doc["summary"]
    lines.append(
        f"{s['passed']}/{s['total']} passed, {s['failed']} failed, "
        f"{s['inconclusive']} inconclusive"
    )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="raamkit",
        description="Numerical checks for graph-indexed contraction families.",
    )
    sub = parser.add_subparsers(dest="suite", required=True)
    for name in SUITES:
        sp = sub.add_parser(name, help=f"run the {name} suite")
        sp.add_argument("--input", required=True, help="problem JSON file")
        sp.add_argument("--out", help="write the JSON report here")
        sp.add_argument(
            "--suite-tol", type=float, help="override the problem tolerance"
        )
        sp.add_argument(
            "--truncation", type=int, help="override the truncation level"
        )
    args = parser.parse_args(argv)

    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            spec = parse_problem(fh.read())
        if args.suite_tol is not None:
            if not (math.isfinite(args.suite_tol) and args.suite_tol > 0):
                raise ValidationError("--suite-tol must be a positive finite number")
            spec.tol = args.suite_tol
        if args.truncation is not None:
            if args.truncation < 0:
                raise ValidationError("--truncation must be >= 0")
            spec.truncation = args.truncation
        env_guard = os.environ.get(GUARD_ENV)
        if env_guard is not None:
            try:
                spec.guard = int(env_guard)
            except ValueError as exc:
                raise ValidationError(
                    f"{GUARD_ENV} must be an integer, got {env_guard!r}"
                ) from exc
            if spec.guard < 1:
                raise ValidationError(f"{GUARD_ENV} must be positive")
        code, doc = run_report(spec, args.suite)
        text = json.dumps(doc, sort_keys=True, indent=2)
        print(_human_lines(doc))
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        else:
            print(text)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except RaamkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except Exception as exc:  # a bug, not a verdict: never exit 1 on it
        msg = str(exc).replace("\n", " ")
        print(f"internal error: {type(exc).__name__}: {msg}", file=sys.stderr)
        return EXIT_INTERNAL_ERROR
    return code


if __name__ == "__main__":
    sys.exit(main())
