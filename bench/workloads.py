"""Seeded inputs, workload bodies and exact gates for the raamkit benchmark.

Three workloads, each chosen to load different layers of the package:

- ``report-toy-t3``: ``raamkit all`` on the 4-vertex toy graph at
  truncation 3.  Every module runs; nearly all the time is
  ``fock.poisson_reproduce_check`` rebuilding the defect, its square
  root and the adjoint orbit per (p, q) pair, on top of many short-word
  ``left_divides`` calls.
- ``positivity-k22222``: ``raamkit brehmer`` then ``raamkit property-p``
  on K(2,2,2,2,2).  Bound by ``operators`` (clique sums, subset walks
  in ``zed``, 32x32 eigensolves); ``monoid`` only sees words of norm
  <= 5 and ``fock`` is never called.
- ``words-toy``: library calls only.  One ``ball(toy, 10)`` and then
  long-word lcm / divisibility / quotient / normal-form queries.  All
  of it is ``monoid``.

The gates here never call the code being measured: word equality is
decided by the projection lemma, lexicographic normal forms by the
forbidden-letter automaton, level sizes by the clique-polynomial
recurrence, and report shapes are counted from the graph directly.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
import time
from collections import Counter

import numpy as np

WORKLOADS = ("report-toy-t3", "positivity-k22222", "words-toy")

TOY_N = 4
TOY_EDGES = ((1, 2), (1, 4), (2, 4), (3, 4))
TOY_GRID = [0.5, 0.9, 0.99]
TOY_TOL = 1e-9
QUERY_CLIQUE = (1, 2, 4)
QUERY_PREFIX_LEN = 112
QUERY_SUFFIX_LEN = 8
SHUFFLE_STEPS = 200
K22222_PARTS = 5
FAMILY_NORM = 0.5

# Sizes of the full run and of the smoke run used by the harness's own tests.
SIZES = {
    False: {"truncation": 3, "ball_norm": 10, "pairs": 12, "radii": 100},
    True: {"truncation": 1, "ball_norm": 4, "pairs": 2, "radii": 5},
}


class GateFailure(Exception):
    """An output of the program disagrees with an exact oracle."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise GateFailure(message)


# ---------------------------------------------------------------------------
# Independent combinatorics (never imports raamkit)


def adjacency(n: int, edges) -> dict[int, frozenset[int]]:
    nbrs: dict[int, set[int]] = {v: set() for v in range(1, n + 1)}
    for i, j in edges:
        nbrs[i].add(j)
        nbrs[j].add(i)
    return {v: frozenset(s) for v, s in nbrs.items()}


def cliques(n: int, edges) -> list[frozenset[int]]:
    """Every clique, the empty one included, by brute force over subsets."""
    adj = adjacency(n, edges)
    out = []
    for size in range(n + 1):
        for combo in itertools.combinations(range(1, n + 1), size):
            if all(b in adj[a] for a, b in itertools.combinations(combo, 2)):
                out.append(frozenset(combo))
    return out


def level_sizes(n: int, edges, max_norm: int) -> list[int]:
    """Elements of each norm, from the inverse clique polynomial.

    The growth series of a trace monoid is 1 / sum_c (-t)^|c| over
    cliques c (Cartier-Foata), so a_m = sum_{c != {}} (-1)^{|c|+1} a_{m-|c|}.
    """
    sizes = Counter(len(c) for c in cliques(n, edges) if c)
    a = [1]
    for m in range(1, max_norm + 1):
        a.append(sum((-1) ** (k + 1) * cnt * a[m - k] for k, cnt in sizes.items() if k <= m))
    return a


def is_lex_normal(word, adj: dict[int, frozenset[int]]) -> bool:
    """Whether word is the lexicographically least spelling of its trace.

    Automaton state F is the set of letters that may not come next: after
    letter a, F' = adj(a) & ({b < a} | F).
    """
    forbidden: frozenset[int] = frozenset()
    for a in word:
        if a in forbidden:
            return False
        forbidden = frozenset(b for b in adj[a] if b < a or b in forbidden)
    return True


def trace_equal(u, v, adj: dict[int, frozenset[int]]) -> bool:
    """Projection lemma: equal traces iff equal projections on every
    pair of non-commuting letters (a letter with itself included)."""
    if Counter(u) != Counter(v):
        return False
    letters = sorted(set(u))
    for a, b in itertools.combinations_with_replacement(letters, 2):
        if b in adj[a]:
            continue
        if [x for x in u if x in (a, b)] != [x for x in v if x in (a, b)]:
            return False
    return True


def neighbourhood_report_counts(n: int, edges) -> tuple[int, int]:
    """(weak_brehmer, brehmer_clique) report counts.

    One report per clique W (inside each complement component for the
    weak check) whose common neighbourhood, restricted the same way, is
    nonempty.
    """
    adj = adjacency(n, edges)
    cl = cliques(n, edges)
    everyone = frozenset(range(1, n + 1))

    def hood(w, scope):
        out = set(scope)
        for v in w:
            out &= adj[v]
        return out

    comps = []
    unseen = set(everyone)
    while unseen:
        comp, frontier = set(), [min(unseen)]
        while frontier:
            v = frontier.pop()
            if v in comp:
                continue
            comp.add(v)
            frontier.extend(everyone - adj[v] - {v} - comp)
        unseen -= comp
        comps.append(frozenset(comp))
    weak = sum(1 for comp in comps for w in cl if w <= comp and hood(w, comp))
    clique = sum(1 for w in cl if hood(w, everyone))
    return weak, clique


def expected_names(suite: str, n: int, edges, grid_len: int) -> Counter:
    """Multiset of report names one CLI suite run must produce."""
    weak, clique = neighbourhood_report_counts(n, edges)
    brehmer = Counter(gamma_family=1, weak_brehmer=weak, brehmer_clique=clique)
    prop_p = Counter(property_p=grid_len, property_p_summary=1)
    if suite == "brehmer":
        return brehmer
    if suite == "property-p":
        return prop_p
    if suite != "all":
        raise ValueError(f"no expected report shape for suite {suite!r}")
    family_suites = (
        brehmer
        + prop_p
        + Counter(cauchy_bound=grid_len)
        + Counter(kernel_isometry=grid_len, unit_resolution=grid_len, poisson_reproduce=grid_len)
        + Counter(vn_certificate=1)
    )
    nica = Counter(f"nica[{i},{j}]" for i in range(1, n + 1) for j in range(i, n + 1))
    nica["nica[general]"] = 1
    return (
        Counter(graph_summary=1, alternating_cover_sums=1, cover_count_agreement=1, key_estimate=1)
        + family_suites
        + Counter(fixture_family=1)
        + nica
        + family_suites
    )


# ---------------------------------------------------------------------------
# Seeded generators


def _random_complex(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _scaled(m: np.ndarray) -> np.ndarray:
    return FAMILY_NORM * m / np.linalg.norm(m, 2)


def toy_family(rng: np.random.Generator) -> list[np.ndarray]:
    """Dimension 4 = 2 (x) 2 on the toy graph.

    T1, T2 are simultaneously diagonalisable on factor one (so they
    commute), T3 acts freely on factor one and T4 on factor two, which
    makes every edge 12, 14, 24, 34 commute and leaves 13, 23 free.
    """
    u, _ = np.linalg.qr(_random_complex(rng, (2, 2)))
    eye = np.eye(2)
    a1 = u @ np.diag(_random_complex(rng, 2)) @ u.conj().T
    a2 = u @ np.diag(_random_complex(rng, 2)) @ u.conj().T
    a3 = _random_complex(rng, (2, 2))
    b = _random_complex(rng, (2, 2))
    return [
        _scaled(np.kron(a1, eye)),
        _scaled(np.kron(a2, eye)),
        _scaled(np.kron(a3, eye)),
        _scaled(np.kron(eye, b)),
    ]


def multipartite_edges(parts: int) -> tuple[tuple[int, int], ...]:
    """K(2,...,2): part k holds vertices 2k+1 and 2k+2."""
    part = lambda v: (v - 1) // 2
    n = 2 * parts
    return tuple(
        (i, j) for i, j in itertools.combinations(range(1, n + 1), 2) if part(i) != part(j)
    )


def multipartite_family(rng: np.random.Generator, parts: int) -> list[np.ndarray]:
    """Dimension 2^parts, one 2-dimensional tensor factor per part; the two
    vertices of a part act freely on their own factor."""
    mats = []
    for k in range(parts):
        for _ in range(2):
            factors = [np.eye(2)] * parts
            factors[k] = _random_complex(rng, (2, 2))
            m = factors[0]
            for f in factors[1:]:
                m = np.kron(m, f)
            mats.append(_scaled(m))
    return mats


def problem_document(n: int, edges, mats, options: dict) -> dict:
    return {
        "graph": {"n": n, "edges": [list(e) for e in edges]},
        "family": {
            "dim": int(mats[0].shape[0]),
            "matrices": [{"re": m.real.tolist(), "im": m.imag.tolist()} for m in mats],
        },
        "options": options,
    }


def commuting_shuffle(word, adj, steps: int, rnd: random.Random) -> list[int]:
    """Swap random adjacent commuting letters, steps times."""
    w = list(word)
    for _ in range(steps):
        spots = [i for i in range(len(w) - 1) if w[i + 1] in adj[w[i]]]
        if not spots:
            break
        i = rnd.choice(spots)
        w[i], w[i + 1] = w[i + 1], w[i]
    return w


def query_pairs(rnd: random.Random, count: int) -> list[dict]:
    """Joinable pairs p = w a, q = w b with a, b over a clique."""
    adj = adjacency(TOY_N, TOY_EDGES)
    out = []
    for _ in range(count):
        w = [rnd.randint(1, TOY_N) for _ in range(QUERY_PREFIX_LEN)]
        a = [rnd.choice(QUERY_CLIQUE) for _ in range(QUERY_SUFFIX_LEN)]
        b = [rnd.choice(QUERY_CLIQUE) for _ in range(QUERY_SUFFIX_LEN)]
        ca, cb = Counter(a), Counter(b)
        join_tail = [v for v in QUERY_CLIQUE for _ in range(max(ca[v], cb[v]))]
        out.append(
            {
                "p": w + a,
                "q": w + b,
                "join": w + join_tail,
                "shuffle": commuting_shuffle(w + a, adj, SHUFFLE_STEPS, rnd),
            }
        )
    return out


def make_spec(workload: str, seed: int, smoke: bool, outdir: str) -> dict:
    """Generate one workload's inputs from the seed; write problem files."""
    size = SIZES[smoke]
    rng = np.random.default_rng(seed % (1 << 64))
    spec = {"workload": workload, "seed": seed, "smoke": smoke}
    if workload == "report-toy-t3":
        options = {"truncation": size["truncation"], "r_grid": TOY_GRID, "tol": TOY_TOL}
        doc = problem_document(TOY_N, TOY_EDGES, toy_family(rng), options)
        spec.update(
            n=TOY_N,
            edges=TOY_EDGES,
            grid=TOY_GRID,
            runs=[{"suite": "all", "out": os.path.join(outdir, "report-all.json")}],
        )
    elif workload == "positivity-k22222":
        n, edges = 2 * K22222_PARTS, multipartite_edges(K22222_PARTS)
        grid = [0.99 * k / size["radii"] for k in range(size["radii"])]
        options = {"r_grid": grid, "tol": TOY_TOL}
        doc = problem_document(n, edges, multipartite_family(rng, K22222_PARTS), options)
        spec.update(
            n=n,
            edges=edges,
            grid=grid,
            runs=[
                {"suite": s, "out": os.path.join(outdir, f"report-{s}.json")}
                for s in ("brehmer", "property-p")
            ],
        )
    elif workload == "words-toy":
        rnd = random.Random(seed)
        spec.update(
            n=TOY_N,
            edges=TOY_EDGES,
            ball_norm=size["ball_norm"],
            pairs=query_pairs(rnd, size["pairs"]),
        )
        return spec
    else:
        raise ValueError(f"unknown workload {workload!r}")
    spec["problem"] = os.path.join(outdir, "problem.json")
    with open(spec["problem"], "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return spec


def validate_inputs(spec: dict) -> None:
    """Each generated family must validate and have property P on its grid."""
    if "problem" not in spec:
        return
    from raamkit import cli, operators

    with open(spec["problem"], encoding="utf-8") as fh:
        problem = cli.parse_problem(fh.read())
    fam = problem.family
    rep = operators.validate_family(fam)
    require(rep.passed, f"generated family fails validation: residual {rep.residual}")
    scan = operators.property_p_scan(fam, problem.r_grid, problem.tol)
    require(scan[-1].passed, f"generated family fails property P on {problem.r_grid}")


# ---------------------------------------------------------------------------
# Workload bodies.  Each returns (wall_s, phases, outputs); raamkit is
# reached through module attributes so traced runs see rebound wrappers.


def run_cli(spec: dict):
    from raamkit import cli

    codes, phases = [], {}
    t0 = time.perf_counter()
    for run in spec["runs"]:
        t = time.perf_counter()
        codes.append(cli.main([run["suite"], "--input", spec["problem"], "--out", run["out"]]))
        phases[run["suite"]] = time.perf_counter() - t
    wall = time.perf_counter() - t0
    return wall, phases, codes


def run_words(spec: dict):
    from raamkit import graphs, monoid

    t0 = time.perf_counter()
    g = graphs.Graph.from_edges(spec["n"], spec["edges"])
    t1 = time.perf_counter()
    ball = monoid.ball(g, spec["ball_norm"])
    t2 = time.perf_counter()
    answers = []
    for pair in spec["pairs"]:
        p = monoid.normal_form(g, pair["p"])
        q = monoid.normal_form(g, pair["q"])
        j = monoid.lcm(p, q)
        answers.append(
            (
                p,
                q,
                j,
                monoid.left_divides(p, j),
                monoid.left_divides(q, j),
                monoid.left_quotient(p, j),
                monoid.normal_form(g, pair["shuffle"]),
            )
        )
    t3 = time.perf_counter()
    phases = {"enum_s": t2 - t1, "query_s": t3 - t2, "ball_words": len(ball)}
    return t3 - t0, phases, (ball, answers)


def run_body(spec: dict):
    if spec["workload"] == "words-toy":
        return run_words(spec)
    return run_cli(spec)


# ---------------------------------------------------------------------------
# Gates.  run_gate raises GateFailure or returns the sha256 of the outputs.


def check_report(doc: dict, code: int, expected: Counter) -> None:
    total = sum(expected.values())
    require(code == 0, f"exit code {code}, expected 0")
    want = {"total": total, "passed": total, "failed": 0, "inconclusive": 0, "exit_code": 0}
    require(doc["summary"] == want, f"summary {doc['summary']} != {want}")
    names = Counter(r["name"] for r in doc["reports"])
    require(
        names == expected,
        f"report names: extra {dict(names - expected)}, missing {dict(expected - names)}",
    )
    bad = [r["name"] for r in doc["reports"] if not r["passed"] or r["inconclusive"]]
    require(not bad, f"checks not passing: {bad}")


def gate_cli(spec: dict, codes) -> str:
    digest = hashlib.sha256()
    for run, code in zip(spec["runs"], codes):
        with open(run["out"], "rb") as fh:
            raw = fh.read()
        digest.update(run["suite"].encode() + b"\0" + raw + b"\0")
        expected = expected_names(run["suite"], spec["n"], spec["edges"], len(spec["grid"]))
        check_report(json.loads(raw), code, expected)
    return digest.hexdigest()


def check_ball(words, sizes: list[int], adj) -> None:
    by_norm = Counter(len(w) for w in words)
    got = [by_norm[m] for m in range(len(sizes))]
    require(got == sizes, f"ball level sizes {got} != {sizes}")
    require(len(words) == sum(sizes), f"ball has {len(words)} words, expected {sum(sizes)}")
    require(len(set(words)) == len(words), "ball repeats a word")
    require(words == sorted(words, key=lambda w: (len(w), w)), "ball is not ordered by (norm, word)")
    require(all(is_lex_normal(w, adj) for w in words), "ball holds a word not in normal form")


def check_pair(pair: dict, answer, adj) -> None:
    p, q, j, p_div, q_div, quo, shuffled = answer
    require(trace_equal(p, pair["p"], adj) and is_lex_normal(p, adj), "normal_form(p) is wrong")
    require(trace_equal(q, pair["q"], adj) and is_lex_normal(q, adj), "normal_form(q) is wrong")
    require(j is not None, "lcm of a joinable pair is INFINITY")
    require(len(j) == len(pair["join"]), f"lcm norm {len(j)} != {len(pair['join'])}")
    require(trace_equal(j, pair["join"], adj) and is_lex_normal(j, adj), "lcm is wrong")
    require(p_div is True and q_div is True, "p or q does not left-divide their lcm")
    require(trace_equal(list(p) + list(quo), j, adj), "p * (p \\ j) != j")
    require(shuffled == p, "normal form of the shuffle differs from p")


def gate_words(spec: dict, outputs) -> str:
    ball, answers = outputs
    adj = adjacency(spec["n"], spec["edges"])
    words = [w.letters() for w in ball]
    check_ball(words, level_sizes(spec["n"], spec["edges"], spec["ball_norm"]), adj)
    plain = []
    for pair, (p, q, j, p_div, q_div, quo, s) in zip(spec["pairs"], answers, strict=True):
        finite = hasattr(j, "letters")
        answer = (
            p.letters(),
            q.letters(),
            j.letters() if finite else None,
            p_div,
            q_div,
            quo.letters(),
            s.letters(),
        )
        check_pair(pair, answer, adj)
        plain.append(answer)
    blob = json.dumps({"ball": words, "pairs": plain}, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def run_gate(spec: dict, outputs) -> str:
    if spec["workload"] == "words-toy":
        return gate_words(spec, outputs)
    return gate_cli(spec, outputs)
