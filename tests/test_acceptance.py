"""Acceptance checks: one numbered property per test, one line each.

These are the end-to-end guarantees the library ships with.  Every
check records a PASS/FAIL line (echoed after the run by the terminal
summary hook in conftest, so capture mode cannot hide it) and asserts
its stated tolerance and, where one applies, its time budget.
"""

import json
import math
import time
from itertools import combinations

import numpy as np
import pytest

from raamkit import (
    Graph,
    alternating_cover_sum,
    ball,
    cauchy_apply,
    clique_number,
    complete_graph,
    complete_multipartite,
    cover_count_enum,
    cover_count_formula,
    empty_graph,
    enumerate_norm_level,
    generator,
    identity,
    lcm,
    max_joinable_subset,
    key_estimate_check,
    nica_covariance_check,
    build_fock,
    normal_form,
    opnorm,
    poisson_kernel,
    poisson_reproduce_check,
    truncated_shift_family,
    unit_resolution_check,
    vn_certificate,
    weak_brehmer_check,
)
from raamkit.cli import parse_problem, run_report

from .helpers import (
    ACCEPTANCE_LINES,
    lcm_oracle,
    random_k221_family,
    random_letter_shuffle,
    random_toy_family,
    random_word,
    scalar_family,
)


def toy():
    return Graph.from_edges(4, [(1, 2), (1, 4), (2, 4), (3, 4)])


def k221():
    return complete_multipartite([2, 2, 1])


def report(idx: int, name: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    line = f"[acceptance {idx:02d}] {name}: {tag}"
    if detail:
        line += f"  ({detail})"
    ACCEPTANCE_LINES.append(line)
    print(line, flush=True)
    assert ok, line


def test_01_normal_form_constant_on_shuffle_classes():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    ok = True
    for _ in range(500):
        n = int(rng.integers(1, 7))
        pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        g = Graph.from_edges(n, [p for p in pairs if rng.random() < 0.5])
        w = random_word(rng, n, 8)
        base = normal_form(g, w)
        for _ in range(20):
            shuffled = random_letter_shuffle(rng, g, w, steps=6)
            if normal_form(g, shuffled) != base:
                ok = False
    elapsed = time.perf_counter() - t0
    report(1, "normal form is a shuffle-class invariant", ok and elapsed < 10,
           f"{elapsed:.1f}s")


def test_02_lcm_matches_enumeration_oracle():
    t0 = time.perf_counter()
    ok = True
    pairs = 0
    for g in (toy(), k221(), empty_graph(2), complete_graph(3)):
        elems = ball(g, 3)
        for p in elems:
            for q in elems:
                if lcm(p, q) != lcm_oracle(p, q):
                    ok = False
                pairs += 1
    elapsed = time.perf_counter() - t0
    report(2, "lcm agrees with the ball-enumeration oracle", ok and elapsed < 60,
           f"{pairs} pairs, {elapsed:.1f}s")


def test_03_cover_count_identities():
    t0 = time.perf_counter()
    ok = alternating_cover_sum(1) == -1
    for u in range(2, 7):
        ok = ok and alternating_cover_sum(u) == 0
    for u in range(1, 7):
        for k in range(1, u + 1):
            if math.comb(u, k) > 24:
                continue
            for m in range(1, math.comb(u, k) + 1):
                if cover_count_enum(u, m, k) != cover_count_formula(u, m, k):
                    ok = False
    elapsed = time.perf_counter() - t0
    report(3, "cover-count formula matches enumeration", ok and elapsed < 30,
           f"{elapsed:.1f}s")


def test_04_max_joinable_counts_match_closed_form():
    t0 = time.perf_counter()
    ok = True
    vertex_pairs = list(combinations(range(1, 5), 2))
    for mask in range(64):
        g = Graph.from_edges(
            4, [e for i, e in enumerate(vertex_pairs) if mask >> i & 1]
        )
        w = clique_number(g)
        for m in (1, 2, 3):
            size, _ = max_joinable_subset(enumerate_norm_level(g, m))
            if size != math.comb(w + m - 1, m):
                ok = False
    elapsed = time.perf_counter() - t0
    report(4, "largest joinable level subset is C(w+m-1, m)", ok and elapsed < 120,
           f"64 graphs, {elapsed:.1f}s")


def test_05_key_estimate_identity_random_families():
    rng = np.random.default_rng(505)
    worst = 0.0
    ok = True
    for i in range(50):
        if i % 2 == 0:
            g = toy()
            f = random_toy_family(g, rng, scale=0.97)
        else:
            g = k221()
            f = random_k221_family(g, rng, scale=0.97)
        rep = key_estimate_check(f, [generator(g, i) for i in g.vertices()])
        worst = max(worst, rep.residual)
        ok = ok and rep.passed and rep.residual <= 1e-10
    report(5, "key telescoping estimate holds to 1e-10", ok,
           f"worst residual {worst:.2e}")


def test_06_cauchy_transform_norm_bound():
    rng = np.random.default_rng(606)
    ok = True
    for g in (toy(), k221()):
        omega = clique_number(g)
        f = truncated_shift_family(g, 4, scale=0.9)
        for r in (0.3, 0.6, 0.9):
            bound = 1.0 / (1.0 - r * r) ** omega
            for _ in range(100):
                h = rng.normal(size=f.dim) + 1j * rng.normal(size=f.dim)
                h /= np.linalg.norm(h)
                v = cauchy_apply(f, r, h, level=4)
                if np.linalg.norm(v) ** 2 > bound + 1e-9:
                    ok = False
    toy_bound = 1.0 / (1.0 - 0.81) ** 3
    ok = ok and round(toy_bound, 1) == 145.8
    report(6, "Cauchy transform bounded by (1-r^2)^-w", ok,
           f"toy r=0.9 constant {toy_bound:.2f}")


def test_07_unit_resolution():
    f = truncated_shift_family(toy(), 3, scale=0.9)
    rep_shift = unit_resolution_check(poisson_kernel(f, 0.9, level=5))
    ok = rep_shift.passed and rep_shift.residual <= 1e-10
    ok = ok and rep_shift.parameters["monotone"] is True

    scalar = scalar_family(complete_graph(2), [0.8, 0.8])
    rep_scalar = unit_resolution_check(poisson_kernel(scalar, 0.9, level=30))
    ok = ok and rep_scalar.passed
    ok = ok and rep_scalar.residual <= rep_scalar.parameters["allowance"]
    ok = ok and rep_scalar.parameters["monotone"] is True
    report(7, "weighted defect sums resolve the identity", ok,
           f"shift {rep_shift.residual:.1e}, scalar {rep_scalar.residual:.1e}")


def test_08_poisson_kernel_isometry_and_reproduction():
    g = toy()
    f = truncated_shift_family(g, 2, scale=0.9)
    r, level = 0.9, 4
    k = poisson_kernel(f, r, level)
    gram_resid = opnorm(k.matrix.conj().T @ k.matrix - np.eye(f.dim))
    ok = gram_resid <= 1e-10
    worst = 0.0
    for p in ball(g, 2):
        for q in ball(g, 2):
            rep = poisson_reproduce_check(k, p, q)
            worst = max(worst, rep.residual)
            ok = ok and rep.passed
    ok = ok and worst <= 1e-10

    scalar = scalar_family(complete_graph(2), [0.8, 0.6])
    sp = normal_form(scalar.graph, [1, 2])
    sq = normal_form(scalar.graph, [2])
    srep = poisson_reproduce_check(poisson_kernel(scalar, 0.9, 25), sp, sq)
    ok = ok and srep.passed
    report(8, "Poisson kernel is isometric and reproduces T_p T_q*", ok,
           f"gram {gram_resid:.1e}, worst pair {worst:.1e}")


def test_09_nica_covariance_of_compressed_shifts():
    ok = True
    worst = 0.0
    for g in (toy(), k221()):
        for level in (2, 3, 4):
            for rep in nica_covariance_check(build_fock(g, level)):
                worst = max(worst, rep.residual)
                ok = ok and rep.passed and rep.residual <= 1e-12
    report(9, "compressed shifts satisfy the covariance relations", ok,
           f"worst interior residual {worst:.1e}")


def test_10_weak_positivity_fixtures():
    f = truncated_shift_family(toy(), 3, scale=0.9)
    reports = weak_brehmer_check(f)
    ok = all(r.passed for r in reports)
    # the toy graph generates exactly four inequalities and three are
    # single-vertex neighborhoods, automatic for contractions
    ok = ok and len(reports) == 4
    sizes = sorted(len(r.parameters["neighborhood"]) for r in reports)
    ok = ok and sizes == [1, 1, 1, 3]

    pair = scalar_family(empty_graph(2), [1.0, 1.0])
    fail_reports = weak_brehmer_check(pair)
    ok = ok and len(fail_reports) == 1 and not fail_reports[0].passed
    lam = fail_reports[0].min_eigenvalue
    ok = ok and abs(lam - (-1.0)) <= 1e-12
    report(10, "weak positivity passes shifts, rejects the identity pair", ok,
           f"witness eigenvalue {lam:.12f}")


def test_11_norm_certificate_and_inconclusive_path():
    rng = np.random.default_rng(1111)
    g = toy()
    f = random_toy_family(g, rng, scale=0.9)
    single = vn_certificate(
        f, [(1.0 + 0j, generator(g, 1), identity(g))], level=2
    )
    ok = single.passed and single.parameters["outcome"] == "CERTIFIED"

    e2 = empty_graph(2)
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    t1 = q[:, :2] @ np.eye(2, 4) / np.sqrt(2)
    t2 = q[:, 2:] @ np.hstack([np.zeros((2, 2)), np.eye(2)]) / np.sqrt(2)
    from raamkit import GammaFamily

    row = GammaFamily(graph=e2, dim=4, generators=(t1, t2))
    terms = [
        (1.0 + 0j, generator(e2, 1), identity(e2)),
        (1.0 + 0j, generator(e2, 2), identity(e2)),
    ]
    pair = vn_certificate(row, terms, level=5)
    ok = ok and pair.passed and pair.parameters["outcome"] == "CERTIFIED"

    # the truncation can fall short of the true norm; that must come
    # back inconclusive (exit code 2), never as a failure
    problem = {
        "graph": {"n": 1, "edges": []},
        "family": {"dim": 1, "matrices": [{"re": [[1.0]]}]},
        "options": {"truncation": 8, "r_grid": [0.5]},
        "vn_terms": [
            {"re": 1.0, "p": "g1", "q": "id"},
            {"re": 1.0, "p": "id", "q": "g1"},
        ],
    }
    code, doc = run_report(parse_problem(json.dumps(problem)), "poisson")
    ok = ok and code == 2 and doc["summary"]["failed"] == 0
    ok = ok and doc["summary"]["inconclusive"] == 1
    report(11, "norm certificates certify or stay inconclusive", ok,
           f"exit code {code}")
