import numpy as np
import pytest

from raamkit import (
    GammaFamily,
    DimensionMismatch,
    brehmer_clique_check,
    delta_operator,
    evaluate_word,
    family_from_json,
    family_to_json,
    generator,
    identity,
    key_estimate_check,
    multiply,
    normal_form,
    opnorm,
    property_p_scan,
    psd_check,
    validate_family,
    weak_brehmer_check,
    zed,
)

from .helpers import (
    colex_neighbourhood_zed,
    random_commuting_family,
    random_k221_family,
    random_toy_family,
    scalar_family,
    zed_oracle,
)


def damped(f: GammaFamily, s: float) -> GammaFamily:
    gens = tuple(s * m / max(opnorm(m), 1e-30) for m in f.generators)
    return GammaFamily(graph=f.graph, dim=f.dim, generators=gens)


def test_family_shape_checks(toy_graph):
    with pytest.raises(DimensionMismatch):
        GammaFamily(graph=toy_graph, dim=2, generators=(np.eye(2),) * 3)
    with pytest.raises(DimensionMismatch):
        GammaFamily(graph=toy_graph, dim=2, generators=(np.eye(3),) * 4)


def test_validate_family(toy_graph, rng):
    f = random_toy_family(toy_graph, rng)
    rep = validate_family(f)
    assert rep.passed
    assert rep.residual < 1e-10
    # break the edge 1-2 commutation
    bad = GammaFamily(
        graph=toy_graph,
        dim=f.dim,
        generators=(
            f.generators[0],
            rng.normal(size=(f.dim, f.dim)) * 0.5,
            f.generators[2],
            f.generators[3],
        ),
    )
    assert not validate_family(bad).passed
    # norm above one
    big = GammaFamily(
        graph=toy_graph,
        dim=f.dim,
        generators=tuple(3.0 * m for m in f.generators),
    )
    rep = validate_family(big)
    assert not rep.passed
    assert rep.parameters["max_norm"] > 1.0
    # a NaN entry is a failed validation, not an SVD error
    nan = np.array(f.generators[0])
    nan[0, 0] = np.nan
    bad = GammaFamily(graph=toy_graph, dim=f.dim, generators=(nan,) + f.generators[1:])
    rep = validate_family(bad)
    assert not rep.passed
    assert rep.parameters["reason"] == "non-finite entries"


def test_evaluate_word_is_morphism(toy_graph, rng):
    f = random_toy_family(toy_graph, rng)
    for _ in range(15):
        w1 = normal_form(
            toy_graph, [int(v) for v in rng.integers(1, 5, size=3)]
        )
        w2 = normal_form(
            toy_graph, [int(v) for v in rng.integers(1, 5, size=3)]
        )
        lhs = evaluate_word(f, multiply(w1, w2))
        rhs = evaluate_word(f, w1) @ evaluate_word(f, w2)
        assert np.allclose(lhs, rhs, atol=1e-10)
    assert np.allclose(evaluate_word(f, identity(toy_graph)), np.eye(f.dim))


def test_psd_check():
    rep = psd_check(np.diag([1.0, 0.5, 0.0]))
    assert rep.passed and rep.min_eigenvalue >= -1e-15
    rep = psd_check(np.diag([1.0, -0.2]))
    assert not rep.passed
    assert rep.min_eigenvalue == pytest.approx(-0.2, abs=1e-12)


def test_zed_empty_set_is_identity(toy_graph, rng):
    f = random_toy_family(toy_graph, rng)
    assert np.allclose(zed(f, []), np.eye(f.dim))


def test_zed_matches_subset_oracle(toy_graph, k221_graph, rng):
    for g, build in ((toy_graph, random_toy_family), (k221_graph, random_k221_family)):
        f = build(g, rng)
        gens = [generator(g, i) for i in g.vertices()]
        assert np.allclose(zed(f, gens), zed_oracle(f, gens), atol=1e-10)
        assert np.allclose(zed(f, gens[:2]), zed_oracle(f, gens[:2]), atol=1e-10)


def test_zed_on_restricted_triangle(toy_graph, rng):
    # vertices {1,2,3} with only 1-2 adjacent: the one nontrivial
    # alternating sum is I - T1T1* - T2T2* - T3T3* + T12 T12*
    f = random_toy_family(toy_graph, rng)
    t1, t2, t3 = (evaluate_word(f, generator(toy_graph, i)) for i in (1, 2, 3))
    t12 = t1 @ t2
    gens = [generator(toy_graph, i) for i in (1, 2, 3)]
    by_hand = (
        np.eye(f.dim)
        - t1 @ t1.conj().T
        - t2 @ t2.conj().T
        - t3 @ t3.conj().T
        + t12 @ t12.conj().T
    )
    assert np.allclose(zed(f, gens), by_hand, atol=1e-10)


def test_weak_brehmer_toy_structure(toy_graph, rng):
    # exactly four inequalities; three come from single-vertex
    # neighborhoods and hold for any contractive family
    f = damped(random_toy_family(toy_graph, rng), 0.5)
    reports = weak_brehmer_check(f)
    assert len(reports) == 4
    sizes = sorted(len(r.parameters["neighborhood"]) for r in reports)
    assert sizes == [1, 1, 1, 3]
    assert all(r.passed for r in reports)
    singletons = [r for r in reports if len(r.parameters["neighborhood"]) == 1]
    neigh = sorted(tuple(r.parameters["neighborhood"]) for r in singletons)
    assert neigh == [(1,), (2,), (4,)]


def test_weak_brehmer_identity_pair_fails(empty2_graph):
    f = scalar_family(empty2_graph, [1.0, 1.0])
    reports = weak_brehmer_check(f)
    assert len(reports) == 1
    assert not reports[0].passed
    assert reports[0].min_eigenvalue == pytest.approx(-1.0, abs=1e-12)


def test_brehmer_clique_count_and_pass(toy_graph, rng):
    f = damped(random_toy_family(toy_graph, rng), 0.5)
    reports = brehmer_clique_check(f)
    # cliques with nonempty common neighborhood: 8 of the 10
    assert len(reports) == 8
    assert all(r.passed for r in reports)


def test_delta_scalar_formulas():
    from raamkit import complete_graph, empty_graph

    g1 = empty_graph(1)
    f = scalar_family(g1, [0.7])
    for r in (0.3, 0.9):
        val = delta_operator(f, r)[0, 0].real
        assert val == pytest.approx(1 - r * r * 0.49, abs=1e-14)
    k2 = complete_graph(2)
    f2 = scalar_family(k2, [0.7, 0.7])
    for r in (0.3, 0.9):
        val = delta_operator(f2, r)[0, 0].real
        assert val == pytest.approx((1 - r * r * 0.49) ** 2, abs=1e-14)


def test_property_p_scan_summary(toy_graph, rng):
    f = damped(random_toy_family(toy_graph, rng), 0.4)
    reports = property_p_scan(f, [0.5, 0.9, 0.99])
    assert reports[-1].name == "property_p_summary"
    summary = reports[-1]
    assert len(reports) == 4
    assert summary.passed
    assert summary.parameters["failures_form_prefix"] is True
    assert summary.parameters["rho_empirical"] is None


def test_property_p_failure_prefix(empty2_graph):
    # scalar identities: defect is 1 - 2r^2, negative past 1/sqrt(2)
    f = scalar_family(empty2_graph, [1.0, 1.0])
    reports = property_p_scan(f, [0.5, 0.8, 0.9])
    flags = [r.passed for r in reports[:-1]]
    assert flags == [True, False, False]
    summary = reports[-1]
    assert not summary.passed
    assert summary.parameters["failures_form_prefix"] is False
    assert summary.parameters["rho_empirical"] == pytest.approx(0.9)


def test_key_estimate_random_families(toy_graph, k221_graph, rng):
    # the identity is algebraic: no damping needed, any family works
    for g, build in ((toy_graph, random_toy_family), (k221_graph, random_k221_family)):
        for _ in range(5):
            f = build(g, rng, scale=0.95)
            gens = [generator(g, i) for i in g.vertices()]
            rep = key_estimate_check(f, gens)
            assert rep.passed, rep.residual
            assert rep.residual <= 1e-10


def test_key_estimate_overflow_fails_instead_of_raising(toy_graph, rng):
    # products of 1e200-sized entries overflow to inf and nan
    f = random_toy_family(toy_graph, rng)
    huge = GammaFamily(
        graph=toy_graph, dim=f.dim, generators=tuple(1e200 * m for m in f.generators)
    )
    gens = [generator(toy_graph, i) for i in toy_graph.vertices()]
    with np.errstate(over="ignore", invalid="ignore"):
        rep = key_estimate_check(huge, gens)
    assert not rep.passed
    assert rep.residual == float("inf")


def test_summability_consequence(toy_graph, rng):
    # families passing the clique condition satisfy
    # sum T_i T_i* <= c I with c the largest joinable generator count
    f = damped(random_toy_family(toy_graph, rng), 0.5)
    assert all(r.passed for r in brehmer_clique_check(f))
    total = sum(
        (t := evaluate_word(f, generator(toy_graph, i))) @ t.conj().T
        for i in toy_graph.vertices()
    )
    gap = 3 * np.eye(f.dim) - total
    assert np.linalg.eigvalsh((gap + gap.conj().T) / 2).min() >= -1e-10


def test_subset_positivity_agrees_with_clique_condition(toy_graph, rng):
    # the clique-indexed condition and positivity of Z over arbitrary
    # finite word sets travel together on these fixtures; neither is
    # derived from the other in the library
    from raamkit import ball, empty_graph

    f = damped(random_toy_family(toy_graph, rng), 0.5)
    assert all(r.passed for r in brehmer_clique_check(f))
    words = ball(toy_graph, 2)
    picks = [words[i::7] for i in range(3)]  # mixed-norm subsets
    for sub in picks:
        z = zed(f, sub[:8])
        assert np.linalg.eigvalsh((z + z.conj().T) / 2).min() >= -1e-10

    pair = scalar_family(empty_graph(2), [1.0, 1.0])
    assert not all(r.passed for r in brehmer_clique_check(pair))
    g1 = generator(pair.graph, 1)
    g2 = generator(pair.graph, 2)
    z = zed(pair, [g1, g2])
    assert np.linalg.eigvalsh((z + z.conj().T) / 2).min() < -0.5


def test_key_estimate_c_value(toy_graph, rng):
    f = random_toy_family(toy_graph, rng)
    gens = [generator(toy_graph, i) for i in toy_graph.vertices()]
    rep = key_estimate_check(f, gens)
    assert rep.parameters["c_F"] == 3


def test_family_json_roundtrip(toy_graph, rng):
    f = random_toy_family(toy_graph, rng)
    doc = family_to_json(f)
    back = family_from_json(toy_graph, doc)
    for a, b in zip(f.generators, back.generators):
        assert np.allclose(a, b, atol=0)
    from raamkit import ValidationError

    with pytest.raises(ValidationError):
        family_from_json(toy_graph, {"dim": 2})


def clique_sum_fixtures(toy_graph, k221_graph, rng):
    from raamkit import complete_multipartite

    return [
        random_toy_family(toy_graph, rng),
        random_k221_family(k221_graph, rng),
        random_commuting_family(complete_multipartite([1, 1, 1, 1]), rng),
        random_commuting_family(complete_multipartite([2, 2, 2]), rng),
    ]


def test_delta_operator_matches_subset_oracle(toy_graph, k221_graph, rng):
    # Delta_r(f) is Z over all generators of the family r*f
    for f in clique_sum_fixtures(toy_graph, k221_graph, rng):
        gens = [generator(f.graph, i) for i in f.graph.vertices()]
        for r in (0.0, 0.5, 1.0):
            scaled = GammaFamily(
                graph=f.graph, dim=f.dim, generators=tuple(r * m for m in f.generators)
            )
            assert np.allclose(
                delta_operator(f, r), zed_oracle(scaled, gens), rtol=0, atol=1e-12
            )


def test_brehmer_eigenvalues_match_subset_oracle(toy_graph, k221_graph, rng):
    for f in clique_sum_fixtures(toy_graph, k221_graph, rng):
        reports = weak_brehmer_check(f) + brehmer_clique_check(f)
        assert reports
        for rep in reports:
            gens = [generator(f.graph, v) for v in rep.parameters["neighborhood"]]
            z = zed_oracle(f, gens)
            lam = np.linalg.eigvalsh((z + z.conj().T) / 2)[0]
            assert rep.min_eigenvalue == pytest.approx(lam, abs=1e-12)


def test_brehmer_eigenvalues_equal_plain_colex_walk(toy_graph, k221_graph, rng):
    # every neighbourhood's Z keeps the float order of its own colex walk
    for f in clique_sum_fixtures(toy_graph, k221_graph, rng):
        for rep in weak_brehmer_check(f) + brehmer_clique_check(f):
            z = colex_neighbourhood_zed(f, rep.parameters["neighborhood"])
            lam = float(np.linalg.eigvalsh((z + z.conj().T) / 2.0)[0])
            assert rep.min_eigenvalue == lam


def test_brehmer_forms_each_clique_gram_once(monkeypatch, rng):
    from raamkit import complete_multipartite, enumerate_cliques

    f = random_commuting_family(complete_multipartite([2, 2, 2]), rng)
    calls = []
    plain = GammaFamily.matrix

    def counted(self, i):
        calls.append(i)
        return plain(self, i)

    monkeypatch.setattr(GammaFamily, "matrix", counted)
    brehmer_clique_check(f)
    assert len(calls) == sum(len(c) for c in enumerate_cliques(f.graph))


def test_clique_sums_need_no_word_algebra(toy_graph, monkeypatch, rng):
    import raamkit.monoid
    import raamkit.operators

    f = random_toy_family(toy_graph, rng)

    def refuse(*args, **kwargs):
        raise AssertionError("clique sums must not touch the word algebra")

    monkeypatch.setattr(raamkit.monoid, "normal_form", refuse)
    monkeypatch.setattr(raamkit.operators, "zed", refuse)
    monkeypatch.setattr(raamkit.operators, "evaluate_word", refuse)
    monkeypatch.setattr(raamkit.operators, "lcm", refuse)
    assert delta_operator(f, 0.5).shape == (f.dim, f.dim)
    assert len(weak_brehmer_check(f)) == 4
    assert len(brehmer_clique_check(f)) == 8


def test_property_p_scan_equals_delta_operator_exactly(toy_graph, k221_graph, rng):
    grid = [0.0, 0.3, 0.7, 0.99, 1.0]
    for f in clique_sum_fixtures(toy_graph, k221_graph, rng):
        reports = property_p_scan(f, grid)
        for r, rep in zip(grid, reports[:-1]):
            assert rep.parameters["r"] == r
            assert rep.min_eigenvalue == psd_check(delta_operator(f, r)).min_eigenvalue


def test_property_p_scan_forms_clique_products_once(toy_graph, monkeypatch, rng):
    f = random_toy_family(toy_graph, rng)
    calls = []
    plain = GammaFamily.matrix

    def counted(self, i):
        calls.append(i)
        return plain(self, i)

    monkeypatch.setattr(GammaFamily, "matrix", counted)
    property_p_scan(f, [0.5])
    one = len(calls)
    calls.clear()
    property_p_scan(f, [0.09 * k for k in range(10)])
    assert one > 0 and len(calls) == one


@pytest.mark.parametrize("bad", [1.5, -0.1, float("nan")])
def test_property_p_scan_checks_every_radius_before_work(toy_graph, monkeypatch, rng, bad):
    import raamkit.operators
    from raamkit import ValidationError

    f = random_toy_family(toy_graph, rng)
    with pytest.raises(ValidationError) as direct:
        delta_operator(f, bad)

    def refuse(*args, **kwargs):
        raise AssertionError("a clique product was formed before the radii were checked")

    monkeypatch.setattr(raamkit.operators, "_clique_grams", refuse)
    with pytest.raises(ValidationError) as scanned:
        property_p_scan(f, [0.2, 0.5, bad])
    assert str(scanned.value) == str(direct.value)


def test_brehmer_sums_each_distinct_neighbourhood_once(monkeypatch, rng):
    import raamkit.operators
    from raamkit import complete_multipartite

    f = random_commuting_family(complete_multipartite([2, 2, 2]), rng)
    checks = []
    plain = raamkit.operators.psd_check

    def counted(*args, **kwargs):
        checks.append(args)
        return plain(*args, **kwargs)

    monkeypatch.setattr(raamkit.operators, "psd_check", counted)
    reports = brehmer_clique_check(f)
    by_hood = {}
    for rep in reports:
        by_hood.setdefault(tuple(rep.parameters["neighborhood"]), []).append(rep)
    # the empty clique, 6 vertices and 12 cross-part edges; 1 + 3 + 3 hoods
    assert (len(reports), len(by_hood)) == (19, 7)
    assert len(checks) == len(by_hood)
    for shared in by_hood.values():
        assert len({rep.min_eigenvalue for rep in shared}) == 1
        cliques = [tuple(rep.parameters["clique"]) for rep in shared]
        assert len(set(cliques)) == len(cliques)
        assert len({id(rep.parameters) for rep in shared}) == len(shared)
