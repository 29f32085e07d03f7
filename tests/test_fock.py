import numpy as np
import pytest

from raamkit import (
    NotPropertyP,
    ball,
    build_fock,
    cauchy_apply,
    complete_graph,
    default_truncation,
    empty_graph,
    evaluate_word,
    generator,
    identity,
    lambda_compressed,
    multiply,
    nica_covariance_check,
    normal_form,
    opnorm,
    poisson_compress,
    poisson_kernel,
    poisson_reproduce_check,
    poisson_transform_span,
    tail_bound,
    truncated_shift_family,
    unit_resolution_check,
    validate_family,
    vn_certificate,
    weak_brehmer_check,
)

from .helpers import random_toy_family, scalar_family


def test_fock_dimensions(toy_graph, k221_graph):
    assert build_fock(toy_graph, 0).dim == 1
    assert build_fock(toy_graph, 2).dim == 17
    assert build_fock(toy_graph, 4).dim == 138
    assert build_fock(empty_graph(2), 3).dim == 15
    assert build_fock(k221_graph, 4).dim == 201


def test_lambda_compressed_action(toy_graph):
    fk = build_fock(toy_graph, 3)
    g1 = generator(toy_graph, 1)
    lam = lambda_compressed(fk, g1)
    assert set(np.unique(lam)) <= {0.0, 1.0}
    for q in fk.basis:
        col = lam[:, fk.index[q]]
        pq = multiply(g1, q)
        if pq.norm <= fk.level:
            assert col[fk.index[pq]] == 1.0 and col.sum() == 1.0
        else:
            assert not col.any()


def test_lambda_of_identity_is_identity(toy_graph):
    fk = build_fock(toy_graph, 3)
    lam = lambda_compressed(fk, identity(toy_graph))
    assert np.array_equal(lam, np.eye(fk.dim))


def test_lambda_adjoint_peels_leading_letter(toy_graph):
    # lambda(e1)^* sends e_{e1 e2} back to e_{e2} and kills basis
    # vectors whose word does not start with e1.
    fk = build_fock(toy_graph, 3)
    g1 = generator(toy_graph, 1)
    adj = lambda_compressed(fk, g1).T
    e12 = multiply(g1, generator(toy_graph, 2))
    vec = np.zeros(fk.dim)
    vec[fk.index[e12]] = 1.0
    out = adj @ vec
    expect = np.zeros(fk.dim)
    expect[fk.index[generator(toy_graph, 2)]] = 1.0
    assert np.array_equal(out, expect)
    vec3 = np.zeros(fk.dim)
    vec3[fk.index[generator(toy_graph, 3)]] = 1.0
    assert not (adj @ vec3).any()


def test_lambda_compressed_is_multiplicative_inside(toy_graph):
    fk = build_fock(toy_graph, 4)
    p = normal_form(toy_graph, [1, 2])
    q = normal_form(toy_graph, [4])
    lhs = lambda_compressed(fk, multiply(p, q))
    rhs = lambda_compressed(fk, p) @ lambda_compressed(fk, q)
    # products agree wherever the result stays inside the ball
    inside = [s for s in fk.basis if s.norm + 3 <= fk.level]
    for s in inside:
        j = fk.index[s]
        assert np.array_equal(lhs[:, j], rhs[:, j])


def test_nica_covariance(toy_graph, k221_graph):
    for g in (toy_graph, k221_graph):
        for level in (2, 3, 4):
            reports = nica_covariance_check(build_fock(g, level))
            assert all(r.passed for r in reports)
            assert all(r.residual <= 1e-12 for r in reports)


def test_truncated_shift_family_is_valid(toy_graph):
    f = truncated_shift_family(toy_graph, 3, scale=0.9)
    rep = validate_family(f)
    assert rep.passed
    assert rep.residual == 0.0  # shared sparsity pattern: exact commutation


def test_truncated_shift_nilpotency(toy_graph):
    level = 2
    f = truncated_shift_family(toy_graph, level)
    for p in ball(toy_graph, level + 2):
        t = evaluate_word(f, p)
        if p.norm > level:
            assert not t.any()
        else:
            assert t.any()


def test_shift_positivity_checks(toy_graph):
    f = truncated_shift_family(toy_graph, 3, scale=0.9)
    assert all(r.passed for r in weak_brehmer_check(f))


def test_cauchy_zero_family_is_unit(toy_graph):
    f = scalar_family(toy_graph, [0, 0, 0, 0])
    v = cauchy_apply(f, 0.7, np.array([1.0]), level=3)
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=0)


def test_cauchy_norm_bound(toy_graph, rng):
    # clique number 3: the square norm stays under (1-r^2)^-3
    f = truncated_shift_family(toy_graph, 3, scale=0.9)
    for r in (0.3, 0.9):
        bound = 1.0 / (1.0 - r * r) ** 3
        for _ in range(10):
            h = rng.normal(size=f.dim) + 1j * rng.normal(size=f.dim)
            h /= np.linalg.norm(h)
            v = cauchy_apply(f, r, h, level=4)
            assert np.linalg.norm(v) ** 2 <= bound + 1e-9


def test_level_sum_estimate(toy_graph):
    # sum over the norm-m level of T_p T_p* stays below the count of
    # nonnegative integer solutions, C(w+m-1, m) with w = 3
    import math

    from raamkit import enumerate_norm_level

    f = truncated_shift_family(toy_graph, 3, scale=0.9)
    for m in (1, 2, 3):
        total = sum(
            (t := evaluate_word(f, p)) @ t.conj().T
            for p in enumerate_norm_level(toy_graph, m)
        )
        cap = math.comb(3 + m - 1, m)
        gap = cap * np.eye(f.dim) - total
        assert np.linalg.eigvalsh((gap + gap.conj().T) / 2).min() >= -1e-10


def test_transform_multiplicative_on_words(toy_graph, rng):
    # on single words the span transform is just word evaluation, so
    # composing transforms of p and q gives the transform of pq
    f = random_toy_family(toy_graph, rng)
    e = identity(toy_graph)
    p = normal_form(toy_graph, [1, 2])
    q = normal_form(toy_graph, [4, 3])
    lhs = poisson_transform_span(f, [(1.0, p, e)]) @ poisson_transform_span(
        f, [(1.0, q, e)]
    )
    rhs = poisson_transform_span(f, [(1.0, multiply(p, q), e)])
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_cauchy_pairing_identity(toy_graph, rng):
    # <C h, e_p (x) g> = r^|p| <T_p* h, g>
    f = random_toy_family(toy_graph, rng)
    r, level = 0.6, 3
    h = rng.normal(size=f.dim) + 1j * rng.normal(size=f.dim)
    v = cauchy_apply(f, r, h, level)
    basis = ball(toy_graph, level)
    for p in basis[:10]:
        i = basis.index(p)
        block = v[i * f.dim : (i + 1) * f.dim]
        want = r**p.norm * (evaluate_word(f, p).conj().T @ h)
        assert np.allclose(block, want, atol=1e-12)


def test_tail_bound_geometric():
    # one vertex: the tail is a plain geometric series
    for r in (0.3, 0.8):
        for m in (0, 3, 10):
            want = r ** (2 * (m + 1)) / (1 - r * r)
            assert tail_bound(1, r, m) == pytest.approx(want, rel=1e-12)


def test_tail_bound_matches_direct_sum():
    import math

    omega, r, m = 3, 0.7, 4
    direct = sum(
        math.comb(omega + k - 1, k) * r ** (2 * k) for k in range(m + 1, 400)
    )
    assert tail_bound(omega, r, m) == pytest.approx(direct, rel=1e-10)


def test_tail_bound_decreases_in_level():
    vals = [tail_bound(3, 0.9, m) for m in range(12)]
    assert all(a > b > 0 for a, b in zip(vals, vals[1:]))


def test_default_truncation_reaches_target():
    from raamkit import delta_operator

    # single vertex: the ball grows linearly, the target is reachable
    g = empty_graph(1)
    f = scalar_family(g, [0.8])
    level = default_truncation(f, 0.5)
    dnorm = opnorm(delta_operator(f, 0.5))
    assert dnorm * tail_bound(1, 0.5, level) < 1e-9
    assert dnorm * tail_bound(1, 0.5, level - 1) >= 1e-9


def test_default_truncation_capped_by_ball_guard(toy_graph, monkeypatch):
    import raamkit.monoid as monoid
    from raamkit import LevelTooLarge

    # toy ball growth hits the enumeration guard before the tail
    # reaches the tolerance; the last feasible level comes back,
    # sized from the clique polynomial without enumerating above it
    f = truncated_shift_family(toy_graph, 2, scale=0.8)
    built = []
    real = monoid._levels

    def recording(g, m, guard):
        built.append(m)
        return real(g, m, guard)

    monkeypatch.setattr(monoid, "_levels", recording)
    level = default_truncation(f, 0.9)
    assert all(m <= level for m in built)
    monkeypatch.undo()
    with pytest.raises(LevelTooLarge):
        ball(toy_graph, level + 1)
    with pytest.raises(LevelTooLarge):
        ball(toy_graph, level + 2)


def test_poisson_kernel_isometry(toy_graph):
    f = truncated_shift_family(toy_graph, 2, scale=0.9)
    for r in (0.5, 0.9):
        k = poisson_kernel(f, r, 4)
        gram = k.matrix.conj().T @ k.matrix
        assert opnorm(gram - np.eye(f.dim)) <= 1e-10


def test_unit_resolution_shifts_exact(toy_graph):
    f = truncated_shift_family(toy_graph, 2, scale=0.9)
    rep = unit_resolution_check(poisson_kernel(f, 0.9, level=4))
    assert rep.passed
    assert rep.residual <= 1e-10
    assert rep.parameters["monotone"] is True


def test_unit_resolution_scalar_tail(complete3_graph):
    # commuting scalars: partial sums approach 1 at the clique-tail rate
    f = scalar_family(complete3_graph, [0.8, 0.5, 0.3])
    rep = unit_resolution_check(poisson_kernel(f, 0.9, level=25))
    assert rep.passed
    assert rep.residual <= rep.parameters["allowance"]


def test_unit_resolution_zero_family_exact(toy_graph):
    # all-zero tuple: the defect is the identity and only the U = empty
    # term survives, so the partial sums hit I exactly at level 0
    from raamkit import GammaFamily

    d = 3
    zeros = tuple(np.zeros((d, d)) for _ in toy_graph.vertices())
    f = GammaFamily(toy_graph, d, zeros)
    rep = unit_resolution_check(poisson_kernel(f, 0.9, level=3))
    assert rep.passed
    assert rep.residual == 0.0


def test_unit_resolution_needs_psd_defect(empty2_graph):
    f = scalar_family(empty2_graph, [1.0, 1.0])
    with pytest.raises(NotPropertyP):
        poisson_kernel(f, 0.9, level=5)


def test_poisson_reproduce_shifts(toy_graph):
    f = truncated_shift_family(toy_graph, 2, scale=0.9)
    kern = poisson_kernel(f, 0.9, 4)
    words = ball(toy_graph, 2)
    worst = 0.0
    for p in words:
        for q in words:
            rep = poisson_reproduce_check(kern, p, q)
            assert rep.passed
            worst = max(worst, rep.residual)
    assert worst <= 1e-10


def test_poisson_reproduce_single_letters(toy_graph):
    f = truncated_shift_family(toy_graph, 2, scale=0.9)
    p = generator(toy_graph, 1)
    q = generator(toy_graph, 2)
    rep = poisson_reproduce_check(poisson_kernel(f, 0.7, 4), p, q)
    assert rep.passed
    assert rep.residual <= 1e-10


def test_poisson_reproduce_scalar(complete3_graph):
    f = scalar_family(complete3_graph, [0.7, 0.6, 0.5])
    p = normal_form(complete3_graph, [1, 2])
    q = normal_form(complete3_graph, [3])
    rep = poisson_reproduce_check(poisson_kernel(f, 0.85, 25), p, q)
    assert rep.passed


def test_poisson_reproduce_matches_dense_compression(toy_graph, rng):
    # the blockwise collapse against the dense route through the kernel;
    # a random family leaves truncation residuals well above rounding
    f = random_toy_family(toy_graph, rng, scale=0.5)
    r, level = 0.7, 3
    kern = poisson_kernel(f, r, level)
    fk = build_fock(toy_graph, level)
    words = ball(toy_graph, 2)
    lam = {p: lambda_compressed(fk, p) for p in words}
    worst = 0.0
    for p in words:
        tp = evaluate_word(f, p)
        for q in words:
            rep = poisson_reproduce_check(kern, p, q)
            dense = poisson_compress(kern, lam[p] @ lam[q].conj().T)
            target = r ** (p.norm + q.norm) * (tp @ evaluate_word(f, q).conj().T)
            assert rep.residual == pytest.approx(opnorm(dense - target), abs=1e-12)
            worst = max(worst, rep.residual)
    assert worst > 1e-6


def test_poisson_compress_matches_kron(toy_graph, rng):
    f = truncated_shift_family(toy_graph, 2, scale=0.8)
    r, level = 0.7, 3
    fk = build_fock(toy_graph, level)
    k = poisson_kernel(f, r, level)
    a = rng.normal(size=(fk.dim, fk.dim)) + 1j * rng.normal(size=(fk.dim, fk.dim))
    got = poisson_compress(k, a)
    want = k.matrix.conj().T @ np.kron(a, np.eye(f.dim)) @ k.matrix
    assert np.allclose(got, want, atol=1e-11)


def test_poisson_compress_positive(toy_graph, rng):
    # the compression is completely positive: PSD in, PSD out
    f = truncated_shift_family(toy_graph, 2, scale=0.8)
    fk = build_fock(toy_graph, 3)
    b = rng.normal(size=(fk.dim, fk.dim)) + 1j * rng.normal(size=(fk.dim, fk.dim))
    a = b @ b.conj().T
    out = poisson_compress(poisson_kernel(f, 0.7, 3), a)
    assert np.linalg.eigvalsh((out + out.conj().T) / 2).min() >= -1e-10


def test_vn_certificate_single_term(toy_graph, rng):
    f = random_toy_family(toy_graph, rng, scale=0.9)
    terms = [(1.0 + 0j, generator(toy_graph, 1), identity(toy_graph))]
    rep = vn_certificate(f, terms, level=2)
    assert rep.passed
    assert rep.parameters["outcome"] == "CERTIFIED"
    assert rep.parameters["lambda_norm_lower"] == pytest.approx(1.0, abs=1e-12)


def test_vn_certificate_row_contraction(empty2_graph, rng):
    # columns of a random isometry scaled by 1/sqrt(2): row contraction
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    t1 = q[:, :2] @ np.eye(2, 4) / np.sqrt(2)
    t2 = q[:, 2:] @ np.hstack([np.zeros((2, 2)), np.eye(2)]) / np.sqrt(2)
    from raamkit import GammaFamily

    f = GammaFamily(graph=empty2_graph, dim=4, generators=(t1, t2))
    g1, g2 = generator(empty2_graph, 1), generator(empty2_graph, 2)
    e = identity(empty2_graph)
    terms = [(1.0 + 0j, g1, e), (1.0 + 0j, g2, e)]
    rep = vn_certificate(f, terms, level=5)
    assert rep.passed
    assert rep.parameters["outcome"] == "CERTIFIED"
    # truncated free shifts: the norm of lambda_1 + lambda_2 tends to sqrt(2)
    assert rep.parameters["lambda_norm_lower"] <= np.sqrt(2) + 1e-12
    assert rep.parameters["lambda_norm_lower"] >= 1.40


def test_vn_certificate_inconclusive_is_not_failure():
    g = empty_graph(1)
    f = scalar_family(g, [1.0])
    g1, e = generator(g, 1), identity(g)
    # t + t* has norm 2 but the truncated lambda side stays below it
    rep = vn_certificate(f, [(1.0 + 0j, g1, e), (1.0 + 0j, e, g1)], level=8)
    assert not rep.passed
    assert rep.inconclusive
    assert rep.parameters["outcome"] == "INCONCLUSIVE"
    # truncation norm for the sum: 2 cos(pi / (level + 2))
    want = 2 * np.cos(np.pi / 10)
    assert rep.parameters["lambda_norm_lower"] == pytest.approx(want, abs=1e-12)


def test_complete_graph_abelian_shift_column_count():
    # one commuting pair: ball of K2 at level m has m+1 words per level
    g = complete_graph(2)
    fk = build_fock(g, 5)
    assert fk.dim == sum(m + 1 for m in range(6))
