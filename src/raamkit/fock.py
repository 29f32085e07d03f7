"""Truncated regular representation and the transform calculus.

The span of basis vectors e_q over monoid elements with |q| <= M
carries compressed left shifts lambda_p: e_q -> e_{pq}, chopped when
the product leaves the ball.  Compression keeps everything exact on
the interior and makes three things computable at a desk:

  * covariance relations of the shifts (checked on the interior);
  * the weighted orbit map C_{r,T} h = sum_p e_p (x) r^|p| T_p* h and
    its square-summability bound via clique counts;
  * the kernel K = (I (x) Delta^{1/2}) C_{r,T}, an isometry whenever
    the defect Delta_{r,T} is positive, whose compression
    a -> K* (a (x) I) K reproduces r^{|p|+|q|} T_p T_q* from
    lambda_p lambda_q*.

Truncation errors are controlled by explicit tails of the negative
binomial series in the clique number, so every check carries a
rigorous allowance rather than a hopeful epsilon.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    GraphMismatch,
    GuardExceeded,
    LevelTooLarge,
    NotPropertyP,
    ValidationError,
)
from .graphs import Graph, clique_number
from .monoid import (
    DEFAULT_BALL_GUARD,
    MonoidElement,
    ball,
    generator,
    identity,
    is_finite,
    lcm,
    left_divides,
    left_quotient,
    level_sizes,
    multiply,
)
from .operators import (
    CheckReport,
    GammaFamily,
    default_psd_tol,
    delta_operator,
    evaluate_word,
    opnorm,
)

TAIL_RELATIVE_CUTOFF = 1e-16


@dataclass(eq=False)
class TruncatedFock:
    """Ordered basis {e_q : |q| <= level} with an index lookup."""

    graph: Graph
    level: int
    basis: tuple[MonoidElement, ...]
    index: dict[MonoidElement, int]

    @property
    def dim(self) -> int:
        return len(self.basis)


def build_fock(g: Graph, level: int, guard: int = DEFAULT_BALL_GUARD) -> TruncatedFock:
    """Basis ordered by (norm, canonical word); guard caps the ball."""
    if level < 0:
        raise ValidationError(f"truncation level must be >= 0, got {level}")
    try:
        elems = tuple(ball(g, level, guard))
    except LevelTooLarge as exc:
        raise GuardExceeded(str(exc)) from exc
    return TruncatedFock(
        graph=g,
        level=level,
        basis=elems,
        index={q: i for i, q in enumerate(elems)},
    )


def lambda_compressed(fk: TruncatedFock, p: MonoidElement) -> np.ndarray:
    """Matrix of the compressed shift e_q -> e_{pq} (0/1 entries)."""
    if p.graph != fk.graph:
        raise GraphMismatch("element and basis graphs differ")
    n = fk.dim
    out = np.zeros((n, n), dtype=np.complex128)
    for col, q in enumerate(fk.basis):
        s = multiply(p, q)
        if s.norm <= fk.level:
            out[fk.index[s], col] = 1.0
    return out


def _interior_projection(fk: TruncatedFock, margin: int) -> np.ndarray:
    keep = np.array(
        [1.0 if q.norm <= fk.level - margin else 0.0 for q in fk.basis]
    )
    return np.diag(keep).astype(np.complex128)


def nica_covariance_check(
    fk: TruncatedFock,
    tol: float = 1e-12,
    seed: int = 1123,
    general_pairs: int = 12,
) -> list[CheckReport]:
    """Covariance relations of the shifts, away from the boundary.

    On vectors e_q with |q| <= level-1 nothing is chopped, so there
    lambda_i* lambda_j must equal lambda_j lambda_i* on edges, vanish
    on non-edges, and be the interior projection when i == j.  A
    final report spot-checks the general rule

        lambda_p* lambda_q = lambda_{p^-1 r} lambda_{q^-1 r}*   (r = p v q)

    and its vanishing when the join is infinite, on random low-norm
    pairs with the projection margin max(|p|, |q|).
    """
    g = fk.graph
    lam = {i: lambda_compressed(fk, generator(g, i)) for i in g.vertices()}
    p1 = _interior_projection(fk, 1)
    reports: list[CheckReport] = []
    for i in g.vertices():
        for j in range(i, g.n + 1):
            li, lj = lam[i], lam[j]
            if i == j:
                resid = opnorm(li.conj().T @ li @ p1 - p1)
                kind = "isometry"
            elif g.has_edge(i, j):
                resid = opnorm((li.conj().T @ lj - lj @ li.conj().T) @ p1)
                kind = "edge"
            else:
                resid = opnorm(li.conj().T @ lj @ p1)
                kind = "non-edge"
            reports.append(
                CheckReport(
                    name=f"nica[{i},{j}]",
                    passed=resid <= tol,
                    residual=resid,
                    parameters={"kind": kind, "tol": tol},
                )
            )

    rng = random.Random(seed)
    max_norm = min(2, fk.level)
    pool = [q for q in fk.basis if 1 <= q.norm <= max_norm]
    worst = 0.0
    checked = 0
    if pool:
        for _ in range(general_pairs):
            p = rng.choice(pool)
            q = rng.choice(pool)
            margin = max(p.norm, q.norm)
            proj = _interior_projection(fk, margin)
            lp = lambda_compressed(fk, p)
            lq = lambda_compressed(fk, q)
            lhs = lp.conj().T @ lq @ proj
            r = lcm(p, q)
            if is_finite(r):
                a = lambda_compressed(fk, left_quotient(p, r))
                b = lambda_compressed(fk, left_quotient(q, r))
                rhs = a @ b.conj().T @ proj
            else:
                rhs = np.zeros_like(lhs)
            worst = max(worst, opnorm(lhs - rhs))
            checked += 1
    reports.append(
        CheckReport(
            name="nica[general]",
            passed=worst <= tol,
            residual=worst,
            parameters={"pairs_checked": checked, "tol": tol},
        )
    )
    return reports


def truncated_shift_family(
    g: Graph,
    level: int,
    scale: float = 1.0,
    guard: int = DEFAULT_BALL_GUARD,
) -> GammaFamily:
    """Compressed shifts as a concrete family: T_i = scale * lambda_i.

    Exactly edge-commuting (entries are shared 0/scale patterns) and
    nilpotent beyond the truncation: T_p = 0 once |p| > level.  Words
    evaluate to scale^|p| times the compressed shift of p.
    """
    if not (0.0 < scale <= 1.0):
        raise ValidationError(f"scale must lie in (0, 1], got {scale}")
    fk = build_fock(g, level, guard)
    gens = tuple(
        scale * lambda_compressed(fk, generator(g, i)) for i in g.vertices()
    )
    return GammaFamily(graph=g, dim=fk.dim, generators=gens)


def _adjoint_orbit(
    f: GammaFamily, basis: Sequence[MonoidElement], seed: np.ndarray
) -> list[np.ndarray]:
    """[T_q* seed for q in basis] by peeling the last letter of each word.

    basis must be closed under prefixes and ordered by norm (as the
    fock basis is); then the parent of q (q minus its last letter) is
    already computed and T_q* s = T_i* (T_parent* s).  The seed is a
    vector for the Cauchy expansion and the identity for the kernel.
    """
    out: list[np.ndarray] = [None] * len(basis)
    pos = {q: i for i, q in enumerate(basis)}
    adjoints = {v: f.matrix(v).conj().T for v in f.graph.vertices()}
    for i, q in enumerate(basis):
        if q.is_identity:
            out[i] = seed
            continue
        v, a = q.syllables[-1]
        parent_syll = q.syllables[:-1] + (((v, a - 1),) if a > 1 else ())
        parent = MonoidElement(q.graph, parent_syll)
        out[i] = adjoints[v] @ out[pos[parent]]
    return out


def cauchy_apply(
    f: GammaFamily,
    r: float,
    h: np.ndarray,
    level: int,
    guard: int = DEFAULT_BALL_GUARD,
) -> np.ndarray:
    """The weighted orbit vector sum_p e_p (x) r^|p| T_p* h.

    Returned as dim(fock) * dim(f) blocks in basis order.  Its squared
    norm is sum_m r^{2m} sum_{|p|=m} ||T_p* h||^2, which stays below
    ||h||^2 / (1 - r^2)^omega for families passing the clique
    condition (omega the clique number).
    """
    if not (0.0 <= r < 1.0):
        raise ValidationError(f"r must lie in [0, 1), got {r}")
    vec = np.asarray(h, dtype=np.complex128).reshape(-1)
    if vec.shape != (f.dim,):
        raise ValidationError(f"h must have dimension {f.dim}")
    basis = ball(f.graph, level, guard)
    blocks = _adjoint_orbit(f, basis, vec)
    out = np.empty(len(basis) * f.dim, dtype=np.complex128)
    for i, (q, b) in enumerate(zip(basis, blocks)):
        out[i * f.dim : (i + 1) * f.dim] = (r ** q.norm) * b
    return out


def tail_bound(omega: int, r: float, level: int) -> float:
    """sum_{m > level} C(omega+m-1, m) r^{2m}, summed to convergence.

    The coefficient is the count of degree-m monomials in omega
    commuting variables, an upper bound for level sizes of joinable
    sets; for omega = 1 the sum is the geometric tail
    r^{2(level+1)} / (1 - r^2).
    """
    if omega < 0:
        raise ValidationError(f"omega must be >= 0, got {omega}")
    if not (0.0 <= r < 1.0):
        raise ValidationError(f"r must lie in [0, 1), got {r}")
    if r == 0.0 or omega == 0:
        return 0.0
    m = level + 1
    term = math.comb(omega + m - 1, m) * r ** (2 * m)
    acc = 0.0
    while term > acc * TAIL_RELATIVE_CUTOFF:
        acc += term
        term *= r * r * (omega + m) / (m + 1)
        m += 1
    return acc


@dataclass(eq=False)
class PoissonKernelMatrix:
    """The Poisson state of a family at one radius and truncation level.

    Built once by poisson_kernel and read by every transform check:
    the symmetrised defect Delta, its square root, the truncated basis
    with its index, the adjoint orbit [T_q* for q in basis] and the
    stacked kernel blocks r^|q| Delta^{1/2} T_q*.
    """

    family: GammaFamily
    r: float
    level: int
    delta: np.ndarray  # (d, d), Hermitian
    root: np.ndarray  # (d, d)
    basis: tuple[MonoidElement, ...]
    index: dict[MonoidElement, int]
    adjoint: list[np.ndarray]  # fock_dim matrices (d, d)
    matrix: np.ndarray  # (fock_dim * d, d)


def default_truncation(
    f: GammaFamily,
    r: float,
    tol: float = 1e-9,
    guard: int = DEFAULT_BALL_GUARD,
    hard_cap: int = 64,
) -> int:
    """Smallest level whose tail allowance drops below tol.

    Capped by the ball guard (and a hard level cap); returns the last
    feasible level when the target is unreachable.
    """
    omega = clique_number(f.graph)
    dnorm = opnorm(delta_operator(f, r))
    sizes = level_sizes(f.graph, hard_cap)
    level = 1
    while dnorm * tail_bound(omega, r, level) >= tol and level < hard_cap:
        if sum(sizes[: level + 2]) > guard:
            break
        level += 1
    return level


def poisson_kernel(
    f: GammaFamily,
    r: float,
    level: int | None = None,
    tol: float | None = None,
    guard: int = DEFAULT_BALL_GUARD,
) -> PoissonKernelMatrix:
    """K = (I (x) Delta^{1/2}) C_{r,T} with the state it is built from.

    Requires the defect to be positive at r (property P at this
    radius) and raises NotPropertyP on an eigenvalue below -tol; the
    square root is taken through the Hermitian eigendecomposition with
    eigenvalues in [-tol, 0), rounding debris, clamped to zero.
    """
    if not (0.0 <= r < 1.0):
        raise ValidationError(f"r must lie in [0, 1), got {r}")
    if level is None:
        level = default_truncation(f, r, guard=guard)
    delta = delta_operator(f, r)
    herm = (delta + delta.conj().T) / 2.0
    if tol is None:
        tol = default_psd_tol(herm)
    lam, vecs = np.linalg.eigh(herm)
    if lam[0] < -tol:
        raise NotPropertyP(
            f"defect at r={r} has eigenvalue {lam[0]:.3e} < -{tol:.3e}"
        )
    lam = np.clip(lam, 0.0, None)
    root = (vecs * np.sqrt(lam)) @ vecs.conj().T
    fk = build_fock(f.graph, level, guard)
    adj = _adjoint_orbit(f, fk.basis, np.eye(f.dim, dtype=np.complex128))
    k = np.vstack(
        [(r ** q.norm) * (root @ adj[i]) for i, q in enumerate(fk.basis)]
    )
    return PoissonKernelMatrix(
        family=f,
        r=r,
        level=level,
        delta=herm,
        root=root,
        basis=fk.basis,
        index=fk.index,
        adjoint=adj,
        matrix=k,
    )


def unit_resolution_check(
    kern: PoissonKernelMatrix, tol: float = 1e-10
) -> CheckReport:
    """Partial sums of sum_p r^{2|p|} T_p Delta T_p* against I.

    The full series resolves the identity; the partial sum through
    the truncation level must sit within ||Delta|| times the clique
    tail of the identity, and the level increments must be positive
    (each added term is a congruence of Delta).
    """
    f, r, level = kern.family, kern.r, kern.level
    delta, adj = kern.delta, kern.adjoint
    d = f.dim
    acc = np.zeros((d, d), dtype=np.complex128)
    monotone = True
    psd_tol = default_psd_tol(delta)
    by_level: dict[int, np.ndarray] = {}
    for i, q in enumerate(kern.basis):
        inc = (r ** (2 * q.norm)) * (adj[i].conj().T @ delta @ adj[i])
        by_level.setdefault(q.norm, np.zeros((d, d), dtype=np.complex128))
        by_level[q.norm] += inc
    for m in sorted(by_level):
        lam = float(np.linalg.eigvalsh(
            (by_level[m] + by_level[m].conj().T) / 2.0
        )[0])
        if lam < -psd_tol:
            monotone = False
        acc += by_level[m]
    residual = opnorm(acc - np.eye(d))
    allowance = opnorm(delta) * tail_bound(clique_number(f.graph), r, level)
    return CheckReport(
        name="unit_resolution",
        passed=(residual <= tol + allowance) and monotone,
        residual=residual,
        parameters={
            "r": r,
            "level": level,
            "allowance": allowance,
            "monotone": monotone,
            "tol": tol,
        },
    )


def poisson_reproduce_check(
    kern: PoissonKernelMatrix,
    p: MonoidElement,
    q: MonoidElement,
    tol: float = 1e-10,
) -> CheckReport:
    """K* (lambda_p lambda_q* (x) I) K against r^{|p|+|q|} T_p T_q*.

    The compression is evaluated blockwise: lambda_p lambda_q* sends
    e_s to e_{p q^-1 s} when q divides s, so the double sum collapses
    to one term per basis word.  The allowance is the clique tail at
    level - max(|p|, |q|), which bounds the missing part of the unit
    resolution rigorously for families passing the clique condition.
    """
    f, r, level = kern.family, kern.r, kern.level
    if p.graph != f.graph or q.graph != f.graph:
        raise GraphMismatch("elements and family graphs differ")
    if max(p.norm, q.norm) > level:
        raise ValidationError("need |p|, |q| <= truncation level")
    delta, adj = kern.delta, kern.adjoint
    d = f.dim
    acc = np.zeros((d, d), dtype=np.complex128)
    for i, s in enumerate(kern.basis):
        if not left_divides(q, s):
            continue
        t = multiply(p, left_quotient(q, s))
        if t.norm > level:
            continue
        ti = kern.index[t]
        acc += (r ** (t.norm + s.norm)) * (
            adj[ti].conj().T @ delta @ adj[i]
        )
    tp = evaluate_word(f, p)
    tq = evaluate_word(f, q)
    target = (r ** (p.norm + q.norm)) * (tp @ tq.conj().T)
    residual = opnorm(acc - target)
    allowance = opnorm(delta) * tail_bound(
        clique_number(f.graph), r, level - max(p.norm, q.norm)
    )
    return CheckReport(
        name="poisson_reproduce",
        passed=residual <= tol + allowance,
        residual=residual,
        parameters={
            "p": repr(p),
            "q": repr(q),
            "r": r,
            "level": level,
            "allowance": allowance,
            "tol": tol,
        },
    )


def poisson_compress(kern: PoissonKernelMatrix, a: np.ndarray) -> np.ndarray:
    """K* (a (x) I) K for an arbitrary matrix a on the truncated basis.

    Complete positivity in action: a PSD argument compresses to a PSD
    result since this is X -> K* X K on a corner.
    """
    n, d = len(kern.basis), kern.family.dim
    arr = np.asarray(a, dtype=np.complex128)
    if arr.shape != (n, n):
        raise ValidationError(f"argument must be {n} x {n} on this basis")
    blocks = kern.matrix.reshape(n, d, d)
    mixed = np.tensordot(arr, blocks, axes=([1], [0]))  # (n, d, d)
    return np.einsum("tji,tjk->ik", blocks.conj(), mixed)


def poisson_transform_span(
    f: GammaFamily, terms: Sequence[tuple[complex, MonoidElement, MonoidElement]]
) -> np.ndarray:
    """Boundary value of the transform on a finite span.

    At radius r each term lambda_p lambda_q* maps to
    r^{|p|+|q|} T_p T_q*; the coefficients converge monotonically as
    r -> 1, so the limit on the span is just sum a T_p T_q*.
    """
    acc = np.zeros((f.dim, f.dim), dtype=np.complex128)
    for coeff, p, q in terms:
        tp = evaluate_word(f, p)
        tq = evaluate_word(f, q)
        acc += complex(coeff) * (tp @ tq.conj().T)
    return acc


def vn_certificate(
    f: GammaFamily,
    terms: Sequence[tuple[complex, MonoidElement, MonoidElement]],
    level: int,
    guard: int = DEFAULT_BALL_GUARD,
) -> CheckReport:
    """One-sided norm certificate for sum a T_p T_q*.

    The compression of sum a lambda_p lambda_q* to the truncated
    basis never exceeds the untruncated norm, so its norm L is a
    certified lower bound.  If the family side R = ||sum a T_p T_q*||
    satisfies R <= L the domination holds at this level: CERTIFIED.
    Otherwise nothing is refuted (L only grows with the level):
    INCONCLUSIVE, never a failure.
    """
    fk = build_fock(f.graph, level, guard)
    lam_side = np.zeros((fk.dim, fk.dim), dtype=np.complex128)
    for coeff, p, q in terms:
        lp = lambda_compressed(fk, p)
        lq = lambda_compressed(fk, q)
        lam_side += complex(coeff) * (lp @ lq.conj().T)
    lower = opnorm(lam_side)
    upper = opnorm(poisson_transform_span(f, terms))
    certified = upper <= lower * (1 + 1e-10) + 1e-12
    return CheckReport(
        name="vn_certificate",
        passed=certified,
        inconclusive=not certified,
        residual=max(0.0, upper - lower),
        parameters={
            "outcome": "CERTIFIED" if certified else "INCONCLUSIVE",
            "lambda_norm_lower": lower,
            "family_norm": upper,
            "level": level,
            "terms": len(terms),
        },
    )
