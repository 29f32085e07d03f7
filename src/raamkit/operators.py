"""Edge-commuting contraction families and their positivity checks.

A family assigns a matrix T_i to each graph vertex so that T_i and
T_j commute whenever ij is an edge; words then evaluate to products
T_p.  The checks here are the finite-dimensional content of the
Brehmer-type positivity conditions.  Only cliques have joins, and the
join of a clique c is the product of its commuting generators, so the
clique conditions are sums over cliques of signed Grams

    G_c = T_c T_c*,   T_c = prod_{v in c} T_v,

built from generator matrices alone.  One walk forms each Gram once
per check and feeds both kinds of check.  The radial defect is a
matrix polynomial in t = r^2 of degree omega, the clique number:

    Delta_r = sum_{k=0..omega} (-t)^k S_k,   S_k = sum_{|c|=k} G_c,

so the walk fills the size table S_0..S_omega once and every radius
costs omega + 1 scaled adds.  The Brehmer checks need, per clique
neighbourhood N, Z(N) = sum over cliques c inside N of (-1)^|c| G_c;
one walk over the cliques in colex order adds each G_c to every
distinct neighbourhood containing c.  zed is the general alternating
sum

    Z(F) = sum over subsets U of F of (-1)^|U| T_join(U) T_join(U)*

over an arbitrary finite element set F, with T of an infinite join
read as 0; it walks all subsets of F and feeds the telescoping
estimate bounding sum_p T_p T_p* over F by the largest joinable
subset size c_F.

Matrices are plain numpy complex arrays.  Everything is desk scale;
eigenvalues come from dense Hermitian solvers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Iterator, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    GraphMismatch,
    GuardExceeded,
    NotSquare,
    ValidationError,
)
from .graphs import (
    Graph,
    _json_int,
    common_neighborhood,
    complement_components,
    enumerate_cliques,
    neighbor_sets,
)
from .monoid import (
    INFINITY,
    JoinResult,
    MonoidElement,
    identity,
    is_finite,
    lcm,
)
from .counting import level_joins, max_joinable_subset

DEFAULT_FAMILY_TOL = 1e-8
DEFAULT_KEY_ESTIMATE_TOL = 1e-10
DEFAULT_ZED_GUARD = 1 << 20


def _as_complex_matrix(a: np.ndarray) -> np.ndarray:
    arr = np.array(a, dtype=np.complex128, copy=True)
    if arr.ndim != 2:
        raise NotSquare(f"expected a matrix, got ndim={arr.ndim}")
    if arr.shape[0] != arr.shape[1]:
        raise NotSquare(f"expected a square matrix, got shape {arr.shape}")
    arr.setflags(write=False)
    return arr


def opnorm(a: np.ndarray) -> float:
    """Spectral norm (largest singular value)."""
    return float(np.linalg.norm(a, 2))


@dataclass(frozen=True)
class GammaFamily:
    """One matrix per vertex, all of one size, over a fixed graph.

    Construction checks shapes only; whether the family actually
    commutes along edges and is contractive is reported (not raised)
    by validate_family, since numerically built fixtures carry
    rounding noise.
    """

    graph: Graph
    dim: int
    generators: tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.generators) != self.graph.n:
            raise DimensionMismatch(
                f"{self.graph.n} vertices but {len(self.generators)} matrices"
            )
        mats = tuple(_as_complex_matrix(m) for m in self.generators)
        for m in mats:
            if m.shape != (self.dim, self.dim):
                raise DimensionMismatch(
                    f"matrix shape {m.shape} != ({self.dim}, {self.dim})"
                )
        object.__setattr__(self, "generators", mats)

    def matrix(self, i: int) -> np.ndarray:
        return self.generators[i - 1]


@dataclass
class CheckReport:
    """Outcome of one numerical check.

    passed is the verdict; inconclusive marks one-sided checks that
    could not certify but did not refute (never counted as failure).
    min_eigenvalue / residual are filled when meaningful.
    """

    name: str
    passed: bool
    min_eigenvalue: float | None = None
    residual: float | None = None
    parameters: dict = field(default_factory=dict)
    inconclusive: bool = False

    def to_jsonable(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "inconclusive": self.inconclusive,
            "min_eigenvalue": self.min_eigenvalue,
            "residual": self.residual,
            "parameters": self.parameters,
        }


def default_psd_tol(a: np.ndarray) -> float:
    """Eigenvalue tolerance scaled to dimension and row sums."""
    d = a.shape[0]
    scale = max(1.0, float(np.linalg.norm(a, np.inf))) if d else 1.0
    return 1e-9 * max(1, d) * scale


def psd_check(a: np.ndarray, tol: float | None = None, name: str = "psd") -> CheckReport:
    """Symmetrise and test the smallest eigenvalue against -tol."""
    arr = _as_complex_matrix(a)
    herm = (arr + arr.conj().T) / 2.0
    if tol is None:
        tol = default_psd_tol(herm)
    lam = float(np.linalg.eigvalsh(herm)[0]) if herm.size else 0.0
    return CheckReport(
        name=name,
        passed=lam >= -tol,
        min_eigenvalue=lam,
        parameters={"tol": tol},
    )


def validate_family(f: GammaFamily, tol: float = DEFAULT_FAMILY_TOL) -> CheckReport:
    """Commutators along edges and norms <= 1, both within tol."""
    # before any norm: the SVD behind opnorm raises on non-finite input
    if not all(np.all(np.isfinite(m)) for m in f.generators):
        return CheckReport(
            name="gamma_family",
            passed=False,
            residual=float("inf"),
            parameters={"reason": "non-finite entries"},
        )
    worst_comm = 0.0
    worst_edge = None
    for i, j in sorted(f.graph.edges):
        r = opnorm(f.matrix(i) @ f.matrix(j) - f.matrix(j) @ f.matrix(i))
        if r > worst_comm:
            worst_comm, worst_edge = r, [i, j]
    norms = [opnorm(m) for m in f.generators]
    excess = max((x - 1.0 for x in norms), default=0.0)
    return CheckReport(
        name="gamma_family",
        passed=worst_comm <= tol and excess <= tol,
        residual=worst_comm,
        parameters={
            "tol": tol,
            "max_norm": max(norms, default=0.0),
            "worst_edge": worst_edge,
        },
    )


def evaluate_word(f: GammaFamily, p: MonoidElement) -> np.ndarray:
    """T_p, multiplying out the canonical word.

    Well defined on elements because edge generators commute; with a
    validated family any representative word gives the same product up
    to rounding.
    """
    if p.graph != f.graph:
        raise GraphMismatch("element and family graphs differ")
    out = np.eye(f.dim, dtype=np.complex128)
    for v, a in p.syllables:
        out = out @ np.linalg.matrix_power(f.matrix(v), a)
    return out


def zed(
    f: GammaFamily,
    elems: Sequence[MonoidElement],
    guard: int = DEFAULT_ZED_GUARD,
) -> np.ndarray:
    """Alternating sum of T_join T_join* over subsets of elems.

    The empty subset contributes +I; subsets without a finite join
    contribute nothing.  elems is an indexed list: repeats count.
    """
    m = len(elems)
    if (1 << m) > guard:
        raise GuardExceeded(f"2^{m} subsets is beyond the guard")
    for x in elems:
        if x.graph != f.graph:
            raise GraphMismatch("element and family graphs differ")
    joins: list[JoinResult] = [identity(f.graph)] + [INFINITY] * ((1 << m) - 1)
    cache: dict[MonoidElement, np.ndarray] = {}
    acc = np.zeros((f.dim, f.dim), dtype=np.complex128)
    for s in range(1 << m):
        if s:
            low = (s & -s).bit_length() - 1
            parent = joins[s & (s - 1)]
            joins[s] = (
                lcm(parent, elems[low]) if is_finite(parent) else INFINITY
            )
        j = joins[s]
        if not is_finite(j):
            continue
        t = cache.get(j)
        if t is None:
            t = evaluate_word(f, j)
            cache[j] = t
        sign = -1.0 if bin(s).count("1") % 2 else 1.0
        acc += sign * (t @ t.conj().T)
    return acc


def _clique_grams(
    f: GammaFamily, cliques: Sequence[frozenset[int]]
) -> Iterator[tuple[frozenset[int], np.ndarray]]:
    """(c, T_c T_c*) for each clique c, in the order given.

    T_c is the identity times the generator matrices of c in ascending
    vertex order; they commute, so this is T of the clique's join.
    This walk is the only place that forms clique products.
    """
    for c in cliques:
        t = np.eye(f.dim, dtype=np.complex128)
        for v in sorted(c):
            t = t @ f.matrix(v)
        yield c, t @ t.conj().T


def _defects(f: GammaFamily, radii: Sequence[float]) -> Iterator[np.ndarray]:
    """Delta_r for each r in radii, one at a time.

    One Gram walk over enumerate_cliques adds each G_c into the size
    table S_|c|; then each Delta_r = sum_{k=0..omega} (-r^2)^k S_k is
    summed from zeros in ascending k.
    """
    cliques = enumerate_cliques(f.graph)
    sizes = [
        np.zeros((f.dim, f.dim), dtype=np.complex128)
        for _ in range(max(len(c) for c in cliques) + 1)
    ]
    for c, g in _clique_grams(f, cliques):
        sizes[len(c)] += g
    for r in radii:
        x = -(r * r)
        delta = np.zeros((f.dim, f.dim), dtype=np.complex128)
        for k, s in enumerate(sizes):
            delta += x**k * s
        yield delta


def _neighborhood_zed_reports(
    f: GammaFamily,
    scope: frozenset[int] | None,
    tol: float | None,
    name: str,
) -> list[CheckReport]:
    """Z-positivity over clique neighbourhoods, optionally within scope.

    For each clique W (restricted to scope when given), the vertices
    adjacent to all of W (again within scope) form its neighbourhood
    N(W), and Z is the sum of (-1)^|c| T_c T_c* over the cliques c
    inside N(W): the subsets of N(W) without a join contribute
    nothing.  Z depends on N(W) alone, so it is summed and checked once
    per distinct neighbourhood; every W still gets its own report.
    All neighbourhoods are fed from one Gram walk over the cliques of
    the scope in colex order, the order in which zed's subset bitmasks
    over sorted generators visit them; restricted to one neighbourhood
    it is that neighbourhood's colex order, so each Z sees the float
    operations of its own walk.  Maximal cliques have empty
    neighbourhoods and their Z is trivially the identity, so they are
    skipped.
    """
    g = f.graph
    members = scope if scope is not None else frozenset(g.vertices())
    cliques = [c for c in enumerate_cliques(g) if c <= members]
    hoods = [
        (w, hood) for w in cliques if (hood := common_neighborhood(g, w) & members)
    ]
    zs = {hood: np.zeros((f.dim, f.dim), dtype=np.complex128) for _, hood in hoods}
    colex = sorted(cliques, key=lambda c: sorted(c, reverse=True))
    for c, gram in _clique_grams(f, colex):
        term = (-1.0) ** len(c) * gram
        for hood, z in zs.items():
            if c <= hood:
                z += term
    checked = {hood: psd_check(z, tol, name=name) for hood, z in zs.items()}
    out: list[CheckReport] = []
    for w, hood in hoods:
        rep = replace(checked[hood], parameters=dict(checked[hood].parameters))
        rep.parameters.update(
            clique=sorted(w),
            neighborhood=sorted(hood),
        )
        if scope is not None:
            rep.parameters["component"] = sorted(scope)
        out.append(rep)
    return out


def weak_brehmer_check(
    f: GammaFamily, tol: float | None = None
) -> list[CheckReport]:
    """Z-positivity per complement component.

    The complement components split the monoid into a direct product,
    so it suffices to run the clique condition inside each factor.
    One report per (component, non-maximal clique of the component).
    """
    reports: list[CheckReport] = []
    for comp in complement_components(f.graph):
        reports.extend(
            _neighborhood_zed_reports(f, comp, tol, name="weak_brehmer")
        )
    return reports


def brehmer_clique_check(
    f: GammaFamily, tol: float | None = None
) -> list[CheckReport]:
    """Z-positivity over every non-maximal clique of the full graph."""
    return _neighborhood_zed_reports(f, None, tol, name="brehmer_clique")


def delta_operator(f: GammaFamily, r: float) -> np.ndarray:
    """Defect sum over cliques: sum (-r^2)^|c| T_c T_c*.

    Only cliques contribute; a non-clique set of generators has no
    common multiple.  Summed by clique size, as sum_k (-r^2)^k S_k with
    S_k the sum of the k-clique Grams.  At r = 1 this is Z over the
    full generator set.
    """
    _check_radius(r)
    (delta,) = _defects(f, [r])
    return delta


def _check_radius(r: float) -> None:
    if not (0.0 <= r <= 1.0):
        raise ValidationError(f"r must lie in [0, 1], got {r}")


def property_p_scan(
    f: GammaFamily, r_grid: Sequence[float], tol: float | None = None
) -> list[CheckReport]:
    """Defect positivity on a grid of radii, plus a summary report.

    Every radius is checked before any product is formed.  One Gram
    walk builds the size table S_0..S_omega for the whole grid, and
    each radius then evaluates sum_k (-r^2)^k S_k, so each defect
    equals delta_operator at its radius bit for bit.  The summary
    flags the failing prefix of the ascending grid; the largest
    failing radius is the empirical lower edge for where the defect
    turns positive.
    """
    pts = sorted(float(r) for r in r_grid)
    for r in pts:
        _check_radius(r)
    reports: list[CheckReport] = []
    for r, delta in zip(pts, _defects(f, pts)):
        rep = psd_check(delta, tol, name="property_p")
        rep.parameters["r"] = r
        reports.append(rep)
    fails = [r for r, rep in zip(pts, reports) if not rep.passed]
    flags = [not rep.passed for rep in reports]
    prefix = flags == sorted(flags, reverse=True)
    reports.append(
        CheckReport(
            name="property_p_summary",
            passed=not fails,
            parameters={
                "grid": pts,
                "rho_empirical": max(fails) if fails else None,
                "failures_form_prefix": prefix,
            },
        )
    )
    return reports


def key_estimate_check(
    f: GammaFamily,
    elems: Sequence[MonoidElement],
    tol: float = DEFAULT_KEY_ESTIMATE_TOL,
) -> CheckReport:
    """Telescoping identity behind the summability estimate.

    With c the largest joinable subset size of elems and F_k the
    multiset of finite k-fold joins,

        c * I - sum_p T_p T_p*  ==  sum_{k=1..c} Z(F_k)

    holds as exact algebra for any family whatsoever, so the residual
    must vanish to rounding.  Each Z(F_k) is positive for families
    passing the clique condition, which is what turns the identity
    into an upper bound on sum_p T_p T_p*.
    """
    c, witness = max_joinable_subset(elems)
    lhs = c * np.eye(f.dim, dtype=np.complex128)
    for p in elems:
        t = evaluate_word(f, p)
        lhs -= t @ t.conj().T
    rhs = np.zeros((f.dim, f.dim), dtype=np.complex128)
    for k in range(1, c + 1):
        finite = [j for j in level_joins(elems, k) if is_finite(j)]
        rhs += zed(f, finite)
    diff = lhs - rhs
    # overflowed products: the SVD behind opnorm raises on non-finite input
    residual = opnorm(diff) if np.isfinite(diff).all() else float("inf")
    return CheckReport(
        name="key_estimate",
        passed=residual <= tol,
        residual=residual,
        parameters={"c_F": c, "set_size": len(elems), "tol": tol},
    )


def family_to_json(f: GammaFamily) -> dict:
    return {
        "dim": f.dim,
        "matrices": [
            {"re": m.real.tolist(), "im": m.imag.tolist()}
            for m in f.generators
        ],
    }


def _finite_real(x: object) -> bool:
    """A JSON number (int or float, not bool) that is finite as a float."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


def _real_block(raw: object, d: int, what: str) -> np.ndarray:
    """A d x d list of rows of finite numbers, as a float array."""
    if not (
        isinstance(raw, list)
        and len(raw) == d
        and all(isinstance(row, list) and len(row) == d for row in raw)
    ):
        raise DimensionMismatch(f"{what} must be a list of {d} rows of {d} entries")
    msg = f"{what} entries must be finite numbers"
    # exact types: bool is an int subclass and must be refused
    if not {type(x) for row in raw for x in row} <= {int, float}:
        raise ValidationError(msg)
    try:
        arr = np.array(raw, dtype=float)
    except OverflowError:  # an int beyond the float range
        raise ValidationError(msg) from None
    if not np.isfinite(arr).all():
        raise ValidationError(msg)
    return arr


def family_from_json(g: Graph, obj: object) -> GammaFamily:
    """Family from {"dim": d, "matrices": [{"re": .., "im": ..}, ..]}.

    Matrices are listed in vertex order; "im" may be omitted for real
    input.  Every entry must be a finite JSON number.
    """
    if not isinstance(obj, dict):
        raise ValidationError("family object must be a dict")
    if "dim" not in obj or "matrices" not in obj:
        raise ValidationError("family object needs keys 'dim' and 'matrices'")
    d = obj["dim"]
    if not _json_int(d) or d < 1:
        raise ValidationError(f"dim must be a positive integer, got {d!r}")
    mats_json = obj["matrices"]
    if not isinstance(mats_json, list) or len(mats_json) != g.n:
        raise ValidationError(
            f"expected {g.n} matrices (one per vertex), got "
            f"{len(mats_json) if isinstance(mats_json, list) else type(mats_json).__name__}"
        )
    mats = []
    for k, mj in enumerate(mats_json, start=1):
        if not isinstance(mj, dict) or "re" not in mj:
            raise ValidationError(f"matrix {k} needs at least a 're' block")
        re = _real_block(mj["re"], d, f"matrix {k} 're' block")
        if "im" in mj:
            im = _real_block(mj["im"], d, f"matrix {k} 'im' block")
        else:
            im = np.zeros_like(re)
        mats.append(re + 1j * im)
    return GammaFamily(graph=g, dim=d, generators=tuple(mats))
