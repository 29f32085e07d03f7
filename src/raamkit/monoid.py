"""Word algebra of the monoid presented by a commutation graph.

Generators e_1..e_n, one per graph vertex; e_i e_j = e_j e_i exactly
when ij is an edge.  Every element is stored in its lexicographic
normal form: among all generator words reachable by swapping adjacent
commuting letters, the lexicographically least one.  Two invariants
drive the rest of the package:

  * words represent the same element iff their normal forms agree;
  * principal right ideals either intersect trivially or in another
    principal right ideal, so any two elements have a least common
    multiple or none at all.

Norm |x| counts letters, length counts syllables (maximal blocks of a
single generator).  Norms add under multiplication.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Iterable, Sequence, Union

from .errors import (
    BadVertex,
    EmptyInput,
    GraphMismatch,
    LevelTooLarge,
    NotDivisible,
    OracleAmbiguous,
    ParseError,
)
from .graphs import Graph, enumerate_cliques, neighbor_sets

DEFAULT_BALL_GUARD = 200_000


class _InfinityType:
    """Singleton marking an empty intersection of right ideals."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "INFINITY"


INFINITY = _InfinityType()

# Result of a join: either an element or INFINITY, never a sentinel element.
JoinResult = Union["MonoidElement", _InfinityType]


def is_finite(j: JoinResult) -> bool:
    return not isinstance(j, _InfinityType)


@dataclass(frozen=True)
class MonoidElement:
    """An element in lexicographic normal form.

    syllables is a tuple of (vertex, exponent) pairs with positive
    exponents and distinct adjacent vertices; flattening it gives the
    lexicographically least word in the shuffle class.  Construct via
    normal_form / multiply / generator rather than directly.
    """

    graph: Graph
    syllables: tuple[tuple[int, int], ...]

    def __post_init__(self):
        for v, a in self.syllables:
            if not (1 <= v <= self.graph.n):
                raise BadVertex(f"vertex {v} outside 1..{self.graph.n}")
            if a < 1:
                raise ParseError(f"exponent {a} must be positive")

    @property
    def norm(self) -> int:
        """Total letter count; additive under multiplication."""
        return sum(a for _, a in self.syllables)

    @property
    def length(self) -> int:
        """Number of syllables."""
        return len(self.syllables)

    @property
    def is_identity(self) -> bool:
        return not self.syllables

    def letters(self) -> tuple[int, ...]:
        return tuple(
            v for v, a in self.syllables for _ in range(a)
        )

    def vertex_support(self) -> frozenset[int]:
        return frozenset(v for v, _ in self.syllables)

    def __mul__(self, other: "MonoidElement") -> "MonoidElement":
        return multiply(self, other)

    def __repr__(self) -> str:
        if not self.syllables:
            return "1"
        return " ".join(
            f"e{v}" if a == 1 else f"e{v}^{a}" for v, a in self.syllables
        )


class Side(Enum):
    INITIAL = "initial"
    FINAL = "final"


def identity(g: Graph) -> MonoidElement:
    return MonoidElement(g, ())


def generator(g: Graph, i: int) -> MonoidElement:
    if not (1 <= i <= g.n):
        raise BadVertex(f"vertex {i} outside 1..{g.n}")
    return MonoidElement(g, ((i, 1),))


def _group(word: Sequence[int]) -> tuple[tuple[int, int], ...]:
    """Amalgamate a letter word into syllables."""
    out: list[tuple[int, int]] = []
    for v in word:
        if out and out[-1][0] == v:
            out[-1] = (v, out[-1][1] + 1)
        else:
            out.append((v, 1))
    return tuple(out)


def _lex_least_word(adj: dict[int, frozenset[int]], word: Sequence[int]) -> list[int]:
    """Lexicographically least word in the shuffle class.

    Greedy: the least letter whose first occurrence is preceded only
    by neighbours can be shuffled to the front; emit it and repeat.
    The first letter is always available, so the loop cannot stall.
    """
    rem = list(word)
    out: list[int] = []
    while rem:
        seen: set[int] = set()
        best = None
        for v in rem:
            if v in seen:
                continue
            if all(u in adj[v] for u in seen):
                if best is None or v < best:
                    best = v
            seen.add(v)
        rem.remove(best)
        out.append(best)
    return out


def normal_form(g: Graph, word: Iterable[int]) -> MonoidElement:
    """Element represented by a generator word (vertex indices)."""
    letters = list(word)
    for v in letters:
        if not isinstance(v, int) or not (1 <= v <= g.n):
            raise BadVertex(f"vertex {v!r} outside 1..{g.n}")
    return MonoidElement(g, _group(_lex_least_word(neighbor_sets(g), letters)))


def _same_graph(x: MonoidElement, y: MonoidElement) -> Graph:
    if x.graph != y.graph:
        raise GraphMismatch("elements live over different graphs")
    return x.graph


def multiply(x: MonoidElement, y: MonoidElement) -> MonoidElement:
    g = _same_graph(x, y)
    if x.is_identity:
        return y
    if y.is_identity:
        return x
    return normal_form(g, x.letters() + y.letters())


def boundary_vertices(x: MonoidElement, side: Side) -> frozenset[int]:
    """Vertices whose generator can be shuffled to the given end.

    A vertex is initial iff every distinct letter before its first
    occurrence commutes with it; final is the mirror image.
    """
    adj = neighbor_sets(x.graph)
    word = x.letters()
    if side is Side.FINAL:
        word = word[::-1]
    elif side is not Side.INITIAL:
        raise ValueError(f"unknown side {side!r}")
    found: set[int] = set()
    seen: set[int] = set()
    for v in word:
        if v not in seen:
            if all(u in adj[v] for u in seen):
                found.add(v)
            seen.add(v)
    return frozenset(found)


def initial_vertices(x: MonoidElement) -> frozenset[int]:
    return boundary_vertices(x, Side.INITIAL)


def final_vertices(x: MonoidElement) -> frozenset[int]:
    return boundary_vertices(x, Side.FINAL)


def _strip_initial(x: MonoidElement, i: int) -> MonoidElement:
    """Remove one e_i from the front; i must be an initial vertex."""
    word = list(x.letters())
    word.remove(i)
    return normal_form(x.graph, word)


def left_divides(x: MonoidElement, z: MonoidElement) -> bool:
    """Whether z = x * y for some y.

    Peels the first letter of x: it must be shufflable to the front of
    z, and then the quotients must again divide.
    """
    _same_graph(x, z)
    while not x.is_identity:
        if x.norm > z.norm:
            return False
        i = x.syllables[0][0]
        if i not in initial_vertices(z):
            return False
        x = _strip_initial(x, i)
        z = _strip_initial(z, i)
    return True


def left_quotient(x: MonoidElement, z: MonoidElement) -> MonoidElement:
    """The unique y with z = x * y; raises NotDivisible otherwise."""
    _same_graph(x, z)
    orig_x, orig_z = x, z
    while not x.is_identity:
        i = x.syllables[0][0]
        if x.norm > z.norm or i not in initial_vertices(z):
            raise NotDivisible(f"{orig_x!r} does not left-divide {orig_z!r}")
        x = _strip_initial(x, i)
        z = _strip_initial(z, i)
    return z


def lcm(p: MonoidElement, q: MonoidElement) -> JoinResult:
    """Least common multiple of p and q, or INFINITY.

    Peel the first generator e_i of p.  Any common multiple starts
    with e_i, so either e_i also starts q (strip it from both) or e_i
    has to commute past all of q (strip it from p alone).  If neither
    holds the right ideals cannot meet.  Each step moves one letter to
    the output, so the result never exceeds |p| + |q| letters.
    """
    g = _same_graph(p, q)
    adj = neighbor_sets(g)
    prefix: list[int] = []
    while True:
        if p.is_identity:
            tail = q
            break
        if q.is_identity:
            tail = p
            break
        i = p.syllables[0][0]
        if i in initial_vertices(q):
            prefix.append(i)
            p = _strip_initial(p, i)
            q = _strip_initial(q, i)
        elif all(v in adj[i] for v in q.vertex_support()):
            prefix.append(i)
            p = _strip_initial(p, i)
        else:
            return INFINITY
    return normal_form(g, prefix + list(tail.letters()))


def join_set(elems: Sequence[MonoidElement]) -> JoinResult:
    """Least common multiple of a nonempty collection; INFINITY absorbs."""
    if not elems:
        raise EmptyInput("join of an empty collection is not defined")
    acc: JoinResult = elems[0]
    for x in elems[1:]:
        if not is_finite(acc):
            return INFINITY
        acc = lcm(acc, x)
    return acc


@lru_cache(maxsize=None)
def _levels(g: Graph, m: int, guard: int) -> tuple[MonoidElement, ...]:
    if m == 0:
        return (identity(g),)
    prev = _levels(g, m - 1, guard)
    sizes = [len(_levels(g, j, guard)) for j in range(m)]
    # Cartier-Foata: the growth series is 1 / sum_C (-t)^|C| over cliques
    # C, so level m is sized from the lower levels before it is built.
    size = sum(
        (-1) ** (len(c) + 1) * sizes[m - len(c)]
        for c in enumerate_cliques(g)
        if 0 < len(c) <= m
    )
    if sum(sizes) + size > guard:
        raise LevelTooLarge(
            f"ball through norm {m} holds more than {guard} elements"
        )
    found: dict[tuple, MonoidElement] = {}
    for x in prev:
        base = x.letters()
        for i in g.vertices():
            y = normal_form(g, base + (i,))
            found.setdefault(y.syllables, y)
    return tuple(sorted(found.values(), key=lambda e: e.letters()))


def enumerate_norm_level(
    g: Graph, m: int, guard: int = DEFAULT_BALL_GUARD
) -> list[MonoidElement]:
    """All elements of norm exactly m, sorted by canonical word.

    Built level by level (extend by one generator, deduplicate on the
    normal form).  The guard bounds the total ball size through norm m.
    """
    if m < 0:
        raise ParseError(f"norm level must be nonnegative, got {m}")
    return list(_levels(g, m, guard))


def ball(g: Graph, max_norm: int, guard: int = DEFAULT_BALL_GUARD) -> list[MonoidElement]:
    """All elements of norm <= max_norm, ordered by (norm, word)."""
    out: list[MonoidElement] = []
    for m in range(max_norm + 1):
        out.extend(_levels(g, m, guard))
    return out


@lru_cache(maxsize=None)
def _multiples_within(x: MonoidElement, bound: int, guard: int) -> frozenset[MonoidElement]:
    return frozenset(
        z for z in ball(x.graph, bound, guard) if left_divides(x, z)
    )


def lcm_oracle(
    p: MonoidElement, q: MonoidElement, guard: int = DEFAULT_BALL_GUARD
) -> JoinResult:
    """Exhaustive-search reference for lcm.

    Enumerates every z with |z| <= |p| + |q| (any common multiple that
    exists at all shows up in this ball), collects the common
    multiples, and returns the unique one dividing all others.  Raises
    OracleAmbiguous if minimality fails, which would mean the monoid
    is not right-LCM and the word algebra is broken.
    """
    _same_graph(p, q)
    bound = p.norm + q.norm
    common = sorted(
        _multiples_within(p, bound, guard) & _multiples_within(q, bound, guard),
        key=lambda e: (e.norm, e.letters()),
    )
    if not common:
        return INFINITY
    least = common[0]
    if len(common) > 1 and common[1].norm == least.norm:
        raise OracleAmbiguous(
            f"two norm-minimal common multiples of {p!r} and {q!r}"
        )
    for z in common[1:]:
        if not left_divides(least, z):
            raise OracleAmbiguous(
                f"{least!r} misses common multiple {z!r} of {p!r}, {q!r}"
            )
    return least


def parse_element(g: Graph, text: str) -> MonoidElement:
    """Parse a whitespace-separated literal like "g1 g1 g2"; "id" is 1."""
    tokens = text.split()
    if not tokens:
        raise ParseError("empty element literal")
    if tokens == ["id"]:
        return identity(g)
    word: list[int] = []
    for tok in tokens:
        if not tok.startswith("g") or not tok[1:].isdigit():
            raise ParseError(f"bad generator token {tok!r}")
        v = int(tok[1:])
        if not (1 <= v <= g.n):
            raise BadVertex(f"vertex {v} outside 1..{g.n}")
        word.append(v)
    return normal_form(g, word)


def element_literal(x: MonoidElement) -> str:
    """Round-trip inverse of parse_element."""
    if x.is_identity:
        return "id"
    return " ".join(f"g{v}" for v in x.letters())
