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

The word operations run on plain letter lists:

  * normal_form pops the lexicographically least linear extension of
    the word's heap of pieces (Viennot) off a min-heap: each letter
    occurrence waits for the last earlier occurrence of every letter
    it does not commute with, its own letter included;
  * left_divides, left_quotient and lcm peel the letters of one word
    off a list copy of the other, deleting the first occurrence of a
    letter when only its neighbours precede it, and normalise once at
    the end (left_divides not at all);
  * balls grow through the forbidden-letter automaton of normal forms
    (Anisimov-Knuth): its state is the set F of letters that may not
    come next, and letter a moves it to adj(a) & ({b < a} | F), so
    every normal word of norm m is a normal word of norm m - 1 plus
    one allowed letter, and no word is normalised or deduplicated.
"""

from __future__ import annotations

import heapq
from collections import Counter
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


def normal_form(g: Graph, word: Iterable[int]) -> MonoidElement:
    """Element represented by a generator word (vertex indices).

    The lexicographically least spelling is the least linear extension
    of the word's heap: an occurrence becomes ready once the last
    earlier occurrence of each letter it does not commute with has been
    emitted, and the least ready letter is emitted next.
    """
    letters = list(word)
    for v in letters:
        if not isinstance(v, int) or not (1 <= v <= g.n):
            raise BadVertex(f"vertex {v!r} outside 1..{g.n}")
    adj = neighbor_sets(g)
    last: dict[int, int] = {}
    after: list[list[int]] = [[] for _ in letters]
    waits = [0] * len(letters)
    for k, v in enumerate(letters):
        nbrs = adj[v]
        for u, j in last.items():
            if u not in nbrs:
                after[j].append(k)
                waits[k] += 1
        last[v] = k
    ready = [(v, k) for k, v in enumerate(letters) if not waits[k]]
    heapq.heapify(ready)
    out: list[int] = []
    while ready:
        v, k = heapq.heappop(ready)
        out.append(v)
        for j in after[k]:
            waits[j] -= 1
            if not waits[j]:
                heapq.heappush(ready, (letters[j], j))
    return MonoidElement(g, _group(out))


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


def _peel(word: list[int], i: int, nbrs: frozenset[int]) -> int:
    """Where e_i can be taken off the front of a letter list.

    The index of the first i when only neighbours of i precede it;
    len(word) when word has no i and every letter commutes with i;
    -1 when a letter that does not commute with i comes first.
    """
    k = word.index(i) if i in word else len(word)
    return k if nbrs.issuperset(word[:k]) else -1


def _remainder(x: MonoidElement, z: MonoidElement) -> list[int] | None:
    """A spelling of y with z = x * y, or None when x does not left-divide z.

    Peels the letters of x, in order, off a copy of z's letters.
    """
    adj = neighbor_sets(_same_graph(x, z))
    if x.norm > z.norm:
        return None
    rest = list(z.letters())
    for i in x.letters():
        k = _peel(rest, i, adj[i])
        if not 0 <= k < len(rest):
            return None
        del rest[k]
    return rest


def left_divides(x: MonoidElement, z: MonoidElement) -> bool:
    """Whether z = x * y for some y."""
    return _remainder(x, z) is not None


def left_quotient(x: MonoidElement, z: MonoidElement) -> MonoidElement:
    """The unique y with z = x * y; raises NotDivisible otherwise."""
    rest = _remainder(x, z)
    if rest is None:
        raise NotDivisible(f"{x!r} does not left-divide {z!r}")
    return normal_form(z.graph, rest)


def lcm(p: MonoidElement, q: MonoidElement) -> JoinResult:
    """Least common multiple of p and q, or INFINITY.

    Peel the letters e_i of p in order.  Any common multiple starts
    with e_i, so either e_i also starts what is left of q (strip it
    there) or e_i has to commute past all of it (leave it).  If neither
    holds the right ideals cannot meet.  The join is p times what is
    left of q, so it never exceeds |p| + |q| letters.
    """
    g = _same_graph(p, q)
    adj = neighbor_sets(g)
    rest = list(q.letters())
    for i in p.letters():
        k = _peel(rest, i, adj[i])
        if k < 0:
            return INFINITY
        if k < len(rest):
            del rest[k]
    return normal_form(g, list(p.letters()) + rest)


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


def level_sizes(g: Graph, max_norm: int) -> list[int]:
    """Number of elements of each norm 0..max_norm, without enumerating.

    Cartier-Foata: the growth series is 1 / sum_C (-t)^|C| over cliques
    C, so a_m = sum_{C != {}} (-1)^{|C|+1} a_{m-|C|}.
    """
    by_size = Counter(len(c) for c in enumerate_cliques(g) if c)
    sizes = [1]
    for m in range(1, max_norm + 1):
        sizes.append(
            sum(
                (-1) ** (k + 1) * count * sizes[m - k]
                for k, count in by_size.items()
                if k <= m
            )
        )
    return sizes


@lru_cache(maxsize=None)
def _levels(
    g: Graph, m: int, guard: int
) -> tuple[tuple[tuple[MonoidElement, ...], tuple[int, ...]], ...]:
    """Levels 0..m of the ball, each as (elements, automaton states).

    A state is the bitmask (bit a for e_a) of letters that may not
    follow the word.  Parents come in word order and letters are
    appended in ascending order, so each level is born sorted.  The
    guard is checked from the level sizes before anything is built.
    """
    if m == 0:
        return (((identity(g),), (0,)),)
    if sum(level_sizes(g, m)) > guard:
        raise LevelTooLarge(
            f"ball through norm {m} holds more than {guard} elements"
        )
    lower = _levels(g, m - 1, guard)
    adj = neighbor_sets(g)
    moves = [
        (a, sum(1 << b for b in adj[a]), (1 << a) - 2) for a in g.vertices()
    ]
    elems: list[MonoidElement] = []
    states: list[int] = []
    for x, forbidden in zip(*lower[-1]):
        syll = x.syllables
        for a, nbrs, less in moves:
            if forbidden >> a & 1:
                continue
            if syll and syll[-1][0] == a:
                grown = syll[:-1] + ((a, syll[-1][1] + 1),)
            else:
                grown = syll + ((a, 1),)
            elems.append(MonoidElement(g, grown))
            states.append(nbrs & (less | forbidden))
    return lower + ((tuple(elems), tuple(states)),)


def enumerate_norm_level(
    g: Graph, m: int, guard: int = DEFAULT_BALL_GUARD
) -> list[MonoidElement]:
    """All elements of norm exactly m, sorted by canonical word.

    The guard bounds the total ball size through norm m.
    """
    if m < 0:
        raise ParseError(f"norm level must be nonnegative, got {m}")
    return list(_levels(g, m, guard)[m][0])


def ball(g: Graph, max_norm: int, guard: int = DEFAULT_BALL_GUARD) -> list[MonoidElement]:
    """All elements of norm <= max_norm, ordered by (norm, word)."""
    if max_norm < 0:
        return []
    return [x for elems, _ in _levels(g, max_norm, guard) for x in elems]


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
