"""Finite simple graphs on vertices 1..n and the clique machinery.

The graph is the commutation data for everything else in the package:
vertices index monoid generators, edges say which generators commute.
Sizes stay small (n <= 16 or so), so clique enumeration is exhaustive
subset enumeration and nothing here tries to be clever.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import Iterable, Mapping

from .errors import BadVertex, NotAClique, ValidationError


def _json_int(x: object) -> bool:
    """An integer that is not a bool (JSON true is not a number)."""
    return isinstance(x, int) and not isinstance(x, bool)


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph with vertex set {1, ..., n}.

    Edges are stored as (i, j) pairs with i < j.  Instances are
    immutable and hashable so they can key caches.
    """

    n: int
    edges: frozenset[tuple[int, int]]

    @staticmethod
    def from_edges(n: int, edges: Iterable[Iterable[int]]) -> "Graph":
        """Build a graph, validating the edge list.

        Rejects self-loops, duplicate edges (in either orientation) and
        vertices outside 1..n.
        """
        if not _json_int(n) or n < 1:
            raise ValidationError(f"vertex count must be a positive integer, got {n!r}")
        seen: set[tuple[int, int]] = set()
        for pair in edges:
            i, j = pair
            for v in (i, j):
                if not _json_int(v) or not (1 <= v <= n):
                    raise BadVertex(f"vertex {v!r} outside 1..{n}")
            if i == j:
                raise ValidationError(f"self-loop at vertex {i}")
            key = (min(i, j), max(i, j))
            if key in seen:
                raise ValidationError(f"duplicate edge {key}")
            seen.add(key)
        return Graph(n=n, edges=frozenset(seen))

    def has_edge(self, i: int, j: int) -> bool:
        if i == j:
            return False
        return (min(i, j), max(i, j)) in self.edges

    def vertices(self) -> range:
        return range(1, self.n + 1)


@lru_cache(maxsize=None)
def neighbor_sets(g: Graph) -> Mapping[int, frozenset[int]]:
    """Read-only adjacency map vertex -> frozenset of neighbours.

    Cached per graph, so every caller shares one mapping.
    """
    nbrs: dict[int, set[int]] = {v: set() for v in g.vertices()}
    for i, j in g.edges:
        nbrs[i].add(j)
        nbrs[j].add(i)
    return MappingProxyType({v: frozenset(s) for v, s in nbrs.items()})


def complement(g: Graph) -> Graph:
    """Graph on the same vertices whose edges are the non-edges of g."""
    comp = frozenset(
        (i, j)
        for i, j in itertools.combinations(g.vertices(), 2)
        if (i, j) not in g.edges
    )
    return Graph(n=g.n, edges=comp)


def complement_components(g: Graph) -> list[frozenset[int]]:
    """Connected components of the complement graph.

    Returned in ascending order of least member.  These vertex classes
    split the monoid into a direct product of independent factors: two
    generators in different classes always commute.
    """
    cnbrs = neighbor_sets(complement(g))
    unseen = set(g.vertices())
    comps: list[frozenset[int]] = []
    while unseen:
        root = min(unseen)
        comp = {root}
        frontier = [root]
        while frontier:
            v = frontier.pop()
            for w in cnbrs[v]:
                if w not in comp:
                    comp.add(w)
                    frontier.append(w)
        unseen -= comp
        comps.append(frozenset(comp))
    comps.sort(key=min)
    return comps


def is_clique(g: Graph, w: Iterable[int]) -> bool:
    ws = list(w)
    for v in ws:
        if not (1 <= v <= g.n):
            raise BadVertex(f"vertex {v} outside 1..{g.n}")
    return all(g.has_edge(a, b) for a, b in itertools.combinations(set(ws), 2))


def common_neighborhood(g: Graph, w: Iterable[int]) -> frozenset[int]:
    """Vertices adjacent to every vertex of the clique w.

    The empty clique has every vertex as a common neighbour.  Raises
    NotAClique when w is not a clique; the neighbourhood is only used
    with clique arguments and asking otherwise is a caller bug.
    """
    ws = frozenset(w)
    if not is_clique(g, ws):
        raise NotAClique(f"{sorted(ws)} is not a clique")
    result = set(g.vertices())
    nbrs = neighbor_sets(g)
    for v in ws:
        result &= nbrs[v]
    return frozenset(result)


@lru_cache(maxsize=None)
def enumerate_cliques(g: Graph) -> tuple[frozenset[int], ...]:
    """All cliques of g, including the empty one.

    Ordered by size, then lexicographically on the sorted vertex
    tuple.  Plain subset enumeration; fine up to n around 16.
    """
    verts = list(g.vertices())
    out: list[frozenset[int]] = []
    for size in range(g.n + 1):
        for combo in itertools.combinations(verts, size):
            if is_clique(g, combo):
                out.append(frozenset(combo))
    return tuple(out)


def clique_number(g: Graph) -> int:
    """Size of the largest clique (>= 1 for any nonempty vertex set)."""
    return max(len(c) for c in enumerate_cliques(g))


def clique_number_within(g: Graph, members: Iterable[int]) -> int:
    """Clique number of the induced subgraph on the given vertices."""
    ms = frozenset(members)
    return max((len(c) for c in enumerate_cliques(g) if c <= ms), default=0)


def graph_to_json(g: Graph) -> dict:
    return {"n": g.n, "edges": [list(e) for e in sorted(g.edges)]}


def graph_from_json(obj: object) -> Graph:
    if not isinstance(obj, dict):
        raise ValidationError(f"graph object must be a dict, got {type(obj).__name__}")
    extra = set(obj) - {"n", "edges"}
    if extra:
        raise ValidationError(f"unknown graph keys {sorted(extra)}")
    if "n" not in obj or "edges" not in obj:
        raise ValidationError("graph object needs keys 'n' and 'edges'")
    edges = obj["edges"]
    if not isinstance(edges, list) or any(
        not isinstance(e, list) or len(e) != 2 for e in edges
    ):
        raise ValidationError("'edges' must be a list of [i, j] pairs")
    return Graph.from_edges(obj["n"], edges)


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, itertools.combinations(range(1, n + 1), 2))


def empty_graph(n: int) -> Graph:
    return Graph.from_edges(n, [])


def complete_multipartite(sizes: Iterable[int]) -> Graph:
    """Complete multipartite graph; parts get consecutive vertex labels.

    Vertices in different parts are adjacent, vertices in the same part
    are not.
    """
    parts: list[list[int]] = []
    next_v = 1
    for s in sizes:
        if s < 1:
            raise ValidationError("part sizes must be positive")
        parts.append(list(range(next_v, next_v + s)))
        next_v += s
    n = next_v - 1
    edges = [
        (a, b)
        for pa, pb in itertools.combinations(parts, 2)
        for a in pa
        for b in pb
    ]
    return Graph.from_edges(n, edges)
