import pytest

from raamkit import (
    BadVertex,
    Graph,
    NotAClique,
    ValidationError,
    clique_number,
    clique_number_within,
    common_neighborhood,
    complement,
    complement_components,
    complete_graph,
    complete_multipartite,
    empty_graph,
    enumerate_cliques,
    graph_from_json,
    graph_to_json,
    is_clique,
    neighbor_sets,
)


def test_from_edges_normalizes_and_validates():
    g = Graph.from_edges(3, [(2, 1), (2, 3)])
    assert g.edges == frozenset({(1, 2), (2, 3)})
    with pytest.raises(BadVertex):
        Graph.from_edges(3, [(1, 4)])
    with pytest.raises(ValidationError):
        Graph.from_edges(3, [(2, 2)])
    with pytest.raises(ValidationError):
        Graph.from_edges(3, [(2, 1), (1, 2)])
    with pytest.raises(ValidationError):
        Graph.from_edges(0, [])


def test_neighbor_sets(toy_graph):
    ns = neighbor_sets(toy_graph)
    assert ns[1] == frozenset({2, 4})
    assert ns[3] == frozenset({4})
    assert ns[4] == frozenset({1, 2, 3})


def test_neighbor_sets_read_only(toy_graph):
    ns = neighbor_sets(toy_graph)
    with pytest.raises(TypeError):
        ns[1] = frozenset()
    with pytest.raises(TypeError):
        del ns[3]
    assert neighbor_sets(toy_graph)[1] == frozenset({2, 4})


def test_complement_roundtrip(toy_graph):
    assert complement(complement(toy_graph)) == toy_graph
    assert complement(complete_graph(4)) == empty_graph(4)


def test_complement_components(toy_graph, k221_graph):
    assert complement_components(toy_graph) == [
        frozenset({1, 2, 3}),
        frozenset({4}),
    ]
    assert complement_components(k221_graph) == [
        frozenset({1, 2}),
        frozenset({3, 4}),
        frozenset({5}),
    ]
    assert complement_components(complete_graph(3)) == [
        frozenset({1}),
        frozenset({2}),
        frozenset({3}),
    ]
    assert complement_components(empty_graph(3)) == [frozenset({1, 2, 3})]


def test_clique_predicates(toy_graph):
    assert is_clique(toy_graph, [])
    assert is_clique(toy_graph, [3])
    assert is_clique(toy_graph, [1, 2, 4])
    assert not is_clique(toy_graph, [1, 3])
    assert not is_clique(toy_graph, [1, 2, 3])


def test_enumerate_cliques_toy(toy_graph):
    cl = enumerate_cliques(toy_graph)
    as_sets = [set(c) for c in cl]
    expected = [
        set(),
        {1},
        {2},
        {3},
        {4},
        {1, 2},
        {1, 4},
        {2, 4},
        {3, 4},
        {1, 2, 4},
    ]
    assert as_sets == expected
    assert clique_number(toy_graph) == 3


def test_enumerate_cliques_brute_force_agreement(rng):
    from itertools import combinations

    from .helpers import random_graph

    for _ in range(25):
        g = random_graph(rng, int(rng.integers(1, 6)))
        brute = [
            frozenset(c)
            for k in range(g.n + 1)
            for c in combinations(range(1, g.n + 1), k)
            if is_clique(g, c)
        ]
        assert sorted(enumerate_cliques(g), key=lambda s: (len(s), sorted(s))) == sorted(
            brute, key=lambda s: (len(s), sorted(s))
        )


def test_common_neighborhood(toy_graph):
    sub = Graph.from_edges(3, [(1, 2)])  # toy restricted to {1,2,3}
    assert common_neighborhood(sub, []) == frozenset({1, 2, 3})
    assert common_neighborhood(sub, [1]) == frozenset({2})
    assert common_neighborhood(toy_graph, [1, 2, 4]) == frozenset()
    assert common_neighborhood(toy_graph, [3]) == frozenset({4})
    with pytest.raises(NotAClique):
        common_neighborhood(toy_graph, [1, 3])


def test_clique_number_within(toy_graph):
    assert clique_number_within(toy_graph, [1, 2, 3]) == 2
    assert clique_number_within(toy_graph, [4]) == 1
    assert clique_number_within(toy_graph, []) == 0


def test_multipartite_structure(k221_graph):
    assert k221_graph.n == 5
    assert not k221_graph.has_edge(1, 2)
    assert not k221_graph.has_edge(3, 4)
    for i in (1, 2):
        for j in (3, 4, 5):
            assert k221_graph.has_edge(i, j)
    assert k221_graph.has_edge(3, 5)
    assert clique_number(k221_graph) == 3


def test_graph_json_roundtrip(toy_graph):
    doc = graph_to_json(toy_graph)
    assert doc == {"n": 4, "edges": [[1, 2], [1, 4], [2, 4], [3, 4]]}
    assert graph_from_json(doc) == toy_graph
    with pytest.raises(ValidationError):
        graph_from_json({"n": 2})
    with pytest.raises(ValidationError):
        graph_from_json({"n": 2, "edges": [], "extra": 1})
    with pytest.raises(ValidationError):
        graph_from_json([1, 2])
