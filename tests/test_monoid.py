import pytest

from raamkit import (
    EmptyInput,
    GraphMismatch,
    INFINITY,
    LevelTooLarge,
    NotDivisible,
    ball,
    complete_graph,
    element_literal,
    empty_graph,
    enumerate_norm_level,
    final_vertices,
    generator,
    identity,
    initial_vertices,
    is_finite,
    join_set,
    lcm,
    left_divides,
    left_quotient,
    multiply,
    normal_form,
    parse_element,
)

from .helpers import (
    clique_series_counts,
    lcm_oracle,
    left_divides_oracle,
    normal_form_oracle,
    random_graph,
    random_word,
)


def test_normal_form_basic(toy_graph):
    # 2 and 1 commute, so the least spelling starts with 1
    x = normal_form(toy_graph, [2, 1, 1])
    assert x.letters() == (1, 1, 2)
    assert x.syllables == ((1, 2), (2, 1))
    assert x.norm == 3
    assert x.length == 2
    # 3 and 1 do not commute: order is fixed
    y = normal_form(toy_graph, [3, 1])
    assert y.letters() == (3, 1)


def test_normal_form_identity(toy_graph):
    e = normal_form(toy_graph, [])
    assert e.is_identity
    assert e == identity(toy_graph)
    assert e.norm == 0 and e.length == 0
    assert repr(e) == "1"


def test_normal_form_agrees_with_orbit_minimum(rng):
    # full-orbit oracle is exponential, keep words short
    for _ in range(60):
        n = int(rng.integers(1, 6))
        g = random_graph(rng, n)
        w = random_word(rng, n, 6)
        assert normal_form(g, w).letters() == normal_form_oracle(g, w)


def test_normal_form_pinned_spellings(toy_graph):
    assert normal_form(toy_graph, [2, 1]).syllables == ((1, 1), (2, 1))
    assert normal_form(toy_graph, [1, 3]).syllables == ((1, 1), (3, 1))
    x = normal_form(toy_graph, [1, 1, 2])
    assert x.syllables == ((1, 2), (2, 1))
    assert x.length == 2 and x.norm == 3
    # idempotent: renormalizing the flattened spelling changes nothing
    assert normal_form(toy_graph, x.letters()) == x


def test_norm_additive_length_subadditive(rng):
    for _ in range(40):
        n = int(rng.integers(1, 6))
        g = random_graph(rng, n)
        x = normal_form(g, random_word(rng, n, 5))
        y = normal_form(g, random_word(rng, n, 5))
        xy = multiply(x, y)
        assert xy.norm == x.norm + y.norm
        assert xy.length <= x.length + y.length


def test_multiply_is_concatenation(toy_graph):
    a = normal_form(toy_graph, [3, 1])
    b = normal_form(toy_graph, [2])
    assert multiply(a, b).letters() == normal_form(toy_graph, [3, 1, 2]).letters()
    assert (a * b) == multiply(a, b)
    other = identity(empty_graph(2))
    with pytest.raises(GraphMismatch):
        multiply(a, other)


def test_initial_and_final_vertices(toy_graph):
    x = normal_form(toy_graph, [3, 4, 1])
    # 4 commutes with 3; 1 does not reach the front past 3
    assert initial_vertices(x) == frozenset({3, 4})
    assert final_vertices(x) == frozenset({1, 4})
    e = identity(toy_graph)
    assert initial_vertices(e) == frozenset()
    g1 = generator(toy_graph, 1)
    assert initial_vertices(g1) == final_vertices(g1) == frozenset({1})


def test_boundary_of_three_letter_word(toy_graph):
    # e2 slides past e1; e3 is blocked by e1 on the way forward and
    # nothing passes it on the way back
    x = normal_form(toy_graph, [1, 2, 3])
    assert initial_vertices(x) == frozenset({1, 2})
    assert final_vertices(x) == frozenset({3})


def test_left_divisibility(toy_graph):
    p = normal_form(toy_graph, [1])
    x = normal_form(toy_graph, [2, 1])  # normal form (1,2): 1 is initial
    assert left_divides(p, x)
    assert left_quotient(p, x) == normal_form(toy_graph, [2])
    q = normal_form(toy_graph, [3])
    assert not left_divides(q, x)
    with pytest.raises(NotDivisible):
        left_quotient(q, x)
    assert left_divides(identity(toy_graph), x)
    assert left_quotient(x, x).is_identity
    # 3 never surfaces at the front of e1 e3
    assert not left_divides(
        generator(toy_graph, 3), normal_form(toy_graph, [1, 3])
    )
    assert left_quotient(
        generator(toy_graph, 2), normal_form(toy_graph, [1, 2])
    ) == generator(toy_graph, 1)


def test_left_divides_against_factor_search(rng):
    for _ in range(40):
        n = int(rng.integers(1, 5))
        g = random_graph(rng, n)
        p = normal_form(g, random_word(rng, n, 3))
        x = normal_form(g, random_word(rng, n, 5))
        assert left_divides(p, x) == left_divides_oracle(p, x)


def test_lcm_free_and_commutative_extremes():
    free = empty_graph(2)
    a, b = generator(free, 1), generator(free, 2)
    assert lcm(a, b) is INFINITY
    assert lcm(a, a) == a
    assert is_finite(lcm(a, multiply(a, b)))

    full = complete_graph(2)
    c, d = generator(full, 1), generator(full, 2)
    j = lcm(c, d)
    assert is_finite(j)
    assert j.letters() == (1, 2)
    # lcm in the free abelian case is the coordinatewise max
    x = normal_form(full, [1, 1, 2])
    y = normal_form(full, [1, 2, 2, 2])
    assert lcm(x, y).letters() == (1, 1, 2, 2, 2)


def test_lcm_toy_examples(toy_graph):
    g1 = generator(toy_graph, 1)
    g3 = generator(toy_graph, 3)
    g4 = generator(toy_graph, 4)
    # 1 and 3 are non-adjacent: no common multiple
    assert lcm(g1, g3) is INFINITY
    # 3 and 4 are adjacent
    assert lcm(g3, g4).letters() == (3, 4)
    # identity is neutral
    assert lcm(identity(toy_graph), g3) == g3
    p = normal_form(toy_graph, [1, 2])
    q = normal_form(toy_graph, [2, 4])
    j = lcm(p, q)
    assert is_finite(j)
    assert left_divides(p, j) and left_divides(q, j)
    # two norm-2 words overlapping in e1 join into the triangle word
    assert lcm(
        normal_form(toy_graph, [1, 2]), normal_form(toy_graph, [1, 4])
    ).letters() == (1, 2, 4)


def test_lcm_norm_never_exceeds_sum(rng):
    for _ in range(80):
        n = int(rng.integers(1, 5))
        g = random_graph(rng, n)
        p = normal_form(g, random_word(rng, n, 4))
        q = normal_form(g, random_word(rng, n, 4))
        j = lcm(p, q)
        if is_finite(j):
            assert j.norm <= p.norm + q.norm
            assert left_divides(p, j) and left_divides(q, j)
            assert lcm(q, p) == j
        else:
            assert lcm(q, p) is INFINITY


def test_initial_letters_of_joinable_sets(rng):
    # when a finite join exists, a letter initial in one member is
    # initial in, or adjacent to all of, every other member
    from raamkit import neighbor_sets

    checked = 0
    for _ in range(120):
        n = int(rng.integers(2, 5))
        g = random_graph(rng, n)
        adj = neighbor_sets(g)
        fam = [normal_form(g, random_word(rng, n, 3)) for _ in range(3)]
        if not all(x.norm for x in fam):
            continue
        if not is_finite(join_set(fam)):
            continue
        checked += 1
        for x in fam:
            for i in initial_vertices(x):
                for y in fam:
                    ok = i in initial_vertices(y) or all(
                        v == i or v in adj[i] for v in y.vertex_support()
                    )
                    assert ok, (g, fam, i, y)
    assert checked > 5


def test_join_set(toy_graph):
    g1, g2, g4 = (generator(toy_graph, i) for i in (1, 2, 4))
    j = join_set([g1, g2, g4])
    assert is_finite(j) and j.norm == 3
    assert join_set([g1, generator(toy_graph, 3)]) is INFINITY
    with pytest.raises(EmptyInput):
        join_set([])


def test_level_counts_match_clique_series(toy_graph, k221_graph):
    for g in (toy_graph, k221_graph, empty_graph(2), complete_graph(3)):
        want = clique_series_counts(g, 5)
        got = [len(enumerate_norm_level(g, m)) for m in range(6)]
        assert got == want


def test_toy_level_sizes(toy_graph):
    assert [len(enumerate_norm_level(toy_graph, m)) for m in range(4)] == [
        1,
        4,
        12,
        33,
    ]


def test_ball_ordering_and_guard(toy_graph):
    b = ball(toy_graph, 2)
    assert len(b) == 17
    norms = [x.norm for x in b]
    assert norms == sorted(norms)
    assert len(set(b)) == len(b)
    with pytest.raises(LevelTooLarge):
        ball(toy_graph, 3, guard=10)


def test_ball_guard_fires_before_enumeration(toy_graph, monkeypatch):
    # the guard is exactly the ball through norm 5, so norm 6 must be
    # refused from the level sizes alone, before any word is normalised
    import raamkit.monoid as monoid

    guard = sum(clique_series_counts(toy_graph, 5))
    assert len(ball(toy_graph, 5, guard=guard)) == guard
    calls = []
    real = monoid.normal_form

    def counting(g, word):
        calls.append(word)
        return real(g, word)

    monkeypatch.setattr(monoid, "normal_form", counting)
    with pytest.raises(LevelTooLarge):
        ball(toy_graph, 6, guard=guard)
    assert calls == []


def test_word_layer_normalises_once(toy_graph, monkeypatch):
    # divisibility peels plain letter lists, quotient and lcm normalise
    # their answer once, and balls grow by the automaton alone
    import random

    import raamkit.monoid as monoid

    rnd = random.Random(4)
    w = [rnd.randint(1, 4) for _ in range(392)]
    p = normal_form(toy_graph, w + [rnd.choice((1, 2, 4)) for _ in range(8)])
    q = normal_form(toy_graph, w + [rnd.choice((1, 2, 4)) for _ in range(8)])
    assert p.norm == q.norm == 400
    calls = []
    real = monoid.normal_form

    def counting(g, word):
        calls.append(len(word))
        return real(g, word)

    monkeypatch.setattr(monoid, "normal_form", counting)
    assert left_divides(p, p) and not left_divides(p, q)
    assert calls == []
    j = lcm(p, q)
    assert is_finite(j) and len(calls) == 1
    assert left_divides(p, j) and left_divides(q, j)
    assert len(calls) == 1
    y = left_quotient(p, j)
    assert len(calls) == 2
    assert real(toy_graph, p.letters() + y.letters()) == j

    calls.clear()
    monoid._levels.cache_clear()
    b = ball(toy_graph, 8)
    assert calls == []
    by_norm = [sum(1 for x in b if x.norm == m) for m in range(9)]
    assert by_norm == clique_series_counts(toy_graph, 8)
    assert b == sorted(b, key=lambda x: (x.norm, x.letters()))
    assert all(real(toy_graph, x.letters()) == x for x in b)


def test_lcm_oracle_agreement_small(toy_graph):
    elems = ball(toy_graph, 2)
    for p in elems:
        for q in elems:
            assert lcm(p, q) == lcm_oracle(p, q)


def test_parse_and_literal(toy_graph):
    x = parse_element(toy_graph, "g2 g1 g1")
    assert x.letters() == (1, 1, 2)
    assert parse_element(toy_graph, "id").is_identity
    assert parse_element(toy_graph, element_literal(x)) == x
    from raamkit import BadVertex, ParseError

    with pytest.raises(BadVertex):
        parse_element(toy_graph, "g9")
    with pytest.raises(ParseError):
        parse_element(toy_graph, "banana")


def test_repr_shows_powers(toy_graph):
    x = normal_form(toy_graph, [1, 1, 2])
    assert repr(x) == "e1^2 e2"
