"""Property tests of the word layer against the independent oracles.

Random graphs on up to six vertices, words of up to nine letters and
balls through norm four.  The oracles enumerate shuffle orbits and
balls, so the divisibility
and lcm cases are drawn to keep the enumerated gap short: divisors
are prefixes of a shuffled spelling, and lcm is checked on long words
w a, w b through left cancellation, lcm(w a, w b) = w lcm(a, b).
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from raamkit import (
    INFINITY,
    Graph,
    ball,
    is_finite,
    lcm,
    left_divides,
    left_quotient,
    multiply,
    normal_form,
)

from .helpers import (
    clique_series_counts,
    lcm_oracle,
    left_divides_oracle,
    normal_form_oracle,
    shuffle_orbit,
)

MAX_LETTERS = 9
MAX_GAP = 3
BALL_NORM = 4


def draw_graph(data) -> Graph:
    n = data.draw(st.integers(1, 6), label="n")
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    keep = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph.from_edges(n, [p for p, k in zip(pairs, keep) if k])


def draw_word(data, g: Graph, lo: int, hi: int) -> tuple[int, ...]:
    return tuple(data.draw(st.lists(st.integers(1, g.n), min_size=lo, max_size=hi)))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_normal_form_is_orbit_minimum(data):
    g = draw_graph(data)
    w = draw_word(data, g, 0, MAX_LETTERS)
    assert normal_form(g, w).letters() == normal_form_oracle(g, w)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_ball_is_every_orbit_minimum_once(data):
    g = draw_graph(data)
    b = ball(g, BALL_NORM)
    words = [x.letters() for x in b]
    assert [sum(1 for w in words if len(w) == m) for m in range(BALL_NORM + 1)] == (
        clique_series_counts(g, BALL_NORM)
    )
    assert len(set(words)) == len(words)
    assert words == sorted(words, key=lambda w: (len(w), w))
    assert all(normal_form_oracle(g, w) == w for w in words)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_left_divides_and_quotient_match_factor_search(data):
    g = draw_graph(data)
    w = draw_word(data, g, 0, MAX_LETTERS)
    z = normal_form(g, w)
    cut = data.draw(st.integers(max(0, len(w) - MAX_GAP), len(w)), label="cut")
    if data.draw(st.booleans(), label="true divisor"):
        # a prefix of some spelling of z always divides it
        spelling = data.draw(st.sampled_from(sorted(shuffle_orbit(g, w))))
        x = normal_form(g, spelling[:cut])
    else:
        x = normal_form(g, draw_word(data, g, cut, cut))
    divides = left_divides(x, z)
    assert divides == left_divides_oracle(x, z)
    if divides:
        assert multiply(x, left_quotient(x, z)) == z


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_lcm_matches_enumeration_oracle(data):
    g = draw_graph(data)
    a = normal_form(g, draw_word(data, g, 0, 2))
    b = normal_form(g, draw_word(data, g, 0, 2))
    w = normal_form(g, draw_word(data, g, 0, MAX_LETTERS - 2))
    want = lcm_oracle(a, b)
    assert lcm(a, b) == want
    got = lcm(multiply(w, a), multiply(w, b))
    if is_finite(want):
        assert got == multiply(w, want)
    else:
        assert got is INFINITY
