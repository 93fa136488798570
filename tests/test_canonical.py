"""Canonical labeling: relabeling invariance and isomorphism decisions."""
import random

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from ricci_halin.canonical import are_isomorphic, canonical_form
from ricci_halin.formats import from_graph6
from ricci_halin.graph import Graph
from ricci_halin.halin import wheel

from oracles import random_connected_graph


def relabel(g, perm):
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def test_canonical_form_invariant_under_relabeling():
    rng = random.Random(404)
    for _ in range(60):
        g = random_connected_graph(rng, rng.randint(2, 9), rng.randint(0, 8))
        perm = list(range(g.n))
        rng.shuffle(perm)
        assert canonical_form(relabel(g, perm)) == canonical_form(g)


def test_canonical_graph_is_isomorphic_and_idempotent():
    rng = random.Random(405)
    for _ in range(30):
        g = random_connected_graph(rng, rng.randint(2, 9), rng.randint(0, 8))
        c = from_graph6(canonical_form(g))
        assert nx.is_isomorphic(nx.Graph(g.edges()), nx.Graph(c.edges()))
        assert canonical_form(c) == canonical_form(g)
        assert from_graph6(canonical_form(c)) == c


def test_isomorphism_decisions_match_networkx():
    rng = random.Random(406)
    graphs = [
        random_connected_graph(rng, rng.randint(4, 7), rng.randint(0, 6))
        for _ in range(25)
    ]
    for a in graphs:
        for b in graphs:
            expected = nx.is_isomorphic(nx.Graph(a.edges()), nx.Graph(b.edges()))
            if a.n == b.n:
                assert are_isomorphic(a, b) == expected
            else:
                assert not are_isomorphic(a, b)
                assert not expected


def test_wheel_rim_rotation_has_one_canonical_form():
    base = wheel(8).graph
    forms = set()
    for shift in range(7):
        perm = [0] + [1 + (i + shift) % 7 for i in range(7)]
        forms.add(canonical_form(relabel(base, perm)))
    assert len(forms) == 1


def test_distinguishes_cubic_graphs_with_equal_degree_sequence():
    # the two connected cubic graphs on 6 vertices: prism vs K_{3,3}
    prism = Graph(
        6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)]
    )
    k33 = Graph(6, [(i, j) for i in range(3) for j in range(3, 6)])
    assert canonical_form(prism) != canonical_form(k33)
    assert not are_isomorphic(prism, k33)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_relabeling_invariance_property(data):
    n = data.draw(st.integers(min_value=2, max_value=9))
    seed = data.draw(st.integers(min_value=0, max_value=2**20))
    rng = random.Random(seed)
    g = random_connected_graph(rng, n, rng.randint(0, n))
    perm = data.draw(st.permutations(range(n)))
    assert canonical_form(relabel(g, list(perm))) == canonical_form(g)
