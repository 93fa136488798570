"""Graph construction, metrics, and the C3/C4 edge test."""
import random

import networkx as nx
import pytest

from ricci_halin.graph import (
    Graph,
    GraphError,
    edge_in_c3_or_c4,
    normalize_edge,
    require_edge,
)

from oracles import edge_in_c3_c4_exhaustive, random_connected_graph


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def test_normalize_edge_orders_endpoints():
    assert normalize_edge(3, 1) == (1, 3)
    assert normalize_edge(1, 3) == (1, 3)
    with pytest.raises(GraphError):
        normalize_edge(2, 2)


def test_rejects_nonpositive_vertex_count():
    with pytest.raises(GraphError):
        Graph(0, [])
    with pytest.raises(GraphError):
        Graph(-2, [])


def test_rejects_out_of_range_edge():
    with pytest.raises(GraphError, match="out of range"):
        Graph(3, [(0, 3)])


def test_rejects_self_loop():
    with pytest.raises(GraphError, match="self-loop"):
        Graph(3, [(0, 0), (0, 1), (1, 2)])


def test_rejects_disconnected():
    with pytest.raises(GraphError, match="disconnected"):
        Graph(4, [(0, 1), (2, 3)])
    with pytest.raises(GraphError, match="disconnected"):
        Graph(2, [])


def test_single_vertex_is_connected():
    g = Graph(1, [])
    assert g.n == 1 and g.num_edges() == 0
    assert g.dist == ((0,),)


def test_duplicate_and_reversed_edges_collapse():
    g = Graph(3, [(0, 1), (1, 0), (1, 2), (1, 2), (2, 1)])
    assert g.num_edges() == 2
    assert g.adj == ((1,), (0, 2), (1,))


def test_adjacency_is_sorted():
    g = Graph(4, [(3, 0), (2, 0), (1, 0)])
    assert g.adj[0] == (1, 2, 3)
    assert g.degree(0) == 3 and g.degree(2) == 1
    assert g.max_degree() == 3


def test_has_edge_bounds():
    g = cycle(4)
    assert g.has_edge(0, 1) and g.has_edge(1, 0)
    assert not g.has_edge(0, 2)
    assert not g.has_edge(0, 0)
    assert not g.has_edge(-1, 2)


def test_edges_listing_round_trips():
    g = cycle(5)
    assert g.edges() == [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)]
    assert Graph(5, g.edges()) == g


def test_distances_on_cycle():
    g = cycle(6)
    assert g.dist[0][3] == 3
    assert g.dist[1][5] == 2
    assert g.diameter() == 3


def test_neighbor_mask_matches_adjacency():
    g = cycle(5)
    for v in range(5):
        assert g.neighbor_mask(v) == sum(1 << w for w in g.adj[v])


def test_equality_and_hash_follow_structure():
    a = cycle(4)
    b = Graph(4, [(1, 0), (2, 1), (3, 2), (0, 3)])
    c = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])
    assert a == b and hash(a) == hash(b)
    assert a != c
    assert a != "C4"


def test_distances_match_networkx_on_random_graphs():
    rng = random.Random(20240)
    for _ in range(40):
        g = random_connected_graph(rng, rng.randint(2, 9), rng.randint(0, 8))
        h = nx.Graph(g.edges())
        h.add_nodes_from(range(g.n))
        lengths = dict(nx.all_pairs_shortest_path_length(h))
        for u in range(g.n):
            for v in range(g.n):
                assert g.dist[u][v] == lengths[u][v]


def test_require_edge_accepts_and_rejects():
    g = cycle(4)
    assert require_edge(g, (2, 1)) == (2, 1)
    with pytest.raises(GraphError, match="not an edge"):
        require_edge(g, (0, 2))
    with pytest.raises(GraphError):
        require_edge(g, (0, 1, 2))


def test_c3c4_membership_hand_cases():
    triangle = Graph(3, [(0, 1), (1, 2), (0, 2)])
    assert edge_in_c3_or_c4(triangle, (0, 1))
    assert edge_in_c3_or_c4(cycle(4), (0, 1))
    assert not edge_in_c3_or_c4(cycle(5), (0, 1))
    star = Graph(4, [(0, 1), (0, 2), (0, 3)])
    assert not edge_in_c3_or_c4(star, (0, 1))


def test_c3c4_membership_matches_exhaustive_scan():
    rng = random.Random(99)
    for _ in range(150):
        g = random_connected_graph(rng, rng.randint(3, 8), rng.randint(0, 8))
        for e in g.edges():
            assert edge_in_c3_or_c4(g, e) == edge_in_c3_c4_exhaustive(g, e)
