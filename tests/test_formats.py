"""Edge-list, graph6, and DOT serialization."""
import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ricci_halin.formats import (
    GRAPH6_HEADER,
    detect_and_parse,
    from_graph6,
    parse_edge_list,
    to_dot,
    to_graph6,
    write_edge_list,
)
from ricci_halin.graph import Graph, GraphError

from oracles import random_connected_graph


def test_graph6_known_encodings():
    # K4 and the 5-wheel, as encoded by the reference tools
    k4 = Graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    assert to_graph6(k4) == b"C~"
    assert from_graph6(b"C~") == k4
    assert from_graph6("C~") == k4


def test_graph6_single_vertex():
    g = Graph(1, [])
    assert to_graph6(g) == b"@"
    assert from_graph6(b"@") == g


def test_graph6_header_accepted_on_input_only():
    k4 = from_graph6(b"C~")
    assert from_graph6(GRAPH6_HEADER + b"C~") == k4
    assert not to_graph6(k4).startswith(GRAPH6_HEADER)


def test_graph6_round_trip_random():
    rng = random.Random(5150)
    for _ in range(60):
        g = random_connected_graph(rng, rng.randint(1, 12), rng.randint(0, 10))
        assert from_graph6(to_graph6(g)) == g


def test_graph6_agrees_with_networkx():
    rng = random.Random(31)
    for _ in range(40):
        g = random_connected_graph(rng, rng.randint(2, 10), rng.randint(0, 9))
        # networkx encodes rows in node insertion order, so build the graph
        # with vertices 0..n-1 inserted before any edges.
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges())
        assert to_graph6(g) == nx.to_graph6_bytes(h, header=False).strip()
        back = nx.from_graph6_bytes(to_graph6(g))
        assert sorted(back.edges()) == g.edges()


def test_graph6_long_form_size_prefix():
    # 63 vertices needs the 4-byte size prefix
    g = Graph(63, [(i, i + 1) for i in range(62)])
    data = to_graph6(g)
    assert data[0] == 126
    assert from_graph6(data) == g
    h = nx.path_graph(63)
    assert data == nx.to_graph6_bytes(h, header=False).strip()


def test_graph6_rejects_garbage():
    with pytest.raises(GraphError):
        from_graph6(b"")
    with pytest.raises(GraphError):
        from_graph6(b"\x07\x7f")
    with pytest.raises(GraphError, match="body"):
        from_graph6(b"E~")  # promises 6 vertices, body truncated
    with pytest.raises(GraphError, match="size"):
        from_graph6(b"~A")


def test_edge_list_round_trip():
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 4)])
    assert parse_edge_list(write_edge_list(g)) == g


def test_edge_list_comments_and_whitespace():
    text = "# a 4-cycle\n4 4\n0 1\n\n  1 2\n2 3\n# last\n0 3\n"
    assert parse_edge_list(text) == Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])


@pytest.mark.parametrize(
    "text",
    [
        "",
        "#only comments\n",
        "3\n0 1\n",  # header not 'n m'
        "x y\n0 1\n",
        "3 2\n0 1\n",  # promises 2 edges, has 1
        "3 1\n0 1 2\n",  # bad edge line
        "3 1\n0 q\n",
        "3 1\n0 3\n",  # edge out of range (GraphError from Graph)
        "3 3\n0 1\n1 2\n1 0\n",  # repeated edge, reversed
    ],
)
def test_edge_list_rejects_malformed(text):
    with pytest.raises(GraphError):
        parse_edge_list(text)


def test_detect_and_parse_both_formats():
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert detect_and_parse(write_edge_list(g)) == g
    assert detect_and_parse(to_graph6(g).decode("ascii") + "\n") == g
    with pytest.raises(GraphError):
        detect_and_parse("   ")
    with pytest.raises(GraphError, match="more than one graph"):
        detect_and_parse("C~\nD]{\n")
    # comments and blank lines around a single graph6 line are fine
    assert detect_and_parse("# K4\n\nC~\n\n") == detect_and_parse("C~")


def test_dot_output_plain_and_labeled():
    g = Graph(3, [(0, 1), (1, 2), (0, 2)])
    plain = to_dot(g)
    assert plain.startswith("graph G {")
    assert "0 -- 1;" in plain and plain.rstrip().endswith("}")
    labeled = to_dot(g, {(0, 1): "3/2", (0, 2): "3/2", (1, 2): "3/2"})
    assert '0 -- 1 [label="3/2"];' in labeled


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_graph6_round_trip_property(data):
    n = data.draw(st.integers(min_value=1, max_value=14))
    seed = data.draw(st.integers(min_value=0, max_value=2**20))
    rng = random.Random(seed)
    g = random_connected_graph(rng, n, rng.randint(0, 2 * n))
    assert from_graph6(to_graph6(g)) == g
