"""Edge curvature: primal transport route, dual oracle, degree bound."""
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ricci_halin.curvature import (
    DEFAULT_ORACLE_THRESHOLD,
    CurvatureError,
    OracleInfeasibleError,
    c3c4_upper_bound,
    critical_alpha,
    curvature_report,
    kappa_alpha,
    kappa_lly,
    kappa_lly_dual,
    lipschitz_certificate,
)
from ricci_halin.graph import Graph, GraphError
from ricci_halin.halin import wheel

from oracles import (
    dual_exhaustive,
    random_connected_graph,
    random_halin_graph,
    random_tree,
)

F = Fraction


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n):
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


PETERSEN = Graph(
    10,
    [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (5, 7), (7, 9), (9, 6), (6, 8),
     (8, 5), (0, 5), (1, 6), (2, 7), (3, 8), (4, 9)],
)

# exact values confirmed against the exhaustive dual oracle
KNOWN_CURVATURES = [
    (complete(2), (0, 1), F(2)),
    (complete(3), (0, 1), F(3, 2)),
    (complete(4), (0, 1), F(4, 3)),
    (cycle(4), (0, 1), F(1)),
    (cycle(5), (0, 1), F(1, 2)),
    (cycle(6), (0, 1), F(0)),
    (cycle(7), (0, 1), F(0)),
    (Graph(4, [(0, 1), (0, 2), (0, 3)]), (0, 1), F(2, 3)),  # K_{1,3}
    (Graph(4, [(0, 1), (1, 2), (2, 3)]), (0, 1), F(1)),  # path end
    (Graph(4, [(0, 1), (1, 2), (2, 3)]), (1, 2), F(0)),  # path middle
    (PETERSEN, (0, 1), F(0)),
]


@pytest.mark.parametrize("g,e,expected", KNOWN_CURVATURES)
def test_known_curvatures_primal(g, e, expected):
    assert kappa_lly(g, e) == expected


@pytest.mark.parametrize("g,e,expected", KNOWN_CURVATURES)
def test_known_curvatures_dual(g, e, expected):
    assert kappa_lly_dual(g, e) == expected


def test_critical_alpha_uses_larger_degree():
    g = wheel(6).graph  # hub degree 5, rim degree 3
    assert critical_alpha(g, (0, 1)) == F(1, 6)
    assert critical_alpha(g, (1, 2)) == F(1, 4)


def test_kappa_alpha_endpoints():
    g = cycle(5)
    assert kappa_alpha(g, (0, 1), 1) == 0  # point masses at distance 1
    assert kappa_alpha(g, (0, 1), F(1, 3)) == F(1, 3)


def test_kappa_alpha_rejects_bad_input():
    g = cycle(5)
    with pytest.raises(CurvatureError):
        kappa_alpha(g, (0, 1), F(5, 4))
    with pytest.raises(CurvatureError):
        kappa_alpha(g, (0, 1), F(-1, 4))
    with pytest.raises(Exception):
        kappa_alpha(g, (0, 2), F(1, 2))  # not an edge


@pytest.mark.parametrize(
    "e,alpha",
    [((0, 1), 0.1), ((0, 1), 1.0), ((True, 2), F(1, 2)), ((0, 1.0), F(1, 2))],
)
def test_kappa_alpha_refuses_floats_and_non_int_ids(e, alpha):
    # 0.1 used to spread 3602879701896397/36028797018963968
    with pytest.raises(CurvatureError):
        kappa_alpha(cycle(5), e, alpha)


@pytest.mark.parametrize("e", [(0, 1.0), (True, 2), (1, False)])
def test_every_edge_query_refuses_float_and_bool_ids(e):
    g = wheel(5).graph
    with pytest.raises(CurvatureError, match="vertex ids must be ints"):
        kappa_lly(g, e)
    queries = (kappa_lly_dual, lipschitz_certificate, c3c4_upper_bound,
               critical_alpha)
    for query in queries:
        with pytest.raises(GraphError, match="vertex ids must be ints"):
            query(g, e)


def test_transport_route_refuses_a_non_edge_as_a_curvature_error():
    g = wheel(5).graph
    for query in (kappa_lly, lambda g, e: kappa_alpha(g, e, F(1, 2))):
        with pytest.raises(CurvatureError, match=r"\(1,3\) is not an edge"):
            query(g, (1, 3))
        with pytest.raises(CurvatureError, match="not an edge pair"):
            query(g, (1,))


def test_kappa_alpha_accepts_int_fraction_and_str_alpha():
    g = cycle(5)
    assert kappa_alpha(g, (0, 1), "1/3") == kappa_alpha(g, [0, 1], F(1, 3))
    assert kappa_alpha(g, (0, 1), 1) == 0


def test_wheel5_hub_alpha_quarter():
    g = wheel(5).graph
    assert kappa_alpha(g, (0, 1), F(1, 4)) == F(3, 4)
    assert kappa_lly(g, (0, 1)) == 1


def test_ratio_is_constant_above_the_critical_idleness():
    g = wheel(6).graph
    for e in [(0, 1), (1, 2)]:
        k = kappa_lly(g, e)
        floor = critical_alpha(g, e)
        for alpha in [floor, F(1, 3), F(1, 2), F(2, 3), F(9, 10)]:
            if alpha < floor:
                continue
            assert kappa_alpha(g, e, alpha) / (1 - alpha) == k


def test_primal_equals_dual_on_random_graphs():
    rng = random.Random(2718)
    for _ in range(60):
        g = random_connected_graph(rng, rng.randint(3, 8), rng.randint(0, 8))
        for e in g.edges():
            assert kappa_lly(g, e) == kappa_lly_dual(g, e)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_primal_equals_dual_property(data):
    n = data.draw(st.integers(min_value=2, max_value=10))
    seed = data.draw(st.integers(min_value=0, max_value=2**20))
    rng = random.Random(seed)
    g = random_connected_graph(rng, n, rng.randint(0, 2 * n))
    for x, y in g.edges():
        if g.degree(x) + g.degree(y) <= DEFAULT_ORACLE_THRESHOLD:
            assert kappa_lly(g, (x, y)) == kappa_lly_dual(g, (x, y))


def test_dual_matches_brute_force_enumeration():
    rng = random.Random(161803)
    for _ in range(25):
        g = random_connected_graph(rng, rng.randint(3, 7), rng.randint(0, 5))
        e = rng.choice(g.edges())
        assert kappa_lly_dual(g, e) == dual_exhaustive(g, e)


def test_widening_the_dual_value_range_changes_nothing():
    # the optimum is attained with values in [-2, 2]; searching [-3, 3]
    # must agree
    cases = [(wheel(6).graph, (0, 1)), (wheel(6).graph, (1, 2)),
             (cycle(6), (0, 1)), (PETERSEN, (0, 1))]
    rng = random.Random(55)
    for _ in range(15):
        g = random_connected_graph(rng, rng.randint(3, 6), rng.randint(0, 4))
        cases.append((g, rng.choice(g.edges())))
    for g, e in cases:
        assert dual_exhaustive(g, e, 2) == dual_exhaustive(g, e, 3)
        assert kappa_lly_dual(g, e) == dual_exhaustive(g, e, 3)


def test_dual_threshold_guard():
    g13 = wheel(13).graph  # hub degree 12 + rim degree 3 = 15
    with pytest.raises(OracleInfeasibleError, match="threshold"):
        kappa_lly_dual(g13, (0, 1))
    assert kappa_lly_dual(g13, (0, 1), threshold=15) == 0
    g12 = wheel(12).graph  # degree sum 14 sits exactly at the default
    assert kappa_lly_dual(g12, (0, 1)) == kappa_lly(g12, (0, 1))
    with pytest.raises(OracleInfeasibleError):
        kappa_lly_dual(wheel(5).graph, (0, 1), threshold=5)


def test_wheel_boundary_values():
    assert kappa_lly(wheel(12).graph, (0, 1)) == F(2, 33)
    assert kappa_lly(wheel(13).graph, (0, 1)) == 0
    assert kappa_lly(wheel(13).graph, (1, 2)) == F(2, 3)


def test_c3c4_bound_none_on_short_cycles():
    assert c3c4_upper_bound(complete(3), (0, 1)) is None
    assert c3c4_upper_bound(cycle(4), (0, 1)) is None
    assert c3c4_upper_bound(wheel(7).graph, (0, 1)) is None


def test_c3c4_bound_values():
    star = Graph(4, [(0, 1), (0, 2), (0, 3)])
    assert c3c4_upper_bound(star, (0, 1)) == F(2, 3)
    assert kappa_lly(star, (0, 1)) == F(2, 3)  # bound is tight here
    p4 = Graph(4, [(0, 1), (1, 2), (2, 3)])
    assert c3c4_upper_bound(p4, (1, 2)) == F(1, 2)
    assert kappa_lly(p4, (1, 2)) == 0  # and strict here
    assert c3c4_upper_bound(cycle(5), (0, 1)) == F(1, 2)
    assert c3c4_upper_bound(PETERSEN, (0, 1)) == 0


def test_c3c4_bound_rejects_a_non_edge():
    with pytest.raises(GraphError, match=r"\(0,2\) is not an edge"):
        c3c4_upper_bound(cycle(5), (0, 2))
    with pytest.raises(GraphError, match="not an edge pair"):
        c3c4_upper_bound(cycle(5), (0,))


def test_c3c4_bound_dominates_curvature_on_random_trees():
    rng = random.Random(424242)
    for _ in range(40):
        g = random_tree(rng, rng.randint(4, 10))
        for e in g.edges():
            bound = c3c4_upper_bound(g, e)
            assert bound is not None  # trees have no cycles at all
            assert kappa_lly(g, e) <= bound


def test_curvature_report_structure():
    g = wheel(5).graph
    rep = curvature_report(g)
    assert [e for e, _ in rep.edge_curvature] == g.edges()
    assert rep.min_curvature == 1
    assert rep.positively_curved
    assert rep.as_dict()[(0, 1)] == 1

    rep6 = curvature_report(cycle(6))
    assert rep6.min_curvature == 0
    assert not rep6.positively_curved

    with pytest.raises(CurvatureError):
        curvature_report(Graph(1, []))


@pytest.mark.parametrize(
    "build",
    [lambda: random_halin_graph(300, 1), lambda: complete(8), lambda: wheel(6).graph],
    ids=["halin300", "K8", "W6"],
)
def test_memo_hits_equal_fresh_solves(build):
    # each graph keeps the optimum of every distinct local problem solved
    # on it; a memo hit must give what a graph with an empty memo gives
    g = build()
    report = curvature_report(g)
    # every degree sum here is within the dual's threshold
    duals = {e: kappa_lly_dual(g, e) for e in g.edges()}
    for e, k in report.edge_curvature:
        # a new graph has an empty memo, and the two solvers' keys differ
        fresh = Graph(g.n, g.edges())
        assert kappa_lly(fresh, e) == kappa_lly(g, e) == k
        assert kappa_lly_dual(fresh, e) == duals[e] == k
    assert len(g._memo) < g.num_edges()


def test_an_empty_residual_is_not_solved():
    # on K_8 the two lazy measures at the critical idleness are equal, so
    # no mass moves on any edge and nothing is kept
    g = complete(8)
    assert curvature_report(g).min_curvature == F(8, 7)
    assert g._memo == {}
