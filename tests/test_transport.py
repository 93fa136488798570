"""Exact Wasserstein distances, measures, and coupling validation."""
import random
from fractions import Fraction

import pytest

from ricci_halin.graph import Graph
from ricci_halin.halin import wheel
from ricci_halin.transport import (
    Measure,
    TransportError,
    check_coupling,
    coupling_cost,
    vertex_measure,
    wasserstein,
)

from oracles import (
    random_connected_graph,
    random_measure,
    wasserstein_exhaustive,
    wasserstein_network_simplex,
)

F = Fraction


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def test_measure_validation():
    with pytest.raises(TransportError, match="negative"):
        Measure({0: F(-1, 2), 1: F(3, 2)})
    with pytest.raises(TransportError, match="total"):
        Measure({0: F(1, 2), 1: F(1, 3)})
    m = Measure({0: F(1, 2), 1: F(1, 2), 2: 0})
    assert m.support() == (0, 1)
    assert m[2] == 0 and m[99] == 0
    assert m.items() == [(0, F(1, 2)), (1, F(1, 2))]


def test_measure_equality_ignores_zero_entries():
    assert Measure({0: 1, 1: 0}) == Measure({0: F(2, 2)})


def test_vertex_measure_values():
    g = wheel(5).graph
    m = vertex_measure(g, 0, F(1, 5))
    assert m[0] == F(1, 5)
    for z in g.adj[0]:
        assert m[z] == F(1, 5)
    assert vertex_measure(g, 1, 1) == Measure({1: 1})
    m0 = vertex_measure(g, 1, 0)
    assert m0[1] == 0 and m0[0] == F(1, 3)


def test_vertex_measure_rejects_bad_alpha_and_vertex():
    g = cycle(4)
    with pytest.raises(TransportError):
        vertex_measure(g, 0, F(3, 2))
    with pytest.raises(TransportError):
        vertex_measure(g, 0, -1)
    with pytest.raises(TransportError):
        vertex_measure(g, 7, F(1, 2))


def test_wasserstein_point_masses_is_distance():
    g = cycle(6)
    for u in range(6):
        for v in range(6):
            r = wasserstein(g, Measure({u: 1}), Measure({v: 1}))
            assert r.cost == g.dist[u][v]


def test_wasserstein_identical_measures_cost_zero():
    g = wheel(6).graph
    m = vertex_measure(g, 0, F(1, 3))
    r = wasserstein(g, m, m)
    assert r.cost == 0
    assert all(u == v for u, v, _ in r.plan)


def test_wasserstein_hand_instance():
    # move 1/2 across a path of length 2, keep 1/2 in place
    g = Graph(3, [(0, 1), (1, 2)])
    mu = Measure({0: F(1, 2), 1: F(1, 2)})
    nu = Measure({1: F(1, 2), 2: F(1, 2)})
    r = wasserstein(g, mu, nu)
    assert r.cost == F(1, 2) + F(1, 2)  # 0->1 plus 1->2, or 0->2 direct
    assert check_coupling(g, mu, nu, r.plan) == r.cost


def test_wheel5_hub_measures_at_quarter():
    # the lazy measures of the 5-wheel's hub edge at idleness 1/4: the
    # optimal plan keeps 1/4+3/16 in place and pays exactly 1/4
    g = wheel(5).graph
    mu = vertex_measure(g, 0, F(1, 4))
    nu = vertex_measure(g, 1, F(1, 4))
    r = wasserstein(g, mu, nu)
    assert r.cost == F(1, 4)


def test_wasserstein_matches_exhaustive_enumeration():
    rng = random.Random(1234)
    for _ in range(60):
        g = random_connected_graph(rng, rng.randint(2, 7), rng.randint(0, 6))
        mu = random_measure(rng, g, 3, 4)
        nu = random_measure(rng, g, 3, 4)
        assert wasserstein(g, mu, nu).cost == wasserstein_exhaustive(g, mu, nu)


def test_wasserstein_matches_network_simplex():
    rng = random.Random(4321)
    for _ in range(80):
        g = random_connected_graph(rng, rng.randint(2, 10), rng.randint(0, 10))
        mu = random_measure(rng, g, 5, 12)
        nu = random_measure(rng, g, 5, 12)
        assert wasserstein(g, mu, nu).cost == wasserstein_network_simplex(
            g, mu, nu
        )


def test_wasserstein_symmetry_and_triangle_inequality():
    rng = random.Random(777)
    for _ in range(25):
        g = random_connected_graph(rng, rng.randint(3, 8), rng.randint(0, 6))
        mu = random_measure(rng, g, 4, 6)
        nu = random_measure(rng, g, 4, 6)
        rho = random_measure(rng, g, 4, 6)
        d_mn = wasserstein(g, mu, nu).cost
        assert d_mn == wasserstein(g, nu, mu).cost
        assert d_mn <= wasserstein(g, mu, rho).cost + wasserstein(g, rho, nu).cost


def test_returned_plan_is_a_coupling_with_matching_cost():
    rng = random.Random(3141)
    for _ in range(40):
        g = random_connected_graph(rng, rng.randint(2, 8), rng.randint(0, 8))
        mu = random_measure(rng, g, 4, 6)
        nu = random_measure(rng, g, 4, 6)
        r = wasserstein(g, mu, nu)
        assert check_coupling(g, mu, nu, r.plan) == r.cost
        assert all(m > 0 for _, _, m in r.plan)


def test_check_coupling_rejects_wrong_marginals():
    g = cycle(4)
    mu = Measure({0: F(1, 2), 1: F(1, 2)})
    nu = Measure({2: 1})
    good = [(0, 2, F(1, 2)), (1, 2, F(1, 2))]
    assert check_coupling(g, mu, nu, good) == F(1, 2) * 2 + F(1, 2)
    with pytest.raises(TransportError, match="marginal"):
        check_coupling(g, mu, nu, [(0, 2, 1)])
    with pytest.raises(TransportError, match="marginal"):
        check_coupling(g, mu, nu, [(0, 2, F(1, 2)), (1, 3, F(1, 2))])


def test_check_coupling_ignores_explicit_zero_entries():
    g = cycle(4)
    mu = Measure({0: 1})
    nu = Measure({1: 1})
    plan = [(0, 1, F(1)), (3, 2, F(0))]
    assert check_coupling(g, mu, nu, plan) == 1


def test_coupling_cost_validation():
    g = cycle(4)
    with pytest.raises(TransportError, match="missing vertex"):
        coupling_cost(g, [(0, 9, F(1))])
    with pytest.raises(TransportError, match="negative"):
        coupling_cost(g, [(0, 1, F(-1, 2))])
