"""Exact Wasserstein distances, measures, and coupling validation."""
import random
from fractions import Fraction
from itertools import combinations
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ricci_halin.graph import Graph
from ricci_halin.halin import wheel
from ricci_halin.transport import (
    Measure,
    TransportError,
    _min_cost_flow,
    check_coupling,
    coupling_cost,
    vertex_measure,
    wasserstein,
)

from oracles import (
    check_transport_dual,
    cost_classes,
    random_connected_graph,
    random_gnp_graph,
    random_measure,
    transportation_network_simplex,
    vertex_measure_by_definition,
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


@pytest.mark.parametrize(
    "mass",
    [
        {1.5: 1},  # used to become a point mass at vertex 1
        {"2": 1},
        {True: 1},
        {0: F(1, 2), None: F(1, 2)},
        {0: 0.5, 1: 0.5},  # a float mass
        {0: F(1, 2), 1: 0.5},
    ],
)
def test_measure_refuses_floats_and_non_int_ids(mass):
    with pytest.raises(TransportError):
        Measure(mass)


def test_vertex_measure_refuses_floats_and_non_int_ids():
    g = cycle(4)
    for x, alpha in [(1, 0.1), (1, 0.5), (1, 1.0), (True, F(1, 2)), (1.0, 0)]:
        with pytest.raises(TransportError):
            vertex_measure(g, x, alpha)


def test_measure_accepts_int_fraction_and_str_masses():
    m = Measure({0: "1/2", 1: F(1, 4), 2: "1/4", 3: 0})
    assert m == Measure({0: F(2, 4), 1: F(1, 4), 2: F(1, 4)})
    assert Measure({5: 1}).items() == [(5, F(1))]
    g = cycle(4)
    assert vertex_measure(g, 1, "1/3") == vertex_measure(g, 1, F(1, 3))


def test_vertex_measure_reduces_by_the_gcd():
    # alpha = 1/3 at a degree-2 vertex: 2/6 at x and 2/6 at each
    # neighbour, held as 1 + 1 + 1 over 3
    m = vertex_measure(cycle(5), 0, F(1, 3))
    assert m._den == 3 and m._num == {0: 1, 1: 1, 4: 1}
    assert m == Measure({0: F(1, 3), 1: F(1, 3), 4: F(1, 3)})
    # alpha = 0 leaves x out, and alpha = 1 is the point mass
    assert vertex_measure(cycle(5), 0, 0).support() == (1, 4)
    assert vertex_measure(cycle(5), 0, 1)._num == {0: 1}


ALPHAS = st.one_of(
    st.sampled_from([F(0), F(1)]),
    st.integers(1, 12).flatmap(
        lambda q: st.integers(0, q).map(lambda p: F(p, q))
    ),
)


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 12),
    alpha=ALPHAS,
    as_str=st.booleans(),
)
def test_vertex_measure_matches_definition(seed, n, alpha, as_str):
    rng = random.Random(seed)
    g = random_connected_graph(rng, n, rng.randint(0, n))
    x = rng.randrange(n)
    m = vertex_measure(g, x, str(alpha) if as_str else alpha)
    want = vertex_measure_by_definition(g, x, alpha)
    assert [m[v] for v in range(n + 2)] == [want.get(v, 0) for v in range(n + 2)]
    assert m.support() == tuple(sorted(want))
    assert m.items() == sorted(want.items())
    assert m == Measure(want) and Measure(want) == m
    # the denominator is the least one, so == compares exact values
    assert m._den == lcm(*(f.denominator for f in want.values()))
    assert all(k > 0 for k in m._num.values())
    assert sum(m._num.values()) == m._den


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


def test_kernel_prices_backward_arcs_from_far_demands():
    # a demand filled in an early phase can lie beyond a later phase's
    # distance; cutting the potentials there at that distance would give
    # a backward arc a negative reduced cost, and the kernel 46 here
    cost = [
        [6, 7, 8, 6, 8, 4, 4, 6],
        [2, 2, 7, 3, 3, 4, 6, 3],
        [2, 5, 7, 5, 8, 7, 1, 3],
        [5, 8, 6, 5, 4, 9, 2, 7],
        [9, 9, 8, 6, 3, 8, 6, 7],
        [8, 4, 8, 3, 8, 6, 3, 6],
    ]
    supply = [1, 2, 6, 1, 1, 1]
    demand = [1, 1, 1, 2, 2, 3, 1, 1]
    assert transportation_network_simplex(cost, supply, demand) == 45
    assert _min_cost_flow(cost_classes(cost), supply, demand)[0] == 45


def test_kernel_matches_network_simplex_on_random_costs():
    # costs up to 9 make many phases and reroute flow along backward arcs
    rng = random.Random(97)
    for _ in range(600):
        ns, nd = rng.randint(1, 8), rng.randint(1, 8)
        cost = [[rng.randint(1, 9) for _ in range(nd)] for _ in range(ns)]
        supply = [rng.randint(1, 9) for _ in range(ns)]
        demand = [rng.randint(1, 9) for _ in range(nd)]
        excess = sum(supply) - sum(demand)
        if excess > 0:
            demand[-1] += excess
        else:
            supply[-1] -= excess
        total, carried, _ = _min_cost_flow(cost_classes(cost), supply, demand)
        assert total == transportation_network_simplex(cost, supply, demand)
        shipped = [0] * ns
        for j, flows in enumerate(carried):
            assert sum(flows.values()) == demand[j]
            for i, amount in flows.items():
                assert amount > 0
                shipped[i] += amount
        assert shipped == supply
        assert total == sum(
            cost[i][j] * amount
            for j, flows in enumerate(carried)
            for i, amount in flows.items()
        )


def test_kernel_labels_are_an_optimal_dual_on_random_costs():
    # the instances of test_kernel_matches_network_simplex_on_random_costs
    rng = random.Random(97)
    for _ in range(600):
        ns, nd = rng.randint(1, 8), rng.randint(1, 8)
        cost = [[rng.randint(1, 9) for _ in range(nd)] for _ in range(ns)]
        supply = [rng.randint(1, 9) for _ in range(ns)]
        demand = [rng.randint(1, 9) for _ in range(nd)]
        excess = sum(supply) - sum(demand)
        if excess > 0:
            demand[-1] += excess
        else:
            supply[-1] -= excess
        total, carried, labels = _min_cost_flow(
            cost_classes(cost), supply, demand
        )
        sent = {
            (i, j): amount
            for j, flows in enumerate(carried)
            for i, amount in flows.items()
        }
        check_transport_dual(cost, supply, demand, sent, labels, total)


def test_kernel_takes_cost_classes_as_rows():
    # a row is {cost: bitmask of demand indices}, as wasserstein passes it
    cost = [[1, 3, 2], [2, 1, 1]]
    classes = [{1: 0b001, 3: 0b010, 2: 0b100}, {2: 0b001, 1: 0b110}]
    assert cost_classes(cost) == classes
    supply, demand = [2, 3], [1, 2, 2]
    assert _min_cost_flow(classes, supply, demand)[0] == 6
    assert transportation_network_simplex(cost, supply, demand) == 6


def _residual(g, mu, nu):
    """The problem left once the common mass stays in place: (sources,
    targets, supply, demand, cost), masses as Fractions and costs from
    the all-pairs table."""
    keys = set(mu.support()) | set(nu.support())
    sources = sorted(v for v in keys if mu[v] > nu[v])
    targets = sorted(v for v in keys if nu[v] > mu[v])
    supply = [mu[v] - nu[v] for v in sources]
    demand = [nu[v] - mu[v] for v in targets]
    cost = [[g.dist[u][v] for v in targets] for u in sources]
    return sources, targets, supply, demand, cost


def _checked_wasserstein(g, mu, nu):
    """wasserstein(g, mu, nu), checked against network simplex, as a
    coupling, and by LP duality on the labels it keeps; returns it with
    its residual problem."""
    r = wasserstein(g, mu, nu)
    assert r.cost == wasserstein_network_simplex(g, mu, nu)
    assert check_coupling(g, mu, nu, r.plan) == r.cost
    residual = sources, targets, supply, demand, cost = _residual(g, mu, nu)
    if not sources:
        assert r._dual is None and r.cost == 0
        return r, residual
    kept_sources, kept_targets, labels = r._dual
    assert (list(kept_sources), list(kept_targets)) == (sources, targets)
    at_s = {u: i for i, u in enumerate(sources)}
    at_t = {v: j for j, v in enumerate(targets)}
    sent = {(at_s[u], at_t[v]): m for u, v, m in r.plan if u != v}
    check_transport_dual(cost, supply, demand, sent, labels, r.cost)
    return r, residual


def test_wasserstein_labels_are_an_optimal_dual_on_lazy_edge_measures():
    rng = random.Random(8080)
    graphs = [wheel(7).graph, random_gnp_graph(random.Random(40), 40, 0.5)]
    for _ in range(12):
        n = rng.randint(4, 16)
        graphs.append(random_connected_graph(rng, n, rng.randint(0, 2 * n)))
    for g in graphs:
        for x, y in g.edges()[::max(1, g.num_edges() // 12)]:
            alpha = F(1, max(g.degree(x), g.degree(y)) + 1)
            _checked_wasserstein(
                g, vertex_measure(g, x, alpha), vertex_measure(g, y, alpha)
            )


def test_wasserstein_takes_every_kernel_branch():
    # every residual but the empty one runs the kernel, one source or
    # one target included
    counts = dict.fromkeys(
        [
            "empty residual",
            "one source",
            "one target",
            "column minima differ",
            "direct push rerouted",
            "row lacks a cost class",
            "cost above 3",
        ],
        0,
    )
    rng = random.Random(6161)
    cases = []
    for _ in range(40):
        n = rng.randint(5, 14)
        g = random_connected_graph(rng, n, rng.randint(0, 2 * n))
        x, y = rng.choice(g.edges())
        alpha = F(1, max(g.degree(x), g.degree(y)) + 1)
        mu, nu = vertex_measure(g, x, alpha), vertex_measure(g, y, alpha)
        cases.append((g, mu, nu))
    c40 = cycle(40)
    for _ in range(40):
        mu = random_measure(rng, c40, 4, 6)
        cases.append((c40, mu, random_measure(rng, c40, 4, 6)))
    k8 = Graph(8, combinations(range(8), 2))
    alpha = F(1, 8)  # both lazy measures are uniform on all 8 vertices
    mu, nu = vertex_measure(k8, 0, alpha), vertex_measure(k8, 1, alpha)
    cases.append((k8, mu, nu))
    for g, mu, nu in cases:
        r, (sources, targets, supply, demand, cost) = _checked_wasserstein(
            g, mu, nu
        )
        if not sources:
            counts["empty residual"] += 1
        elif len(sources) == 1:
            counts["one source"] += 1
        elif len(targets) == 1:
            counts["one target"] += 1
        else:
            costs = {c for row in cost for c in row}
            minima = {min(column) for column in zip(*cost)}
            counts["column minima differ"] += len(minima) > 1
            lacking = any(set(row) != costs for row in cost)
            counts["row lacks a cost class"] += lacking
            counts["cost above 3"] += max(costs) > 3
            # the first phase pushes along the cheapest arcs; a lone one
            # leaves it carrying min(supply, demand), so any less at the
            # end was rerouted along a backward arc by a later phase
            cheapest = [
                (i, j)
                for i, row in enumerate(cost)
                for j, c in enumerate(row)
                if c == min(costs)
            ]
            if len(cheapest) == 1:
                (i, j), = cheapest
                arc = (sources[i], targets[j])
                kept = sum(m for u, v, m in r.plan if (u, v) == arc)
                rerouted = kept < min(supply[i], demand[j])
                counts["direct push rerouted"] += rerouted
    assert all(counts.values()), counts


def test_wasserstein_matches_network_simplex_on_wide_supports():
    # sparse graphs spread the costs well beyond {1, 2, 3}, so the
    # kernel runs many phases with flow rerouted along backward arcs
    rng = random.Random(2468)
    for _ in range(60):
        n = rng.randint(12, 30)
        g = random_connected_graph(rng, n, rng.randint(0, n // 2))
        mu = random_measure(rng, g, 10, 30)
        nu = random_measure(rng, g, 10, 30)
        r = wasserstein(g, mu, nu)
        assert r.cost == wasserstein_network_simplex(g, mu, nu)
        assert check_coupling(g, mu, nu, r.plan) == r.cost


def test_wasserstein_matches_network_simplex_on_dense_lazy_measures():
    # edges of dense random graphs: once the common mass is stripped, the
    # residual problems have well over 10 x 10 supply/demand pairs
    rng = random.Random(5050)
    largest = 0
    for _ in range(4):
        n = rng.randint(30, 40)
        g = random_connected_graph(rng, n, n * (n - 1) // 4)
        for x, y in rng.sample(g.edges(), 8):
            alpha = F(1, max(g.degree(x), g.degree(y)) + 1)
            mu = vertex_measure(g, x, alpha)
            nu = vertex_measure(g, y, alpha)
            keys = set(mu.support()) | set(nu.support())
            sources = sum(1 for v in keys if mu[v] > nu[v])
            targets = sum(1 for v in keys if nu[v] > mu[v])
            largest = max(largest, min(sources, targets))
            r = wasserstein(g, mu, nu)
            assert r.cost == wasserstein_network_simplex(g, mu, nu)
            assert check_coupling(g, mu, nu, r.plan) == r.cost
    assert largest > 10


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


def test_plans_on_a_dense_random_graph_are_sorted_positive_couplings():
    # every degree sum is above 14, as on the curv-dense benchmark input
    g = random_gnp_graph(random.Random(40), 40, 0.5)
    for x, y in g.edges()[::7]:
        assert g.degree(x) + g.degree(y) > 14
        alpha = F(1, max(g.degree(x), g.degree(y)) + 1)
        mu = vertex_measure(g, x, alpha)
        nu = vertex_measure(g, y, alpha)
        r = wasserstein(g, mu, nu)
        plan = r.plan
        assert list(plan) == sorted(plan)
        assert all(type(m) is Fraction and m > 0 for _, _, m in plan)
        assert check_coupling(g, mu, nu, plan) == r.cost


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
