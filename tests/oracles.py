"""Independent brute-force oracles and random generators for the tests.

Everything here recomputes results by definition-level enumeration,
deliberately sharing no algorithmic machinery with the package: the
transport oracle enumerates whole integer flow matrices, the dual oracle
iterates over all integer Lipschitz functions via itertools.product, the
cycle oracle scans vertex tuples, and the plane-tree oracle builds every
nested shape by recursion on the size of its first subtree.  The
exceptions read the package's sweep.  The rooted sweep applies its
pruning rules and canonical form, but to every rooted tree, so it
checks only how the package stands one plane tree for all of its
rootings.  `distinct_halin_graphs` is no oracle but a fixture source:
one representative per class, from the unpruned sweep.
"""
from __future__ import annotations

import functools
import itertools
import random
from fractions import Fraction
from math import lcm

from ricci_halin.graph import Graph
from ricci_halin.transport import Measure


def wasserstein_exhaustive(g: Graph, mu: Measure, nu: Measure) -> Fraction:
    """Minimum transport cost by enumerating every integer flow matrix."""
    sources = mu.support()
    targets = nu.support()
    scale = lcm(
        *(mu[v].denominator for v in sources),
        *(nu[v].denominator for v in targets),
    )
    supply = [int(mu[v] * scale) for v in sources]
    demand = [int(nu[v] * scale) for v in targets]
    nt = len(targets)
    best: list[int | None] = [None]

    def fill(i: int, remaining_demand: list[int], cost: int) -> None:
        if best[0] is not None and cost >= best[0]:
            return
        if i == len(sources):
            if all(r == 0 for r in remaining_demand):
                best[0] = cost
            return
        # distribute supply[i] over the targets in all possible ways
        def split(j: int, left: int, cost_now: int) -> None:
            if best[0] is not None and cost_now >= best[0]:
                return
            if j == nt - 1:
                if left <= remaining_demand[j]:
                    remaining_demand[j] -= left
                    fill(
                        i + 1,
                        remaining_demand,
                        cost_now + left * g.dist[sources[i]][targets[j]],
                    )
                    remaining_demand[j] += left
                return
            for amount in range(min(left, remaining_demand[j]) + 1):
                remaining_demand[j] -= amount
                split(
                    j + 1,
                    left - amount,
                    cost_now + amount * g.dist[sources[i]][targets[j]],
                )
                remaining_demand[j] += amount

        split(0, supply[i], cost)

    fill(0, list(demand), 0)
    assert best[0] is not None, "transportation instance must be feasible"
    return Fraction(best[0], scale)


def transportation_network_simplex(
    cost: list[list[int]], supply: list[int], demand: list[int]
) -> int:
    """Minimum cost of an integer transportation problem via networkx's
    network simplex; cost[i][j] is the unit cost from supply i to demand j."""
    import networkx as nx

    net = nx.DiGraph()
    for i, s in enumerate(supply):
        net.add_node(("s", i), demand=-s)
    for j, d in enumerate(demand):
        net.add_node(("t", j), demand=d)
    for i, row in enumerate(cost):
        for j, c in enumerate(row):
            net.add_edge(("s", i), ("t", j), weight=c)
    total, _flow = nx.network_simplex(net)
    return total


def cost_classes(cost: list[list[int]]) -> list[dict[int, int]]:
    """A cost matrix in the transport kernel's row format: row i as a
    dict from each cost c to the bitmask of the columns j with
    cost[i][j] == c."""
    rows = []
    for row in cost:
        classes: dict[int, int] = {}
        for j, c in enumerate(row):
            classes[c] = classes.get(c, 0) | 1 << j
        rows.append(classes)
    return rows


def check_transport_dual(cost, supply, demand, flow, labels, total) -> None:
    """Assert that `labels` prove `flow` optimal by LP duality.

    cost[i][j] is the unit cost from supply i to demand j, flow maps
    (i, j) to the mass sent, and labels holds d for the supplies, then
    the demands.  Checks d_j - d_i <= c_ij on every arc, equality on
    every arc that carries flow, and sum demand*d - sum supply*d ==
    total, the flow's cost: a feasible dual whose value is the primal
    cost proves both optimal."""
    ns = len(supply)
    assert len(labels) == ns + len(demand)
    for i, row in enumerate(cost):
        for j, c in enumerate(row):
            assert labels[ns + j] - labels[i] <= c, f"arc ({i}, {j}) violated"
    for (i, j), mass in flow.items():
        assert mass > 0
        slack = cost[i][j] - labels[ns + j] + labels[i]
        assert slack == 0, f"flow arc ({i}, {j}) has slack {slack}"
    value = sum(m * labels[ns + j] for j, m in enumerate(demand)) - sum(
        m * labels[i] for i, m in enumerate(supply)
    )
    assert value == total


def wasserstein_network_simplex(g: Graph, mu: Measure, nu: Measure) -> Fraction:
    """Minimum transport cost via networkx's network simplex."""
    scale = lcm(
        *(m.denominator for _, m in mu.items()),
        *(m.denominator for _, m in nu.items()),
    )
    sources, targets = mu.support(), nu.support()
    cost = [[g.dist[u][v] for v in targets] for u in sources]
    supply = [int(mu[u] * scale) for u in sources]
    demand = [int(nu[v] * scale) for v in targets]
    return Fraction(
        transportation_network_simplex(cost, supply, demand), scale
    )


def vertex_measure_by_definition(
    g: Graph, x: int, alpha: Fraction
) -> dict[int, Fraction]:
    """The lazy-walk measure as plain Fractions: alpha stays at x and
    (1 - alpha)/deg(x) goes to each neighbour; zero masses are dropped."""
    mass = {x: Fraction(alpha)}
    for z in g.adj[x]:
        mass[z] = (1 - mass[x]) / g.degree(x)
    return {v: m for v, m in mass.items() if m}


def dual_exhaustive(g: Graph, e, value_bound: int = 2) -> Fraction:
    """Minimum of the Laplacian difference over every integer function
    with values in [-value_bound, value_bound], checked 1-Lipschitz
    against full-graph distances, f(x)=0, f(y)=1."""
    x, y = e
    domain = sorted(set(g.adj[x]) | set(g.adj[y]) | {x, y})
    free = [v for v in domain if v not in (x, y)]
    best: Fraction | None = None
    for combo in itertools.product(
        range(-value_bound, value_bound + 1), repeat=len(free)
    ):
        f = {x: 0, y: 1}
        f.update(zip(free, combo))
        ok = True
        for u, v in itertools.combinations(domain, 2):
            if abs(f[u] - f[v]) > g.dist[u][v]:
                ok = False
                break
        if not ok:
            continue
        lap_x = Fraction(sum(f[z] - f[x] for z in g.adj[x]), g.degree(x))
        lap_y = Fraction(sum(f[z] - f[y] for z in g.adj[y]), g.degree(y))
        value = lap_x - lap_y
        if best is None or value < best:
            best = value
    assert best is not None
    return best


def edge_in_c3_c4_exhaustive(g: Graph, e) -> bool:
    """Triangle or quadrilateral through the edge, by scanning tuples."""
    x, y = e
    others = [v for v in range(g.n) if v not in (x, y)]
    for z in others:
        if g.has_edge(x, z) and g.has_edge(y, z):
            return True
    for z, w in itertools.permutations(others, 2):
        if g.has_edge(y, z) and g.has_edge(z, w) and g.has_edge(w, x):
            return True
    return False


def random_connected_graph(rng: random.Random, n: int, extra: int) -> Graph:
    """Random spanning tree plus `extra` random chords."""
    edges = {(0, 1)} if n > 1 else set()
    for v in range(2, n):
        u = rng.randrange(v)
        edges.add((u, v))
    candidates = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if (u, v) not in edges
    ]
    rng.shuffle(candidates)
    edges.update(candidates[:extra])
    return Graph(n, edges)


def random_gnp_graph(rng: random.Random, n: int, p: float) -> Graph:
    """G(n, p): each pair u < v is an edge with probability p, drawn in
    lexicographic order (Graph refuses a disconnected draw)."""
    return Graph(
        n,
        [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p],
    )


def random_tree(rng: random.Random, n: int) -> Graph:
    edges = []
    for v in range(1, n):
        edges.append((rng.randrange(v), v))
    return Graph(n, edges)


def random_measure(rng: random.Random, g: Graph, max_support: int, total: int) -> Measure:
    """Random rational measure: `total` unit chips on a small support."""
    support = rng.sample(range(g.n), min(max_support, g.n))
    chips = [0] * len(support)
    for _ in range(total):
        chips[rng.randrange(len(support))] += 1
    return Measure(
        {v: Fraction(c, total) for v, c in zip(support, chips) if c}
    )


@functools.lru_cache(maxsize=None)
def ordered_forests(total: int) -> tuple:
    """Every ordered forest on `total` vertices as nested tuples, by
    recursion on the size of its first tree.  A forest is a shape's child
    tuple, so the shapes on n vertices are exactly ordered_forests(n-1)."""
    if total == 0:
        return ((),)
    out = []
    for head_size in range(1, total + 1):
        for head in ordered_forests(head_size - 1):
            for rest in ordered_forests(total - head_size):
                out.append((head,) + rest)
    return tuple(out)


def child_lists(shape) -> tuple[tuple[int, ...], ...]:
    """Child lists of a shape (nested tuples), its vertices numbered by a
    recursive preorder from the root 0, children left to right."""
    children: list[list[int]] = []

    def number(sub) -> int:
        v = len(children)
        children.append([])
        for c in sub:
            children[v].append(number(c))
        return v

    number(shape)
    return tuple(map(tuple, children))


def contour_leaves_by_recursion(children) -> tuple[int, ...]:
    """Leaves of a plane tree (child lists, root 0) in contour order: a
    recursive preorder, children left to right; a degree-1 root counts."""
    out = []

    def visit(v: int) -> None:
        if len(children[v]) + (v != 0) == 1:
            out.append(v)
        for c in children[v]:
            visit(c)

    visit(0)
    return tuple(out)


def hub_bfs(children) -> tuple[int, dict[int, int], dict[int, int | None]]:
    """(hub, dist, branch) of a plane tree given by child lists: the hub
    is the smallest vertex of maximum tree degree, and a BFS from it
    gives each vertex's tree distance and branch (the hub's neighbour
    that leads to it)."""
    n = len(children)
    adj: list[set[int]] = [set() for _ in range(n)]
    for v, kids in enumerate(children):
        for c in kids:
            adj[v].add(c)
            adj[c].add(v)
    hub = min(range(n), key=lambda v: (-len(adj[v]), v))
    dist = {hub: 0}
    branch = {hub: None}
    queue = [hub]
    for u in queue:
        for w in adj[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                branch[w] = w if u == hub else branch[u]
                queue.append(w)
    return hub, dist, branch


def lemma32_by_leaf_order(children) -> bool:
    """Lemma 3.2 by its definition: cut the leaves, in contour order,
    into maximal cyclic runs of one branch at the hub, and look for two
    cyclically adjacent runs of at least 2 leaves each."""
    _, _, branch = hub_bfs(children)
    leaves = contour_leaves_by_recursion(children)
    runs = [len(list(grp)) for _, grp in
            itertools.groupby(leaves, key=branch.__getitem__)]
    if len(runs) > 1 and branch[leaves[0]] == branch[leaves[-1]]:
        runs[0] += runs.pop()  # the run through the cycle's closing edge
    r = len(runs)
    return r > 1 and any(
        runs[i] >= 2 and runs[(i + 1) % r] >= 2 for i in range(r)
    )


def lemma33_by_leaf_order(children) -> bool:
    """Lemma 3.3 by its definition: walk the cycle through the leaves in
    contour order and test every cycle edge whose ends lie in different
    branches at the hub (the smallest vertex of maximum tree degree)."""
    _, dist, branch = hub_bfs(children)
    leaves = contour_leaves_by_recursion(children)
    k = len(leaves)
    return any(
        branch[a] != branch[b] and dist[a] + dist[b] >= 5
        for a, b in ((leaves[i], leaves[(i + 1) % k]) for i in range(k))
    )


def rooted_sweep(n: int, use_pruning: bool = True):
    """The sweep over every rooted tree on n vertices, one rooting at a
    time: ({(n, certificate): least parent tuple}, pruned, generated),
    where a rooted tree is pruned if the C3/C4 degree bound holds on its
    graph or the layout rules hold at its own hub: the rooted
    counterpart of `enumeration._classify_chunk`."""
    from ricci_halin.canonical import canonical_certificate
    from ricci_halin.enumeration import _degree_bound_prunes, _layout_prunes
    from ricci_halin.halin import halin_edges, plane_trees

    survivors: dict = {}
    pruned = generated = 0
    for t in plane_trees(n):
        if len(t.leaves) < 3:  # a path
            continue
        generated += 1
        if use_pruning and _layout_prunes(t):
            pruned += 1
            continue
        tree_e, cycle_e = halin_edges(t)
        edges = cycle_e + tree_e
        masks = [0] * n
        for u, v in edges:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        if use_pruning and _degree_bound_prunes(masks, edges):
            pruned += 1
            continue
        key = (n, canonical_certificate(n, masks))
        if key not in survivors or t.parent < survivors[key]:
            survivors[key] = t.parent
    return survivors, pruned, generated


def distinct_halin_graphs(n_max: int):
    """One representative HalinGraph per isomorphism class on at most
    n_max vertices, all curvature signs, ordered by (n, canonical
    form)."""
    from ricci_halin.enumeration import _survivors, _units
    from ricci_halin.halin import _from_parent, build_halin

    survivors, _ = _survivors(_units(n_max, False), 1)
    for _key, parent in sorted(survivors.items()):
        yield build_halin(_from_parent(parent))


def random_halin_graph(n: int, seed: int) -> Graph:
    """A seeded random generalized Halin graph on n vertices, built by the
    package's `build_halin`.  Its tree is grown in preorder: vertex v
    hangs below a vertex of the rightmost path, k steps up from v - 1
    with k about exponential of mean 1, so the degrees stay small."""
    from ricci_halin.halin import _from_parent, build_halin

    rnd = random.Random(seed)
    parent = [-1]
    path = [0]  # the rightmost path, root first
    for v in range(1, n):
        k = min(int(rnd.expovariate(1.0)), len(path) - 1)
        del path[len(path) - k:]
        parent.append(path[-1])
        path.append(v)
    return build_halin(_from_parent(tuple(parent))).graph
