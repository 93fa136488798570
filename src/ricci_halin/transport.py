"""Exact optimal transport between probability measures on graph vertices.

Costs are shortest-path distances, read pair by pair from
`Graph.distance`, and all masses are `fractions.Fraction`, so Wasserstein
distances come out as exact rationals.  The solver strips the common mass
(kept in place, which is optimal for metric costs), scales the residual
problem to integers by the common denominator, and solves it on the
bipartite supply/demand network by primal-dual phases: one shortest-path
pass per phase, then flow pushed along every tight path of the phase's
length.  For the lazy measures of an edge the residual costs lie in
{1, 2, 3}, so there are at most three phases.
"""
from __future__ import annotations

from fractions import Fraction
from heapq import heappop, heappush
from math import lcm
from typing import Iterable, Mapping

from .graph import Graph

ZERO = Fraction(0)

# coupling entries: (source vertex, target vertex, positive mass)
CouplingEntry = tuple[int, int, Fraction]


class TransportError(ValueError):
    """Invalid measure, coupling, or transport instance."""


class Measure:
    """Finitely supported probability measure on vertex ids."""

    __slots__ = ("_mass",)

    def __init__(self, mass: Mapping[int, Fraction | int]):
        clean: dict[int, Fraction] = {}
        total = ZERO
        for v, m in mass.items():
            m = Fraction(m)
            if m < 0:
                raise TransportError(f"negative mass {m} at vertex {v}")
            if m == 0:
                continue
            clean[int(v)] = m
            total += m
        if total != 1:
            raise TransportError(f"total mass {total}, expected 1")
        self._mass = clean

    def __getitem__(self, v: int) -> Fraction:
        return self._mass.get(v, ZERO)

    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self._mass))

    def items(self) -> list[tuple[int, Fraction]]:
        return sorted(self._mass.items())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Measure):
            return NotImplemented
        return self._mass == other._mass

    def __repr__(self) -> str:
        inner = ", ".join(f"{v}: {m}" for v, m in self.items())
        return f"Measure({{{inner}}})"


class TransportResult:
    """Optimal cost together with one optimal coupling."""

    __slots__ = ("cost", "plan")

    def __init__(self, cost: Fraction, plan: tuple[CouplingEntry, ...]):
        self.cost = cost
        self.plan = plan

    def __repr__(self) -> str:
        return f"TransportResult(cost={self.cost}, plan={self.plan})"


def vertex_measure(g: Graph, x: int, alpha: Fraction | int | str) -> Measure:
    """Lazy-walk measure: alpha stays at x, the rest spreads to neighbors."""
    alpha = Fraction(alpha)
    if not 0 <= alpha <= 1:
        raise TransportError(f"alpha {alpha} outside [0, 1]")
    if not 0 <= x < g.n:
        raise TransportError(f"vertex {x} out of range")
    mass: dict[int, Fraction] = {x: alpha}
    if alpha < 1:
        deg = g.degree(x)
        if deg == 0:
            raise TransportError(f"vertex {x} has no neighbors to carry mass")
        share = (1 - alpha) / deg
        for z in g.adj[x]:
            mass[z] = share
    return Measure(mass)


def _check_vertices(g: Graph, mu: Measure) -> None:
    for v in mu.support():
        if not 0 <= v < g.n:
            raise TransportError(f"measure supported on missing vertex {v}")


def _min_cost_flow(
    cost: list[list[int]], supply: list[int], demand: list[int]
) -> tuple[int, list[dict[int, int]]]:
    """Exact transportation problem by primal-dual phases.

    Returns the optimal cost and the flow, as carried[j][i] = units that
    supply i sends to demand j.  Each phase labels the nodes with their
    shortest residual distance d from the supplies that still have mass
    (Dijkstra on costs reduced by the previous phase's labels, which keeps
    every residual arc non-negative), then pushes flow along tight arcs,
    d[a] + cost == d[b], until no tight path reaches an unmet demand at
    the phase's distance D.  Every pushed path costs exactly D.  Costs are
    positive integers, so D grows by at least 1 per phase: there are at
    most max(cost) phases, and at most 3 for the lazy measures of an edge.
    """
    ns, nd = len(supply), len(demand)
    carried: list[dict[int, int]] = [{} for _ in range(nd)]
    rem_s = list(supply)
    rem_d = list(demand)
    remaining = sum(supply)
    total_cost = 0
    inf = float("inf")
    # node a < ns is supply a; node ns + j is demand j
    pot = [0] * (ns + nd)
    while remaining > 0:
        red = [inf] * (ns + nd)
        heap = [(0, i) for i in range(ns) if rem_s[i] > 0]
        for _, i in heap:
            red[i] = 0
        done = bytearray(ns + nd)
        while heap:
            k, a = heappop(heap)
            if done[a]:
                continue
            done[a] = 1
            base = k + pot[a]
            if a < ns:
                row = cost[a]
                for j in range(nd):
                    b = ns + j
                    alt = base + row[j] - pot[b]
                    if alt < red[b]:
                        red[b] = alt
                        heappush(heap, (alt, b))
            else:
                j = a - ns
                for i in carried[j]:
                    alt = base - cost[i][j] - pot[i]
                    if alt < red[i]:
                        red[i] = alt
                        heappush(heap, (alt, i))
        d = [r + p for r, p in zip(red, pot)]
        reach = min(
            (d[ns + j] for j in range(nd) if rem_d[j] > 0), default=inf
        )
        if reach == inf:
            raise TransportError("infeasible transport instance")
        pot = d
        # tight forward arcs; a flow-carrying arc is tight in both directions
        tight: list[list[int]] = [[] for _ in range(ns)]
        tight_in: list[list[int]] = [[] for _ in range(nd)]
        for i in range(ns):
            di = d[i]
            row = cost[i]
            for j in range(nd):
                if di + row[j] == d[ns + j]:
                    tight[i].append(j)
                    tight_in[j].append(i)
        while True:
            prev = [-1] * (ns + nd)
            seen = bytearray(ns + nd)
            stack = [i for i in range(ns) if rem_s[i] > 0]
            for i in stack:
                seen[i] = 1
            sink = -1
            while stack and sink < 0:
                a = stack.pop()
                if a < ns:
                    for j in tight[a]:
                        b = ns + j
                        if not seen[b]:
                            seen[b] = 1
                            prev[b] = a
                            if rem_d[j] > 0 and d[b] == reach:
                                sink = b
                                break
                            stack.append(b)
                else:
                    flows = carried[a - ns]
                    for i in tight_in[a - ns]:
                        if not seen[i] and flows.get(i):
                            seen[i] = 1
                            prev[i] = a
                            stack.append(i)
            if sink < 0:
                break
            path = []
            root = sink
            while prev[root] >= 0:
                path.append((prev[root], root))
                root = prev[root]
            theta = min(rem_s[root], rem_d[sink - ns])
            for a, b in path:
                if a >= ns:  # backward arc demand -> supply
                    theta = min(theta, carried[a - ns][b])
            for a, b in path:
                if a < ns:
                    flows = carried[b - ns]
                    flows[a] = flows.get(a, 0) + theta
                else:
                    flows = carried[a - ns]
                    flows[b] -= theta
                    if not flows[b]:
                        del flows[b]
            rem_s[root] -= theta
            rem_d[sink - ns] -= theta
            remaining -= theta
            total_cost += theta * reach
    return total_cost, carried


def wasserstein(g: Graph, mu: Measure, nu: Measure) -> TransportResult:
    """Exact 1-Wasserstein distance and an optimal coupling."""
    _check_vertices(g, mu)
    _check_vertices(g, nu)
    plan: list[CouplingEntry] = []
    res_s: dict[int, Fraction] = {}
    res_d: dict[int, Fraction] = {}
    for v in set(mu.support()) | set(nu.support()):
        common = min(mu[v], nu[v])
        if common > 0:
            plan.append((v, v, common))
        if mu[v] > common:
            res_s[v] = mu[v] - common
        if nu[v] > common:
            res_d[v] = nu[v] - common
    if not res_s:
        return TransportResult(ZERO, tuple(sorted(plan)))
    scale = lcm(
        *(m.denominator for m in res_s.values()),
        *(m.denominator for m in res_d.values()),
    )
    sources = sorted(res_s)
    targets = sorted(res_d)
    supply = [int(res_s[u] * scale) for u in sources]
    demand = [int(res_d[v] * scale) for v in targets]
    distance = g.distance
    cost = [[distance(u, v) for v in targets] for u in sources]
    total, carried = _min_cost_flow(cost, supply, demand)
    for j, flows in enumerate(carried):
        for i, amount in flows.items():
            plan.append((sources[i], targets[j], Fraction(amount, scale)))
    return TransportResult(Fraction(total, scale), tuple(sorted(plan)))


def coupling_cost(g: Graph, plan: Iterable[CouplingEntry]) -> Fraction:
    total = ZERO
    for u, v, m in plan:
        if not (0 <= u < g.n and 0 <= v < g.n):
            raise TransportError(f"coupling touches missing vertex ({u}, {v})")
        if m < 0:
            raise TransportError(f"negative coupling mass at ({u}, {v})")
        total += m * g.distance(u, v)
    return total


def check_coupling(
    g: Graph, mu: Measure, nu: Measure, plan: Iterable[CouplingEntry]
) -> Fraction:
    """Validate marginals of a coupling and return its cost."""
    plan = list(plan)
    left: dict[int, Fraction] = {}
    right: dict[int, Fraction] = {}
    for u, v, m in plan:
        if m == 0:
            continue
        left[u] = left.get(u, ZERO) + m
        right[v] = right.get(v, ZERO) + m
    if left != {v: m for v, m in mu.items()}:
        raise TransportError("left marginal does not match source measure")
    if right != {v: m for v, m in nu.items()}:
        raise TransportError("right marginal does not match target measure")
    return coupling_cost(g, plan)
