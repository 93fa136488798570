"""Exact optimal transport between probability measures on graph vertices.

Costs are shortest-path distances and all masses are `fractions.Fraction`,
so Wasserstein distances come out as exact rationals.  The solver strips
the common mass (kept in place, which is optimal for metric costs), scales
the residual problem to integers by the common denominator, and runs
successive shortest augmenting paths on the bipartite supply/demand
network.
"""
from __future__ import annotations

from fractions import Fraction
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
) -> tuple[int, list[list[int]]]:
    """Exact transportation problem via successive shortest paths.

    Bellman-Ford handles the negative residual arcs; with zero initial
    flow and shortest-path augmentations no negative cycle ever appears.
    """
    ns, nd = len(supply), len(demand)
    flow = [[0] * nd for _ in range(ns)]
    rem_s = list(supply)
    rem_d = list(demand)
    remaining = sum(supply)
    total_cost = 0
    while remaining > 0:
        dist: list[int | None] = [None] * (ns + nd)
        prev = [-1] * (ns + nd)
        for i in range(ns):
            if rem_s[i] > 0:
                dist[i] = 0
        for _ in range(ns + nd):
            changed = False
            for i in range(ns):
                di = dist[i]
                if di is None:
                    continue
                ci = cost[i]
                for j in range(nd):
                    nj = ns + j
                    alt = di + ci[j]
                    if dist[nj] is None or alt < dist[nj]:
                        dist[nj] = alt
                        prev[nj] = i
                        changed = True
            for j in range(nd):
                dj = dist[ns + j]
                if dj is None:
                    continue
                for i in range(ns):
                    if flow[i][j] > 0:
                        alt = dj - cost[i][j]
                        if dist[i] is None or alt < dist[i]:
                            dist[i] = alt
                            prev[i] = ns + j
                            changed = True
            if not changed:
                break
        best = None
        for j in range(nd):
            if rem_d[j] > 0 and dist[ns + j] is not None:
                if best is None or dist[ns + j] < dist[ns + best]:
                    best = j
        if best is None:
            raise TransportError("infeasible transport instance")
        # walk back to the seeding supply, collecting the path
        path = []
        node = ns + best
        while prev[node] != -1:
            path.append((prev[node], node))
            node = prev[node]
        theta = min(rem_s[node], rem_d[best])
        for a, b in path:
            if a >= ns:  # backward arc demand->supply
                theta = min(theta, flow[b][a - ns])
        for a, b in path:
            if a < ns:
                flow[a][b - ns] += theta
            else:
                flow[b][a - ns] -= theta
        rem_s[node] -= theta
        rem_d[best] -= theta
        remaining -= theta
        total_cost += theta * dist[ns + best]
    return total_cost, flow


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
    cost = [[g.dist[u][v] for v in targets] for u in sources]
    total, flow = _min_cost_flow(cost, supply, demand)
    for i, u in enumerate(sources):
        for j, v in enumerate(targets):
            if flow[i][j]:
                plan.append((u, v, Fraction(flow[i][j], scale)))
    return TransportResult(Fraction(total, scale), tuple(sorted(plan)))


def coupling_cost(g: Graph, plan: Iterable[CouplingEntry]) -> Fraction:
    total = ZERO
    for u, v, m in plan:
        if not (0 <= u < g.n and 0 <= v < g.n):
            raise TransportError(f"coupling touches missing vertex ({u}, {v})")
        if m < 0:
            raise TransportError(f"negative coupling mass at ({u}, {v})")
        total += m * g.dist[u][v]
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
