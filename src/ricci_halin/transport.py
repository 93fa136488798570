"""Exact optimal transport between probability measures on graph vertices.

Costs are shortest-path distances, read pair by pair from
`Graph.distance`.  A `Measure` holds its masses as positive integer
numerators over one least common denominator, so the whole transport
problem runs in integers: both measures are scaled to the lcm of their
denominators, the common mass is stripped (kept in place, which is
optimal for metric costs), and the residual problem is solved on the
bipartite supply/demand network by primal-dual phases: one shortest-path
pass per phase, then flow pushed along every tight path of the phase's
length.  For the lazy measures of an edge the residual costs lie in
{1, 2, 3}, so there are at most three phases.  The one `Fraction` a
solve builds is its cost; the optimal coupling is kept as integer
triples and read out as exact `Fraction` entries on demand.
"""
from __future__ import annotations

from fractions import Fraction
from heapq import heappop, heappush
from math import gcd, lcm
from typing import Iterable, Mapping

from .graph import Graph, _is_int

ZERO = Fraction(0)

# coupling entries: (source vertex, target vertex, positive mass)
CouplingEntry = tuple[int, int, Fraction]


class TransportError(ValueError):
    """Invalid measure, coupling, or transport instance."""


def _rational(x: Fraction | int | str, what: str) -> Fraction:
    """x as an exact Fraction; a float is refused, since the binary value
    it holds is not the decimal it was written as."""
    if isinstance(x, float):
        raise TransportError(
            f"{what} is a float ({x!r}); give an int, Fraction or str"
        )
    return Fraction(x)


class Measure:
    """Finitely supported probability measure on vertex ids.

    The masses are held as positive integers `_num[v]` over one common
    denominator `_den`, the least one, so two measures are equal exactly
    when their numerators and denominators are.  Reads return `Fraction`
    values.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, mass: Mapping[int, Fraction | int | str]):
        clean: dict[int, Fraction] = {}
        total = ZERO
        for v, m in mass.items():
            if not _is_int(v):
                raise TransportError(f"vertex id {v!r} is not an int")
            m = _rational(m, f"mass at vertex {v}")
            if m < 0:
                raise TransportError(f"negative mass {m} at vertex {v}")
            if m == 0:
                continue
            clean[v] = m
            total += m
        if total != 1:
            raise TransportError(f"total mass {total}, expected 1")
        den = lcm(*(m.denominator for m in clean.values()))
        self._num = {
            v: m.numerator * (den // m.denominator) for v, m in clean.items()
        }
        self._den = den

    @classmethod
    def _from_ints(cls, num: dict[int, int], den: int) -> Measure:
        """The measure num[v]/den, trusted: positive numerators summing to
        den, with no common factor shared by all of them and den."""
        self = object.__new__(cls)
        self._num = num
        self._den = den
        return self

    def __getitem__(self, v: int) -> Fraction:
        k = self._num.get(v)
        return Fraction(k, self._den) if k else ZERO

    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self._num))

    def items(self) -> list[tuple[int, Fraction]]:
        den = self._den
        return [(v, Fraction(k, den)) for v, k in sorted(self._num.items())]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Measure):
            return NotImplemented
        return self._den == other._den and self._num == other._num

    def __repr__(self) -> str:
        inner = ", ".join(f"{v}: {m}" for v, m in self.items())
        return f"Measure({{{inner}}})"


class TransportResult:
    """Optimal cost together with one optimal coupling.

    The coupling is kept as integer triples (u, v, k), each moving mass
    k/scale from u to v; `plan` reads it out as the sorted tuple of exact
    `Fraction` entries.
    """

    __slots__ = ("cost", "_pairs", "_scale")

    def __init__(
        self, cost: Fraction, pairs: list[tuple[int, int, int]], scale: int
    ):
        self.cost = cost
        self._pairs = pairs
        self._scale = scale

    @property
    def plan(self) -> tuple[CouplingEntry, ...]:
        scale = self._scale
        return tuple(
            (u, v, Fraction(k, scale)) for u, v, k in sorted(self._pairs)
        )

    def __repr__(self) -> str:
        return f"TransportResult(cost={self.cost}, plan={self.plan})"


def vertex_measure(g: Graph, x: int, alpha: Fraction | int | str) -> Measure:
    """Lazy-walk measure: alpha stays at x, the rest spreads to neighbors.

    With alpha = p/q and d = deg x, x carries p*d and each neighbour q - p
    units over q*d, reduced by their gcd.
    """
    alpha = _rational(alpha, "alpha")
    if not 0 <= alpha <= 1:
        raise TransportError(f"alpha {alpha} outside [0, 1]")
    if not _is_int(x):
        raise TransportError(f"vertex id {x!r} is not an int")
    if not 0 <= x < g.n:
        raise TransportError(f"vertex {x} out of range")
    if alpha == 1:
        return Measure._from_ints({x: 1}, 1)
    d = g.degree(x)
    if d == 0:
        raise TransportError(f"vertex {x} has no neighbors to carry mass")
    p, q = alpha.numerator, alpha.denominator
    stay, share = p * d, q - p
    r = gcd(stay, share)
    share //= r
    num = dict.fromkeys(g.adj[x], share)
    if stay:
        num[x] = stay // r
    return Measure._from_ints(num, q * d // r)


def _check_vertices(g: Graph, mu: Measure) -> None:
    for v in mu._num:
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
    scale = lcm(mu._den, nu._den)
    a, b = scale // mu._den, scale // nu._den
    mu_num, nu_num = mu._num, nu._num
    pairs: list[tuple[int, int, int]] = []
    res_s: dict[int, int] = {}
    res_d: dict[int, int] = {}
    for v, k in mu_num.items():
        s = k * a
        t = nu_num.get(v, 0) * b
        if s > t:
            res_s[v] = s - t
        elif t > s:
            res_d[v] = t - s
        common = min(s, t)
        if common:
            pairs.append((v, v, common))
    for v, k in nu_num.items():
        if v not in mu_num:
            res_d[v] = k * b
    if not res_s:
        return TransportResult(ZERO, pairs, scale)
    sources = sorted(res_s)
    targets = sorted(res_d)
    supply = [res_s[u] for u in sources]
    demand = [res_d[v] for v in targets]
    distance = g._distance
    cost = [[distance(u, v) for v in targets] for u in sources]
    total, carried = _min_cost_flow(cost, supply, demand)
    for v, flows in zip(targets, carried):
        for i, k in flows.items():
            pairs.append((sources[i], v, k))
    return TransportResult(Fraction(total, scale), pairs, scale)


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
