"""Immutable simple undirected graphs with shortest-path metrics.

Vertices are the integers 0..n-1.  Graphs are connected by construction
and never mutated afterwards, so adjacency and the all-pairs distance
table (computed on first use) can be shared freely across workers.
"""
from __future__ import annotations

from collections import deque
from typing import Iterable, Sequence


class GraphError(ValueError):
    """Invalid graph construction or query."""


def normalize_edge(u: int, v: int) -> tuple[int, int]:
    """Return the endpoints as an ordered pair (min, max)."""
    if u == v:
        raise GraphError(f"self-loop at vertex {u}")
    return (u, v) if u < v else (v, u)


class Graph:
    """Simple connected undirected graph, immutable after construction.

    Attributes:
      n:    number of vertices.
      adj:  adj[v] is the sorted tuple of neighbors of v.
      dist: dist[u][v] is the shortest-path distance (hop count).
    """

    __slots__ = ("n", "adj", "_masks", "_dist")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 1:
            raise GraphError(f"vertex count must be positive, got {n}")
        nbrs: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            nbrs[u].add(v)
            nbrs[v].add(u)
        self.n = n
        self.adj: tuple[tuple[int, ...], ...] = tuple(
            tuple(sorted(s)) for s in nbrs
        )
        # neighbor bitmasks, used by the refinement code and C3/C4 tests
        self._masks: tuple[int, ...] = tuple(
            sum(1 << w for w in s) for s in nbrs
        )
        self._dist: tuple[tuple[int, ...], ...] | None = None
        # one BFS settles connectivity; distances wait until needed
        reached = 1
        seen = bytearray(n)
        seen[0] = 1
        stack = [0]
        while stack:
            u = stack.pop()
            for w in self.adj[u]:
                if not seen[w]:
                    seen[w] = 1
                    reached += 1
                    stack.append(w)
        if reached != n:
            bad = seen.index(0)
            raise GraphError(
                f"graph is disconnected: no path from 0 to {bad}"
            )

    @property
    def dist(self) -> tuple[tuple[int, ...], ...]:
        """dist[u][v]: shortest-path hop count, filled in on first use."""
        if self._dist is None:
            table = []
            for src in range(self.n):
                row = [-1] * self.n
                row[src] = 0
                queue = deque([src])
                while queue:
                    u = queue.popleft()
                    du = row[u]
                    for w in self.adj[u]:
                        if row[w] < 0:
                            row[w] = du + 1
                            queue.append(w)
                table.append(tuple(row))
            self._dist = tuple(table)
        return self._dist

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return u != v and 0 <= u < self.n and v in self.adj[u]

    def edges(self) -> list[tuple[int, int]]:
        """All edges as sorted (u, v) pairs with u < v."""
        return [(u, v) for u in range(self.n) for v in self.adj[u] if u < v]

    def num_edges(self) -> int:
        return sum(len(a) for a in self.adj) // 2

    def neighbor_mask(self, v: int) -> int:
        return self._masks[v]

    def max_degree(self) -> int:
        return max(len(a) for a in self.adj)

    def diameter(self) -> int:
        return max(max(row) for row in self.dist)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.adj == other.adj
        )

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.num_edges()})"


def require_edge(g: Graph, e: Sequence[int]) -> tuple[int, int]:
    """Validate that e = (x, y) is an edge of g and return it as given."""
    try:
        x, y = e
    except (TypeError, ValueError):
        raise GraphError(f"not an edge pair: {e!r}") from None
    if not g.has_edge(x, y):
        raise GraphError(f"({x},{y}) is not an edge of the graph")
    return x, y


def edge_in_c3_or_c4(g: Graph, e: Sequence[int]) -> bool:
    """Whether the edge lies on some triangle or some quadrilateral.

    Triangle: x and y share a neighbor.  Quadrilateral: there are distinct
    x' ~ x and y' ~ y (x' != y, y' != x) with x' ~ y'.
    """
    x, y = require_edge(g, e)
    mx = g.neighbor_mask(x) & ~(1 << y)
    my = g.neighbor_mask(y) & ~(1 << x)
    if mx & my:
        return True
    for xp in g.adj[x]:
        if xp == y:
            continue
        # a neighbor of x' inside N(y)\{x,x'} closes a 4-cycle through e
        if g.neighbor_mask(xp) & my & ~(1 << xp):
            return True
    return False
