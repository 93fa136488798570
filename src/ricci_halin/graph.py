"""Immutable simple undirected graphs with shortest-path metrics.

Vertices are the integers 0..n-1.  Graphs are connected by construction
and never mutated afterwards, so adjacency can be shared freely across
workers.  The one mutable field is `_memo`, a cache of the exact optima
of local curvature problems solved on the graph, keyed on the problems
themselves; no output can see it.  `Graph.distance` answers one pair at a time: distances up to 3
(all that curvature ever needs) come from neighbour bitmasks, farther
pairs from a BFS, so no n-by-n table is needed.  The all-pairs table
`Graph.dist` is kept as an independent reference for tests; the package
itself never builds it.
"""
from __future__ import annotations

from collections import deque
from typing import Iterable, Sequence


class GraphError(ValueError):
    """Invalid graph construction or query."""


def _is_int(v: object) -> bool:
    """An int that is not a bool: Python's bool is an int, but no bool is
    a vertex id, and JSON's true is not an integer."""
    return isinstance(v, int) and not isinstance(v, bool)


def _decimal(text: str) -> int | None:
    """The int that `text` writes in plain ASCII decimal, exactly as str()
    writes it, else None: int() also reads "01", "+2", "1_0", " 3", "-0"
    and the decimal digits of other scripts."""
    try:
        v = int(text)
    except ValueError:
        return None
    return v if str(v) == text else None


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
      dist: dist[u][v] is the shortest-path distance (hop count), an
            n-by-n table built on first read; `distance` needs no table.
      _memo: the one field that changes after construction, a cache
            that no output can see: the exact optimum of each distinct
            local problem that `curvature` solved on this graph, keyed
            on the whole problem, so it lives as long as the graph and
            is never shared with another.  A transport key has 3 parts
            and a dual key 6, so the two solvers' keys never meet.
    """

    __slots__ = ("n", "adj", "_masks", "_dist", "_memo")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 1:
            raise GraphError(f"vertex count must be positive, got {n}")
        nbrs: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if not (_is_int(u) and _is_int(v)):
                raise GraphError(f"edge ({u!r},{v!r}): vertex ids must be ints")
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
        self._memo: dict[tuple, int] = {}
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

    def distance(self, u: int, v: int, cap: int | None = None) -> int:
        """Shortest-path hop count from u to v.

        Distances 0 to 3 are read off the neighbour bitmasks; farther
        pairs fall back to a BFS.  With `cap`, the BFS stops at that
        depth and min(distance, cap) is returned.  Both ends must be
        vertex ids of the graph, else GraphError.
        """
        for w in (u, v):
            if not (_is_int(w) and 0 <= w < self.n):
                raise GraphError(f"{w!r} is not a vertex id of the graph")
        return self._distance(u, v, cap)

    def _distance(self, u: int, v: int, cap: int | None = None) -> int:
        """`distance` without the id check, for loops over ids that are
        known to be vertices."""
        if u == v:
            return 0
        masks = self._masks
        mv = masks[v]
        if mv >> u & 1:
            d = 1
        elif masks[u] & mv:
            d = 2
        else:
            for w in self.adj[u]:
                if masks[w] & mv:
                    d = 3
                    break
            else:
                d = self._bfs_distance(u, v, cap)
        return d if cap is None or d < cap else cap

    def _bfs_distance(self, u: int, v: int, cap: int | None) -> int:
        """Distance from u to v by BFS, or `cap` if v lies deeper."""
        adj = self.adj
        seen = {u}
        frontier = [u]
        depth = 0
        while frontier and (cap is None or depth < cap):
            depth += 1
            nxt = []
            for a in frontier:
                for w in adj[a]:
                    if w == v:
                        return depth
                    if w not in seen:
                        seen.add(w)
                        nxt.append(w)
            frontier = nxt
        if cap is None:
            raise GraphError(f"no path from {u} to {v}")
        return cap

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        """False for anything but two adjacent vertex ids."""
        return (
            _is_int(u) and _is_int(v) and u != v and 0 <= u < self.n
            and v in self.adj[u]
        )

    def edges(self) -> list[tuple[int, int]]:
        """All edges as sorted (u, v) pairs with u < v."""
        return [(u, v) for u in range(self.n) for v in self.adj[u] if u < v]

    def num_edges(self) -> int:
        return sum(len(a) for a in self.adj) // 2

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
    if not (_is_int(x) and _is_int(y)):
        raise GraphError(f"edge {e!r}: vertex ids must be ints")
    if not g.has_edge(x, y):
        raise GraphError(f"({x},{y}) is not an edge of the graph")
    return x, y


def edge_in_c3_or_c4(g: Graph, e: Sequence[int]) -> bool:
    """Whether the edge lies on some triangle or some quadrilateral."""
    x, y = require_edge(g, e)
    return in_c3_or_c4(g._masks, x, y)


def in_c3_or_c4(masks: Sequence[int], x: int, y: int) -> bool:
    """Whether the edge xy of the graph with neighbour bitmasks `masks`
    lies on a triangle or a quadrilateral.

    Triangle: x and y share a neighbor.  Quadrilateral: there are distinct
    x' ~ x and y' ~ y (x' != y, y' != x) with x' ~ y'.
    """
    mx = masks[x] & ~(1 << y)
    my = masks[y] & ~(1 << x)
    if mx & my:
        return True
    while mx:
        low = mx & -mx  # x' = low.bit_length() - 1
        # a neighbor of x' inside N(y)\{x,x'} closes a 4-cycle through e
        if masks[low.bit_length() - 1] & my & ~low:
            return True
        mx ^= low
    return False
