"""Plane trees and the leaf-cycle construction.

A plane tree here is a rooted tree with ordered children (the planar
embedding), built from a shape: nested tuples, numbered in preorder and
held as one tuple `parent`, so parent[v] < v.  Joining its leaves by a
cycle in contour order (depth-first, children left to right; a degree-1
root is itself a leaf and comes first), which is ascending id order,
produces a generalized Halin graph.  The walk that numbers a `PlaneTree`
also keeps its leaves (`leaves`) and its smallest vertex of maximum
degree (`hub`); the builders and the layout predicates read those two
fields.  The module also builds the three wheel families and evaluates
the structural predicates that certify non-positive curvature from the
tree layout alone.
"""
from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph

Shape = tuple  # nested tuples; () is a leaf


class HalinError(ValueError):
    """Invalid plane tree, family parameter, or construction input."""


class PlaneTree:
    """Rooted ordered tree on vertices 0..n-1, numbered in preorder from
    the root 0 and held as its parent tuple (parent[0] = -1, else
    parent[v] < v); `from_shape` is its one constructor."""

    __slots__ = ("n", "parent", "leaves", "hub")

    @classmethod
    def from_shape(cls, shape: Shape) -> "PlaneTree":
        """Number a shape's vertices in preorder, in one walk that also
        records the leaves and the hub (the first vertex of maximum
        degree).  Paths are accepted; anything in a shape that is not a
        tuple raises HalinError."""
        parent: list[int] = []
        leaves = []
        hub, top = 0, -1
        stack = [shape]  # shapes still to number, and beside them
        ups = [-1]  # the id of each one's parent
        while stack:
            sub = stack.pop()
            up = ups.pop()
            if not isinstance(sub, tuple):
                raise HalinError(
                    f"a shape is nested tuples, found {type(sub).__name__}"
                )
            v = len(parent)
            parent.append(up)
            d = len(sub) + (up >= 0)
            if d == 1:
                leaves.append(v)
            if d > top:
                hub, top = v, d
            stack.extend(reversed(sub))
            ups.extend([v] * len(sub))
        t = cls.__new__(cls)
        t.n = len(parent)
        t.parent = tuple(parent)
        t.leaves = tuple(leaves)
        t.hub = hub
        return t

    def tree_degree(self, v: int) -> int:
        return self.parent.count(v) + (v != 0)

    def max_degree(self) -> int:
        return self.tree_degree(self.hub)

    def is_leaf(self, v: int) -> bool:
        return self.tree_degree(v) == 1

    def tree_edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(zip(self.parent[1:], range(1, self.n)))

    def __repr__(self) -> str:
        return f"PlaneTree(n={self.n}, parent={self.parent})"


@dataclass(frozen=True)
class HalinGraph:
    """A plane tree plus the cycle through its leaves."""

    graph: Graph
    source_tree: PlaneTree

    @property
    def n(self) -> int:
        return self.graph.n


def halin_edges(
    t: PlaneTree,
) -> tuple[tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]]:
    """(tree edges, cycle edges) without building the Graph, each edge
    as (smaller id, larger id).  A tree with fewer than 3 leaves is a
    path (maximum degree < 3), whose leaves close no cycle."""
    leaves = t.leaves
    if len(leaves) < 3:
        raise HalinError(
            f"maximum tree degree must be at least 3, got {t.max_degree()}"
        )
    cycle = (*zip(leaves, leaves[1:]), (leaves[0], leaves[-1]))
    return t.tree_edges(), cycle


def build_halin(t: PlaneTree) -> HalinGraph:
    tree_e, cycle_e = halin_edges(t)
    g = Graph(t.n, tree_e + cycle_e)
    for v in t.leaves:
        assert g.degree(v) == 3
    assert g.num_edges() == t.n - 1 + len(t.leaves)
    return HalinGraph(g, t)


def wheel(n: int) -> HalinGraph:
    """Hub joined to every vertex of a cycle C_{n-1}."""
    if n < 4:
        raise HalinError(f"wheel needs n >= 4, got {n}")
    return build_halin(PlaneTree.from_shape(tuple(() for _ in range(n - 1))))


def wheel_sub1(n: int) -> HalinGraph:
    """Wheel on n-1 vertices with one spoke subdivided."""
    if n < 5:
        raise HalinError(f"wheel_sub1 needs n >= 5, got {n}")
    shape = (((),),) + tuple(() for _ in range(n - 3))
    return build_halin(PlaneTree.from_shape(shape))


def wheel_sub2(n: int) -> HalinGraph:
    """Wheel on n-2 vertices with the spokes to rim positions 1 and
    ceil((n-2)/2) both subdivided."""
    if n < 6:
        raise HalinError(f"wheel_sub2 needs n >= 6, got {n}")
    rim = n - 3
    mid = -(-(n - 2) // 2)
    shape = tuple(
        ((),) if pos in (1, mid) else () for pos in range(1, rim + 1)
    )
    return build_halin(PlaneTree.from_shape(shape))


@dataclass(frozen=True)
class ComponentProfile:
    """Leaf layout of T - {hub}, read along the cycle.

    `components` lists, per branch at the hub in cyclic order, that
    branch's outer vertices in cycle order; every branch's outer
    vertices form one contiguous cyclic block.
    """

    hub: int
    components: tuple[tuple[int, ...], ...]
    tree_dist: tuple[int, ...]


def tree_profile(t: PlaneTree) -> ComponentProfile:
    hub, parent = t.hub, t.parent
    # tree distance from the hub and branch id (the hub's tree neighbour
    # leading to the vertex): up the hub's ancestors, whose branch is the
    # hub's parent, then one pass in id order, as parent[v] < v
    dist = [-1] * t.n
    branch = [-1] * t.n
    a, d = hub, 0
    while a >= 0:
        dist[a], branch[a] = d, parent[hub]
        a, d = parent[a], d + 1
    for v in range(1, t.n):
        if dist[v] < 0:
            p = parent[v]
            dist[v] = dist[p] + 1
            branch[v] = v if p == hub else branch[p]
    leaves = t.leaves
    # rotate so a component boundary sits at position 0, then cut into runs
    k = len(leaves)
    start = 0
    for i in range(k):
        if branch[leaves[i]] != branch[leaves[i - 1]]:
            start = i
            break
    rotated = leaves[start:] + leaves[:start]
    components: list[list[int]] = []
    for leaf in rotated:
        if components and branch[components[-1][-1]] == branch[leaf]:
            components[-1].append(leaf)
        else:
            components.append([leaf])
    assert len(components) == t.max_degree(), "each branch is one block"
    return ComponentProfile(
        hub=hub,
        components=tuple(tuple(c) for c in components),
        tree_dist=tuple(dist),
    )


def lemma32_violated(p: ComponentProfile) -> bool:
    """Two cyclically adjacent branches each owning >= 2 outer vertices."""
    c = len(p.components)
    return any(
        len(p.components[i]) >= 2 and len(p.components[(i + 1) % c]) >= 2
        for i in range(c)
    )


def lemma33_violated(p: ComponentProfile) -> bool:
    """A cycle edge crossing branches with tree-distance sum >= 5.

    The cycle edges that cross branches are exactly the joins of
    cyclically consecutive components.
    """
    comps = p.components
    dist = p.tree_dist
    return any(
        dist[comps[i - 1][-1]] + dist[comps[i][0]] >= 5
        for i in range(len(comps))
    )


def is_halin(g: Graph) -> bool:
    """No degree-2 vertex: the underlying tree never subdivides an edge."""
    return all(g.degree(v) >= 3 for v in range(g.n))


def parse_family_spec(spec: str) -> HalinGraph:
    """Build a named wheel-family member from "W:n", "W1:n", or "W2:n"."""
    kind, sep, num = spec.partition(":")
    if not sep or not num:
        raise HalinError(f"malformed family spec {spec!r}, want KIND:n")
    try:
        n = int(num)
    except ValueError:
        raise HalinError(f"malformed family spec {spec!r}: bad count") from None
    builders = {"W": wheel, "W1": wheel_sub1, "W2": wheel_sub2}
    if kind not in builders:
        raise HalinError(
            f"unknown family {kind!r}; expected one of W, W1, W2"
        )
    return builders[kind](n)
