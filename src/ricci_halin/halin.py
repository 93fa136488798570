"""Plane trees and the leaf-cycle construction.

A plane tree here is a rooted tree with an ordered child list per vertex
(the planar embedding).  Joining its leaves by a cycle in contour order
(depth-first, children left to right; a degree-1 root is itself a leaf
and comes first) produces a generalized Halin graph.  The module also
builds the three wheel families and evaluates the structural predicates
that certify non-positive curvature from the tree layout alone.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .graph import Graph, normalize_edge

Shape = tuple  # nested tuples; () is a leaf


class HalinError(ValueError):
    """Invalid plane tree, family parameter, or construction input."""


class PlaneTree:
    """Rooted ordered tree on vertices 0..n-1 with root 0."""

    __slots__ = ("n", "children", "parent")

    def __init__(self, children: Sequence[Sequence[int]]):
        self.n = len(children)
        self.children = tuple(tuple(c) for c in children)
        parent = [-1] * self.n
        seen = 0
        for v, kids in enumerate(self.children):
            for c in kids:
                if not 0 <= c < self.n:
                    raise HalinError(f"child id {c} out of range")
                if parent[c] != -1 or c == 0:
                    raise HalinError(f"vertex {c} has two parents or is root")
                parent[c] = v
                seen += 1
        if seen != self.n - 1:
            raise HalinError("child lists do not form a tree rooted at 0")
        # reachability from the root ensures a single connected tree
        stack = [0]
        reached = 1
        while stack:
            v = stack.pop()
            stack.extend(self.children[v])
            reached += len(self.children[v])
        if reached != self.n:
            raise HalinError("tree is not connected")
        self.parent = tuple(parent)
        if self.n < 4:
            raise HalinError(f"need at least 4 vertices, got {self.n}")
        if self.max_degree() < 3:
            raise HalinError("maximum tree degree must be at least 3")

    @classmethod
    def from_shape(cls, shape: Shape) -> "PlaneTree":
        children: list[list[int]] = []

        def build(sub: Shape) -> int:
            me = len(children)
            children.append([])
            for child_shape in sub:
                c = build(child_shape)
                children[me].append(c)
            return me

        build(shape)
        return cls(children)

    def tree_degree(self, v: int) -> int:
        return len(self.children[v]) + (1 if v != 0 else 0)

    def max_degree(self) -> int:
        return max(self.tree_degree(v) for v in range(self.n))

    def is_leaf(self, v: int) -> bool:
        return self.tree_degree(v) == 1

    def contour_leaves(self) -> tuple[int, ...]:
        """Leaves in the cyclic order traced by the embedding's outer face.

        Depth-first preorder with children left to right; a degree-1 root
        is the first leaf met on the contour.
        """
        out = []
        stack = [0]
        while stack:
            v = stack.pop()
            if self.tree_degree(v) == 1:
                out.append(v)
            stack.extend(reversed(self.children[v]))
        return tuple(out)

    def tree_edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(
            normalize_edge(self.parent[v], v) for v in range(1, self.n)
        )

    def __repr__(self) -> str:
        return f"PlaneTree(n={self.n}, children={self.children})"


@dataclass(frozen=True)
class HalinGraph:
    """A plane tree plus the cycle through its leaves."""

    graph: Graph
    tree_edges: tuple[tuple[int, int], ...]
    leaf_order: tuple[int, ...]
    source_tree: PlaneTree

    @property
    def n(self) -> int:
        return self.graph.n


def halin_edges(
    t: PlaneTree,
) -> tuple[tuple[tuple[int, int], ...], tuple[tuple[int, int], ...], tuple[int, ...]]:
    """(tree edges, cycle edges, leaf order) without building the Graph."""
    leaves = t.contour_leaves()
    assert len(leaves) >= 3, "max degree >= 3 forces at least 3 leaves"
    k = len(leaves)
    cycle = tuple(
        normalize_edge(leaves[i], leaves[(i + 1) % k]) for i in range(k)
    )
    return t.tree_edges(), cycle, leaves


def build_halin(t: PlaneTree) -> HalinGraph:
    tree_e, cycle_e, leaves = halin_edges(t)
    g = Graph(t.n, tree_e + cycle_e)
    for v in leaves:
        assert g.degree(v) == 3
    assert g.num_edges() == t.n - 1 + len(leaves)
    return HalinGraph(g, tree_e, leaves, t)


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
    component_of: dict[int, int]
    tree_dist: tuple[int, ...]
    leaf_order: tuple[int, ...]


def tree_profile(t: PlaneTree) -> ComponentProfile:
    dmax = t.max_degree()
    hub = min(v for v in range(t.n) if t.tree_degree(v) == dmax)
    # one walk from the hub: tree distance, and the branch id (the hub's
    # tree neighbour that leads to the vertex); the root's parent is -1
    dist = [-1] * t.n
    branch = [-1] * t.n
    dist[hub] = 0
    stack = [hub]
    while stack:
        v = stack.pop()
        for w in (*t.children[v], t.parent[v]):
            if w >= 0 and dist[w] < 0:
                dist[w] = dist[v] + 1
                branch[w] = w if v == hub else branch[v]
                stack.append(w)
    leaves = t.contour_leaves()
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
    assert len(components) == dmax, "each branch is one contiguous block"
    component_of = {
        leaf: idx for idx, comp in enumerate(components) for leaf in comp
    }
    return ComponentProfile(
        hub=hub,
        components=tuple(tuple(c) for c in components),
        component_of=component_of,
        tree_dist=tuple(dist),
        leaf_order=leaves,
    )


def lemma32_violated(p: ComponentProfile) -> bool:
    """Two cyclically adjacent branches each owning >= 2 outer vertices."""
    c = len(p.components)
    return any(
        len(p.components[i]) >= 2 and len(p.components[(i + 1) % c]) >= 2
        for i in range(c)
    )


def lemma33_violated(p: ComponentProfile) -> bool:
    """A cycle edge crossing branches with tree-distance sum >= 5."""
    k = len(p.leaf_order)
    for i in range(k):
        a = p.leaf_order[i]
        b = p.leaf_order[(i + 1) % k]
        if p.component_of[a] != p.component_of[b]:
            if p.tree_dist[a] + p.tree_dist[b] >= 5:
                return True
    return False


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
