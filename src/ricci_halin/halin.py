"""Plane trees and the leaf-cycle construction.

A plane tree here is a rooted tree with ordered children (the planar
embedding), numbered in preorder and held as one tuple `parent`, so
parent[v] < v.  One is built from a shape (nested tuples), or streamed
with every other tree on n vertices by `plane_trees`.  Joining its
leaves by a cycle in contour order (depth-first, children left to right;
a degree-1 root is itself a leaf and comes first), which is ascending id
order, produces a generalized Halin graph.  Both ways of making a tree
also keep its leaves (`leaves`) and its smallest vertex of maximum
degree (`hub`); `build_halin` and the layout predicates read those two
fields.  The module also builds the three wheel families and evaluates
the structural predicates that certify non-positive curvature from the
tree layout alone.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple

from .graph import Graph

Shape = tuple  # nested tuples; () is a leaf


class HalinError(ValueError):
    """Invalid plane tree, family parameter, or construction input."""


class PlaneTree:
    """Rooted ordered tree on vertices 0..n-1, numbered in preorder from
    the root 0 and held as its parent tuple (parent[0] = -1, else
    parent[v] < v); `from_shape` builds one from a shape, `plane_trees`
    streams every tree on n vertices."""

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
        return _plane_tree(tuple(parent), tuple(leaves), hub)

    def shape(self) -> Shape:
        """The shape `from_shape` numbers into this tree."""
        # children have larger ids than their parent, so each vertex's
        # child shapes are complete, last child first, when it is reached
        kids: list[list[Shape]] = [[] for _ in range(self.n)]
        for v in range(self.n - 1, 0, -1):
            kids[self.parent[v]].append(tuple(reversed(kids[v])))
        return tuple(reversed(kids[0]))

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


def _plane_tree(
    parent: tuple[int, ...], leaves: tuple[int, ...], hub: int
) -> PlaneTree:
    t = PlaneTree.__new__(PlaneTree)
    t.n = len(parent)
    t.parent = parent
    t.leaves = leaves
    t.hub = hub
    return t


def _hang(state: tuple, i: int) -> tuple:
    """The growth state after hanging the next vertex v below the i-th
    vertex of the rightmost path (see plane_trees)."""
    head, path, pdeg, settled, hub, top = state
    v = len(head)
    p = path[i]
    d = pdeg[i] + 1
    if d > top or (d == top and p < hub):
        hub, top = p, d
    return (
        head + (p,),
        path[:i + 1] + (v,),
        pdeg[:i] + (d, 1),
        settled + (v - 1,) if p != v - 1 else settled,
        hub,
        top,
    )


def plane_trees(
    n: int, prefix: tuple[int, ...] = (-1,)
) -> Iterator[PlaneTree]:
    """Every rooted ordered tree on n vertices whose parent tuple starts
    with `prefix` (by default all Catalan(n-1) of them), in increasing
    `parent` order, which for one n is increasing shape order.

    In preorder, vertex v hangs below a vertex of the rightmost path of
    the tree on 0..v-1, so the trees grow depth first, each choice made
    once for every tree that shares the prefix it ends.  A growth state
    holds that prefix (`head`), the rightmost path root first, the
    degrees of its vertices, the non-root leaves below v-1 (a vertex u
    is settled as a leaf once u+1 hangs elsewhere), and the hub and its
    degree, kept as `from_shape` defines them.  `prefix` must be the
    parent tuple of a tree on at most n vertices, else HalinError.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    k = len(prefix)
    if not 1 <= k <= n or prefix[0] != -1:
        raise HalinError(
            f"{prefix!r} is no parent tuple of a tree on at most {n} vertices"
        )
    if n == 1:
        yield _plane_tree((-1,), (), 0)
        return
    state: tuple = ((-1,), (0,), (0,), (), 0, 0)
    for v in range(1, k):
        path = state[1]
        if prefix[v] not in path:
            raise HalinError(
                f"{prefix!r}: vertex {v} must hang below one of {path}"
            )
        state = _hang(state, path.index(prefix[v]))
    stack = [state]
    while stack:
        state = stack.pop()
        head, path, pdeg, settled, hub, top = state
        if len(head) < n:
            # the child below the path's last vertex goes on the stack
            # first, so the one below the root comes off first
            stack.extend([_hang(state, i) for i in reversed(range(len(path)))])
        else:  # a whole tree: its last vertex is a leaf
            leaves = settled + (n - 1,)
            yield _plane_tree(
                head, (0,) + leaves if pdeg[0] == 1 else leaves, hub
            )


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


class ComponentProfile(NamedTuple):
    """Leaf layout of T - {hub}, read along the cycle.

    The outer vertices of each branch at the hub form one contiguous
    cyclic block of the cycle, a component.  `sizes` lists the
    components' sizes in cyclic order, starting with the one that holds
    the last leaf; `joins[i]` is the tree-distance sum of the two ends
    of the cycle edge from component i to component i+1 (cyclically).
    """

    hub: int
    tree_dist: tuple[int, ...]
    sizes: tuple[int, ...]
    joins: tuple[int, ...]


def tree_profile(t: PlaneTree) -> ComponentProfile:
    hub, parent, leaves = t.hub, t.parent, t.leaves
    if len(leaves) < 3:  # a path: the hub has fewer than 3 branches
        raise HalinError(
            f"maximum tree degree must be at least 3, got {t.max_degree()}"
        )
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
    # one pass over the cycle edges in contour order, from the one that
    # closes the cycle: a component ends where an edge crosses branches
    sizes = []
    joins = []
    run = 0
    x = leaves[-1]
    for y in leaves:
        if branch[x] != branch[y]:
            sizes.append(run)
            joins.append(dist[x] + dist[y])
            run = 0
        run += 1
        x = y
    sizes[0] += run  # the last component's run, which may wrap round
    assert len(sizes) == t.max_degree(), "each branch is one block"
    return ComponentProfile(hub, tuple(dist), tuple(sizes), tuple(joins))


def lemma32_violated(p: ComponentProfile) -> bool:
    """Two cyclically adjacent branches each owning >= 2 outer vertices."""
    prev = p.sizes[-1]
    for size in p.sizes:
        if size >= 2 and prev >= 2:
            return True
        prev = size
    return False


def lemma33_violated(p: ComponentProfile) -> bool:
    """A cycle edge crossing branches with tree-distance sum >= 5.

    The cycle edges that cross branches are exactly the joins of
    cyclically consecutive components.
    """
    return max(p.joins) >= 5


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
