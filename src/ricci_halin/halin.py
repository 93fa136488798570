"""Plane trees and the leaf-cycle construction.

A plane tree here is a rooted tree with ordered children (the planar
embedding), numbered in preorder and held as one tuple `parent`, so
parent[v] < v.  One is built from a shape (nested tuples), or streamed
with every other tree on n vertices by `plane_trees`.  Joining its
leaves by a cycle in contour order (depth-first, children left to right;
a degree-1 root is itself a leaf and comes first), which is ascending id
order, produces a generalized Halin graph.  The cycle is the same from
every corner the tree could be rooted at, so `centroid_trees` streams
each unrooted plane tree once, rooted at a centroid, and
`corner_rootings` lists its rootings.  However a tree is made, its
leaves (`leaves`) and its smallest vertex of maximum degree (`hub`) are
read off its parent tuple in one place; `build_halin` and the layout
predicates read those two fields.  The module also builds the three
wheel families and evaluates the structural predicates that certify
non-positive curvature from the tree layout alone.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, NamedTuple

from .graph import Graph, _decimal

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
        """Number a shape's vertices in preorder.  Paths are accepted;
        anything in a shape that is not a tuple raises HalinError."""
        parent: list[int] = []
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
            stack.extend(reversed(sub))
            ups.extend([v] * len(sub))
        return _from_parent(tuple(parent))

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

    def tree_edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(zip(self.parent[1:], range(1, self.n)))

    def __repr__(self) -> str:
        return f"PlaneTree(n={self.n}, parent={self.parent})"


def _from_parent(parent: tuple[int, ...]) -> PlaneTree:
    """The tree with this preorder parent tuple, its leaves (a degree-1
    root among them) and hub read off its degrees; the tuple is trusted,
    not checked."""
    deg = [1] * len(parent)
    deg[0] = 0
    for p in parent[1:]:
        deg[p] += 1
    t = PlaneTree.__new__(PlaneTree)
    t.n = len(parent)
    t.parent = parent
    t.leaves = tuple(v for v, d in enumerate(deg) if d == 1)
    t.hub = deg.index(max(deg))
    return t


def plane_trees(n: int) -> Iterator[PlaneTree]:
    """Every rooted ordered tree on n vertices, Catalan(n-1) of them, in
    increasing `parent` order, which for one n is increasing shape order.

    In preorder, vertex v hangs below a vertex of the rightmost path of
    the tree on 0..v-1, so the trees grow depth first, each choice made
    once for every tree that shares the prefix it ends.  A growth state
    holds that prefix and the rightmost path, root first.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    stack: list[tuple[tuple[int, ...], tuple[int, ...]]] = [((-1,), (0,))]
    while stack:
        head, path = stack.pop()
        v = len(head)
        if v == n:
            yield _from_parent(head)
            continue
        # the child below the path's last vertex goes on the stack first,
        # so the one below the root comes off first
        for i in range(len(path) - 1, -1, -1):
            stack.append((head + (path[i],), path[:i + 1] + (v,)))


@lru_cache(maxsize=None)
def _parents(k: int) -> tuple[tuple[int, ...], ...]:
    """The parent tuples of `plane_trees(k)`, in its order."""
    return tuple(t.parent for t in plane_trees(k))


def _is_least_rotation(seq: tuple[int, ...]) -> bool:
    """Whether no rotation of seq is smaller; no entry of seq is less
    than its first."""
    for r in range(1, len(seq)):
        # a rotation that does not start with seq[0] is larger
        if seq[r] == seq[0] and seq[r:] + seq[:r] < seq:
            return False
    return True


def centroid_trees(
    n: int, first: tuple[int, ...] | None = None
) -> Iterator[PlaneTree]:
    """Every plane tree on n >= 2 vertices once.  A plane tree has
    2(n-1) corners, and rooted at each it reads as one of the trees of
    `plane_trees(n)`; `corner_rootings` lists them.

    A plane tree is rooted here at a centroid, a vertex none of whose
    branches has more than n/2 vertices, so that no rooting need be
    compared.  If one vertex c has every branch of at most (n-1)//2
    vertices, c is the only centroid, and the tree is the necklace of
    its branches read round c, each a rooted ordered tree.  Branches are
    ordered by size, larger first, then by `parent`; the tree is rooted
    at a corner of c where the sequence of its branches is least among
    its rotations.  Otherwise n is even and two adjacent centroids split
    the tree into rooted trees A <= B on n/2 vertices, each read from
    the corner after the other; the tree is rooted at A's root, B's root
    its first child.

    `first`, the parent tuple of a tree on k <= n/2 vertices, keeps the
    trees whose least branch sequence starts with it (k < n/2) or whose
    A it is (k = n/2); over all such tuples these part the stream.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    half = (n - 1) // 2
    if first is not None and not (
        1 <= len(first) <= n // 2
        and first in _parents(len(first))
    ):
        raise HalinError(
            f"{first!r} is no parent tuple of a tree on at most {n // 2} "
            f"vertices"
        )
    if first is None or len(first) <= half:
        # branch i: its parent tuple without the root's -1, and its size;
        # larger first, so that a sequence starts with a largest branch
        # and the units keyed on it share out the work
        branches = [p for k in range(half, 0, -1) for p in _parents(k)]
        tails = [p[1:] for p in branches]
        size = [len(p) for p in branches]
        # fits[k]: the first branch on at most k vertices
        fits = {k: size.index(k) for k in range(1, half + 1)}
        heads = (
            range(len(branches)) if first is None
            else [branches.index(first)]
        )
        for h in heads:
            # the other branches of a least sequence are >= its first
            stack = [((h,), n - 1 - size[h])]
            while stack:
                seq, rest = stack.pop()
                if rest:
                    lo = max(h, fits[min(rest, half)])
                    stack.extend(
                        (seq + (j,), rest - size[j])
                        for j in range(len(branches) - 1, lo - 1, -1)
                    )
                    continue
                if _is_least_rotation(seq):
                    parent = [-1]
                    for j in seq:
                        o = len(parent)
                        parent.append(0)
                        parent.extend([q + o for q in tails[j]])
                    yield _from_parent(tuple(parent))
    if n % 2 == 0 and (first is None or len(first) == n // 2):
        k = n // 2
        halves = _parents(k)
        for i, a in enumerate(halves):
            if first is not None and a != first:
                continue
            rest = tuple(q + k if q else 0 for q in a[1:])
            for b in halves[i:]:
                parent = (-1, 0) + tuple(q + 1 for q in b[1:]) + rest
                yield _from_parent(parent)


def corner_rootings(t: PlaneTree) -> Iterator[tuple[tuple[int, ...], int]]:
    """t's plane tree rooted at each of its 2(n-1) corners: the preorder
    parent tuple, and the hub (the first vertex of maximum degree in
    that preorder) by its id in t.  A tree with rotational symmetry
    gives each of its rooted trees from several corners."""
    n, parent = t.n, t.parent
    # each vertex's neighbours in cyclic order: its parent, then its
    # children left to right (they come in increasing id order)
    ring: list[list[int]] = [[] for _ in range(n)]
    for v in range(1, n):
        ring[v].append(parent[v])
        ring[parent[v]].append(v)
    top = max(map(len, ring))
    for r in range(n):
        around = ring[r]
        for i in range(len(around)):
            out = [-1]
            hub = r if len(around) == top else -1
            # (vertex, new id of its parent, its parent)
            stack = [(w, 0, r) for w in reversed(around[i:] + around[:i])]
            while stack:
                u, up, w = stack.pop()
                me = len(out)
                out.append(up)
                ru = ring[u]
                if hub < 0 and len(ru) == top:
                    hub = u
                j = ru.index(w)
                stack.extend((x, me, u) for x in reversed(ru[j + 1:] + ru[:j]))
            yield tuple(out), hub


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
            "maximum tree degree must be at least 3, got "
            f"{t.tree_degree(t.hub)}"
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


def tree_profile(t: PlaneTree, hub: int | None = None) -> ComponentProfile:
    """The layout at `hub`, by default t's hub; any vertex of maximum
    degree gives the profile that t rooted at one of its corners has."""
    parent, leaves = t.parent, t.leaves
    if hub is None:
        hub = t.hub
    if len(leaves) < 3:  # a path: the hub has fewer than 3 branches
        raise HalinError(
            "maximum tree degree must be at least 3, got "
            f"{t.tree_degree(t.hub)}"
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
    assert len(sizes) == t.tree_degree(hub), "each branch is one block"
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
    """Build a named wheel-family member from "W:n", "W1:n", or "W2:n",
    n in plain ASCII decimal."""
    kind, sep, num = spec.partition(":")
    if not sep or not num:
        raise HalinError(f"malformed family spec {spec!r}, want KIND:n")
    n = _decimal(num)
    if n is None:
        raise HalinError(f"malformed family spec {spec!r}: bad count")
    builders = {"W": wheel, "W1": wheel_sub1, "W2": wheel_sub2}
    if kind not in builders:
        raise HalinError(
            f"unknown family {kind!r}; expected one of W, W1, W2"
        )
    return builders[kind](n)
