"""Plane trees, the leaf-cycle construction, families, and layout predicates."""
import random
from math import comb

import pytest

from ricci_halin.canonical import are_isomorphic, canonical_form
from ricci_halin.curvature import curvature_report
from ricci_halin.enumeration import _kept_corners, ordered_tree_shapes
from ricci_halin.graph import Graph
from ricci_halin.halin import (
    HalinError,
    PlaneTree,
    build_halin,
    halin_edges,
    is_halin,
    lemma32_violated,
    lemma33_violated,
    parse_family_spec,
    centroid_trees,
    corner_rootings,
    plane_trees,
    tree_profile,
    wheel,
    wheel_sub1,
    wheel_sub2,
)

from oracles import (
    child_lists,
    contour_leaves_by_recursion,
    hub_bfs,
    lemma32_by_leaf_order,
    lemma33_by_leaf_order,
    ordered_forests,
)


def random_shape(rng, n):
    """Random rooted ordered tree on n vertices as nested tuples."""
    children = [[] for _ in range(n)]
    for v in range(1, n):
        children[rng.randrange(v)].append(v)

    def tup(v):
        return tuple(tup(c) for c in children[v])

    return tup(0)


def test_plane_tree_from_shape_uses_preorder_ids():
    t = PlaneTree.from_shape(((), ((), ()), ()))
    assert t.n == 6
    assert t.parent == (-1, 0, 0, 2, 2, 0)
    assert repr(t) == "PlaneTree(n=6, parent=(-1, 0, 0, 2, 2, 0))"
    assert t.tree_degree(0) == 3 and t.tree_degree(2) == 3
    assert t.tree_degree(1) == 1


def test_plane_trees_match_the_nested_shape_recursion():
    for n in range(1, 11):
        shapes = ordered_forests(n - 1)
        got = list(plane_trees(n))
        assert len(got) == comb(2 * n - 2, n - 1) // n  # Catalan(n-1)
        # the same trees, in increasing parent order, which is shape order
        want = [PlaneTree.from_shape(s) for s in sorted(shapes)]
        assert [(t.n, t.parent, t.leaves, t.hub) for t in got] == [
            (t.n, t.parent, t.leaves, t.hub) for t in want
        ]
        assert all(a.parent < b.parent for a, b in zip(got, got[1:]))
        for t in got:  # leaves and hub, by each vertex's own degree
            deg = [t.tree_degree(v) for v in range(n)]
            assert t.leaves == tuple(v for v in range(n) if deg[v] == 1)
            assert t.hub == min(v for v in range(n) if deg[v] == max(deg))


# plane trees on n = 4..13 vertices, paths included (OEIS A002995)
PLANE_TREE_COUNTS = {
    4: 2, 5: 3, 6: 6, 7: 14, 8: 34, 9: 95, 10: 280, 11: 854, 12: 2694,
    13: 8714,
}


def test_centroid_trees_count_the_plane_trees():
    for n, count in PLANE_TREE_COUNTS.items():
        assert sum(1 for _ in centroid_trees(n)) == count


def test_rootings_of_the_plane_trees_are_catalan_many():
    for n in range(2, 13):
        rootings = sum(
            len({p for p, _ in corner_rootings(t)}) for t in centroid_trees(n)
        )
        assert rootings == comb(2 * n - 2, n - 1) // n  # Catalan(n-1)


def test_centroid_trees_are_rooted_at_a_centroid():
    for n in range(2, 11):
        for t in centroid_trees(n):
            sizes = [0] * n  # subtree sizes, leaves up
            for v in range(n - 1, 0, -1):
                sizes[v] += 1
                sizes[t.parent[v]] += sizes[v]
            assert all(
                2 * sizes[v] <= n for v in range(1, n) if t.parent[v] == 0
            )


def _least_rotation(seq):
    return min(seq[i:] + seq[:i] for i in range(len(seq)))


def test_corner_rootings_part_the_rooted_stream():
    for n in range(2, 11):
        stream = {t.parent: t for t in plane_trees(n)}
        parted = []
        for t in centroid_trees(n):
            corners = list(corner_rootings(t))
            assert len(corners) == 2 * (n - 1)
            rooted = sorted({parent for parent, _ in corners})
            # each rooted tree comes from as many corners as any other
            s = len(corners) // len(rooted)
            assert all(
                [p for p, _ in corners].count(parent) == s
                for parent in rooted
            )
            for parent, hub in corners:
                # the rooting's own hub, named by its id in t, gives the
                # rooting's layout
                r = stream[parent]
                assert t.tree_degree(hub) == r.tree_degree(r.hub)
                if len(t.leaves) >= 3:
                    a, b = tree_profile(t, hub), tree_profile(r)
                    assert sorted(a.tree_dist) == sorted(b.tree_dist)
                    assert _least_rotation(a.sizes) == _least_rotation(b.sizes)
                    assert _least_rotation(a.joins) == _least_rotation(b.joins)
            parted.extend(rooted)
        assert sorted(parted) == list(stream)


def test_centroid_trees_under_each_first_branch_part_the_stream():
    for n in range(2, 12):
        stream = sorted(t.parent for t in centroid_trees(n))
        parted = sorted(
            t.parent
            for k in range(1, n // 2 + 1)
            for head in plane_trees(k)
            for t in centroid_trees(n, head.parent)
        )
        assert parted == stream


@pytest.mark.parametrize(
    "first",
    [
        (),
        (0,),
        (-1, 1),  # 1 below itself
        (-1, 0, 0, 1),  # 3 below 1, which has left the rightmost path
        (-1, 0, 1, 2),  # more than n/2 vertices
    ],
)
def test_centroid_trees_refuse_a_bad_first_branch(first):
    with pytest.raises(HalinError):
        list(centroid_trees(6, first))


def test_centroid_trees_need_an_edge():
    with pytest.raises(ValueError):
        list(centroid_trees(1))


def test_plane_trees_need_a_vertex():
    with pytest.raises(ValueError):
        list(plane_trees(0))


def test_shape_inverts_from_shape():
    for n in range(1, 10):
        for shape in ordered_forests(n - 1):
            assert PlaneTree.from_shape(shape).shape() == shape


@pytest.mark.parametrize(
    "shape",
    [
        "ab",  # a string is no shape, though its characters are strings
        ((), 5, ()),
        [(), (), ()],  # a list
        ((), [()], ()),
        ((), ((), None), ()),
        None,
    ],
)
def test_malformed_shapes_raise_halin_error(shape):
    with pytest.raises(HalinError, match="nested tuples"):
        PlaneTree.from_shape(shape)


def test_build_halin_refuses_paths():
    # a path's leaves close no cycle: at most 2 of them, max degree <= 2;
    # nor has it the 3 branches at a hub that the layout rule reads
    for shape in ((), ((),), ((), ()), ((((),),),)):
        t = PlaneTree.from_shape(shape)
        assert t.tree_degree(t.hub) <= 2 and len(t.leaves) <= 2
        with pytest.raises(HalinError, match="degree must be at least 3"):
            build_halin(t)
        with pytest.raises(HalinError, match="degree must be at least 3"):
            halin_edges(t)
        with pytest.raises(HalinError, match="degree must be at least 3"):
            tree_profile(t)


def test_contour_order_is_depth_first():
    t = PlaneTree.from_shape(((), ((), ()), ()))
    assert t.leaves == (1, 3, 4, 5)
    assert t.tree_edges() == ((0, 1), (0, 2), (2, 3), (2, 4), (0, 5))


def test_degree_one_root_leads_the_contour():
    t = PlaneTree.from_shape((((), (), ()),))
    assert t.tree_degree(0) == 1
    assert t.leaves == (0, 2, 3, 4)
    # joining those leaves produces the 5-wheel with hub 1
    h = build_halin(t)
    assert are_isomorphic(h.graph, wheel(5).graph)


def test_profile_distances_walk_both_directions():
    t = PlaneTree.from_shape(((), ((), ()), ()))
    assert tree_profile(t).tree_dist == (0, 1, 1, 2, 2, 1)
    # path 0-1-2 ending in a degree-4 hub: the walk climbs to the root
    t = PlaneTree.from_shape(((((), (), ()),),))
    p = tree_profile(t)
    assert p.hub == 2
    assert p.tree_dist == (2, 1, 0, 1, 1, 1)
    assert sorted(p.sizes) == [1, 1, 1, 1]


def test_hub_is_the_first_vertex_of_maximum_degree():
    # vertices 1 and 4 both have degree 3; the hub is the first, 1
    t = PlaneTree.from_shape((((), ()), ((), ())))
    assert t.leaves == (2, 3, 5, 6)
    assert t.hub == 1
    assert t.tree_degree(t.hub) == 3
    assert tree_profile(t).hub == 1
    # a later vertex of larger degree wins over an earlier tie
    t = PlaneTree.from_shape((((), ()), ((), ()), ((), (), ())))
    assert t.hub == 7 and t.tree_degree(t.hub) == 4


def test_build_halin_structure():
    t = PlaneTree.from_shape(((), ((), ()), ()))
    tree_e, cycle_e = halin_edges(t)
    h = build_halin(t)
    assert h.source_tree is t
    assert tree_e == t.tree_edges()
    assert cycle_e == ((1, 3), (3, 4), (4, 5), (1, 5))
    assert set(h.graph.edges()) == set(tree_e) | set(cycle_e)
    assert h.graph.num_edges() == (t.n - 1) + 4
    for v in t.leaves:
        assert h.graph.degree(v) == 3


def test_build_halin_invariants_on_random_trees():
    rng = random.Random(6021)
    built = 0
    while built < 60:
        t = PlaneTree.from_shape(random_shape(rng, rng.randint(4, 11)))
        if t.tree_degree(t.hub) < 3:
            continue
        built += 1
        h = build_halin(t)
        leaves = [v for v in range(t.n) if t.tree_degree(v) == 1]
        assert sorted(t.leaves) == leaves
        assert h.graph.num_edges() == t.n - 1 + len(leaves)
        for v in range(t.n):
            d = t.tree_degree(v)
            expected = d + (2 if d == 1 else 0)
            assert h.graph.degree(v) == expected
        assert is_halin(h.graph) == all(
            t.tree_degree(v) != 2 for v in range(t.n)
        )


def test_wheel_families_shapes_and_degrees():
    w6 = wheel(6)
    assert w6.n == 6
    assert w6.graph.degree(0) == 5
    assert all(w6.graph.degree(v) == 3 for v in range(1, 6))
    assert is_halin(w6.graph)

    s7 = wheel_sub1(7)
    degs = sorted(s7.graph.degree(v) for v in range(7))
    assert degs == [2, 3, 3, 3, 3, 3, 5]
    assert not is_halin(s7.graph)
    assert s7.graph.num_edges() == 2 * 7 - 3

    s8 = wheel_sub2(8)
    degs = sorted(s8.graph.degree(v) for v in range(8))
    assert degs == [2, 2, 3, 3, 3, 3, 3, 5]
    assert not is_halin(s8.graph)
    assert s8.graph.num_edges() == 2 * 8 - 4


def test_wheel4_is_complete():
    k4 = Graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    assert are_isomorphic(wheel(4).graph, k4)


def test_family_parameter_floors():
    with pytest.raises(HalinError):
        wheel(3)
    with pytest.raises(HalinError):
        wheel_sub1(4)
    with pytest.raises(HalinError):
        wheel_sub2(5)


def test_subdivided_wheels_differ_from_plain_wheels():
    assert not are_isomorphic(wheel_sub1(7).graph, wheel(7).graph)
    assert not are_isomorphic(wheel_sub2(8).graph, wheel_sub1(8).graph)


def test_parse_family_spec():
    assert parse_family_spec("W:5").graph == wheel(5).graph
    assert parse_family_spec("W1:7").graph == wheel_sub1(7).graph
    assert parse_family_spec("W2:8").graph == wheel_sub2(8).graph
    for bad in ["W", "W:", ":5", "W:x", "Q:5", "W1:three"]:
        with pytest.raises(HalinError):
            parse_family_spec(bad)
    with pytest.raises(HalinError):
        parse_family_spec("W:3")  # below the family floor


def test_profile_of_wheel_is_all_singletons():
    p = tree_profile(wheel(6).source_tree)
    assert p.hub == 0
    assert p.sizes == (1, 1, 1, 1, 1)
    assert p.joins == (2, 2, 2, 2, 2)
    assert not lemma32_violated(p)
    assert not lemma33_violated(p)


@pytest.mark.parametrize(
    "shape, hub, components",
    [
        # root with a 2-leaf branch, a bare leaf, another 2-leaf branch, a
        # leaf; the cycle's closing edge 8-2 crosses branches
        ((((), ()), (), ((), ()), ()), 0, [(8,), (2, 3), (4,), (6, 7)]),
        # the last two leaves share a branch, and the closing edge crosses
        (((), (), ((), ())), 0, [(4, 5), (1,), (2,)]),
        # a degree-1 root and the last leaf share a branch: the component
        # that holds the last leaf wraps round the closing edge
        (((((), (), ()), ()),), 2, [(6, 0), (3,), (4,), (5,)]),
    ],
)
def test_profile_groups_leaves_by_branch(shape, hub, components):
    t = PlaneTree.from_shape(shape)
    p = tree_profile(t)
    assert p.hub == hub
    # components in cyclic order, from the one that holds the last leaf
    assert p.sizes == tuple(len(c) for c in components)
    assert sorted(v for c in components for v in c) == list(t.leaves)
    after = components[1:] + components[:1]
    assert p.joins == tuple(
        p.tree_dist[c[-1]] + p.tree_dist[d[0]]
        for c, d in zip(components, after)
    )
    # each component is one whole branch: its leaves reach the hub through
    # one hub neighbour, and no two components share that neighbour
    branches = [{hub_neighbour_towards(t, p.hub, v) for v in comp}
                for comp in components]
    assert all(len(b) == 1 for b in branches)
    assert len(set.union(*branches)) == len(components)
    assert len(components) == t.tree_degree(t.hub)


def hub_neighbour_towards(t, hub, v):
    """The hub's tree neighbour on the path from v to the hub."""
    adj = {u: set() for u in range(t.n)}
    for a, b in t.tree_edges():
        adj[a].add(b)
        adj[b].add(a)
    prev = {v: None}
    stack = [v]
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if w not in prev:
                prev[w] = u
                stack.append(w)
    return prev[hub]


def test_hub_is_smallest_vertex_of_maximum_degree():
    # two degree-3 vertices: root 0 and vertex 2; the hub must be 0
    t = PlaneTree.from_shape(((), ((), ()), ()))
    assert tree_profile(t).hub == 0


def test_lemma32_detects_adjacent_multi_leaf_branches():
    violated = PlaneTree.from_shape((((), ()), ((), ()), ()))
    assert lemma32_violated(tree_profile(violated))
    ok = PlaneTree.from_shape((((), ()), (), ((), ()), ()))
    assert not lemma32_violated(tree_profile(ok))


def test_lemma33_detects_deep_cross_branch_cycle_edges():
    # leaf depths 3 and 2 in adjacent branches: 3 + 2 >= 5
    deep = PlaneTree.from_shape(((((),),), ((),), ()))
    assert lemma33_violated(tree_profile(deep))
    shallow = PlaneTree.from_shape((((),), ((),), ()))
    assert not lemma33_violated(tree_profile(shallow))


def test_layout_matches_leaf_order_reference_on_all_small_shapes():
    checked = 0
    for n in range(4, 11):
        for shape in ordered_tree_shapes(n):
            t = PlaneTree.from_shape(shape)
            if t.tree_degree(t.hub) < 3:
                continue
            children = child_lists(shape)
            p = tree_profile(t)
            hub, dist, _ = hub_bfs(children)
            assert t.leaves == contour_leaves_by_recursion(children)
            assert p.hub == hub
            assert p.tree_dist == tuple(dist[v] for v in range(t.n))
            assert lemma32_violated(p) == lemma32_by_leaf_order(children)
            assert lemma33_violated(p) == lemma33_by_leaf_order(children)
            checked += 1
    # Catalan(n - 1) shapes per n, less the n - 1 shapes of a path
    assert checked == sum((5, 14, 42, 132, 429, 1430, 4862)) - sum(range(3, 10))


def pruned(h):
    """The sweep's verdict on h's rooted tree: its corner is not kept."""
    t = h.source_tree
    return t.parent not in _kept_corners(t)[1]


def test_prune_negative_on_known_graphs():
    assert not pruned(wheel(12))
    assert not pruned(wheel(13))  # zero curvature passes the lemmas
    assert pruned(build_halin(PlaneTree.from_shape(
        (((), ()), ((), ()), ())
    )))
    # deep leaves force a long cross-branch cycle edge
    deep = build_halin(PlaneTree.from_shape(((((),),), ((),), ())))
    assert pruned(deep)


def test_pruned_trees_really_have_nonpositive_edges():
    rng = random.Random(1729)
    checked = 0
    while checked < 25:
        t = PlaneTree.from_shape(random_shape(rng, rng.randint(4, 9)))
        if t.tree_degree(t.hub) < 3:
            continue
        h = build_halin(t)
        if pruned(h):
            assert curvature_report(h.graph).min_curvature <= 0
            checked += 1


def test_wheel_sub2_subdivisions_hang_off_the_hub():
    for n in range(6, 12):
        h = wheel_sub2(n)
        subs = [v for v in range(h.n) if h.graph.degree(v) == 2]
        assert len(subs) == 2
        hub = 0
        a, b = (h.source_tree.parent[v] for v in subs)
        assert a == hub and b == hub
