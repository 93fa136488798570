"""Plane trees, the leaf-cycle construction, families, and layout predicates."""
import random

import pytest

from ricci_halin.canonical import are_isomorphic, canonical_form
from ricci_halin.curvature import curvature_report
from ricci_halin.enumeration import prune_negative
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
    tree_profile,
    wheel,
    wheel_sub1,
    wheel_sub2,
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
    assert t.children == ((1, 2, 5), (), (3, 4), (), (), ())
    assert t.parent == (-1, 0, 0, 2, 2, 0)
    assert t.tree_degree(0) == 3 and t.tree_degree(2) == 3
    assert t.is_leaf(1) and not t.is_leaf(2)


def test_plane_tree_validation():
    with pytest.raises(HalinError, match="two parents"):
        PlaneTree(((1, 2), (2,), ()))
    with pytest.raises(HalinError):
        PlaneTree(((1,), (0,)))  # root cannot be a child
    with pytest.raises(HalinError, match="at least 4"):
        PlaneTree(((1, 2), (), ()))
    with pytest.raises(HalinError, match="degree"):
        PlaneTree.from_shape(((((),),),))  # a path has max degree 2
    with pytest.raises(HalinError, match="not connected"):
        PlaneTree(((1,), (), (3,), (2,)))  # 2 and 3 orbit each other
    with pytest.raises(HalinError, match="out of range"):
        PlaneTree(((1, 7), (), ()))


def test_contour_order_is_depth_first():
    t = PlaneTree.from_shape(((), ((), ()), ()))
    assert t.contour_leaves() == (1, 3, 4, 5)
    assert t.tree_edges() == ((0, 1), (0, 2), (2, 3), (2, 4), (0, 5))


def test_degree_one_root_leads_the_contour():
    t = PlaneTree.from_shape((((), (), ()),))
    assert t.is_leaf(0)
    assert t.contour_leaves() == (0, 2, 3, 4)
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
    assert sorted(len(c) for c in p.components) == [1, 1, 1, 1]


def test_build_halin_structure():
    t = PlaneTree.from_shape(((), ((), ()), ()))
    tree_e, cycle_e, leaves = halin_edges(t)
    h = build_halin(t)
    assert h.leaf_order == (1, 3, 4, 5)
    assert set(h.tree_edges) == set(tree_e)
    assert cycle_e == ((1, 3), (3, 4), (4, 5), (1, 5))
    assert h.graph.num_edges() == (t.n - 1) + 4
    for v in leaves:
        assert h.graph.degree(v) == 3


def test_build_halin_invariants_on_random_trees():
    rng = random.Random(6021)
    built = 0
    while built < 60:
        shape = random_shape(rng, rng.randint(4, 11))
        try:
            t = PlaneTree.from_shape(shape)
        except HalinError:
            continue  # max degree < 3
        built += 1
        h = build_halin(t)
        leaves = [v for v in range(t.n) if t.is_leaf(v)]
        assert sorted(h.leaf_order) == leaves
        assert h.graph.num_edges() == t.n - 1 + len(leaves)
        for v in range(t.n):
            expected = t.tree_degree(v) + (2 if t.is_leaf(v) else 0)
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
    assert len(p.components) == 5
    assert all(len(c) == 1 for c in p.components)
    assert not lemma32_violated(p)
    assert not lemma33_violated(p)


def test_profile_groups_leaves_by_branch():
    # root with a 2-leaf branch, a bare leaf, another 2-leaf branch, a leaf
    t = PlaneTree.from_shape((((), ()), (), ((), ()), ()))
    p = tree_profile(t)
    assert p.hub == 0
    sizes = sorted(len(c) for c in p.components)
    assert sizes == [1, 1, 2, 2]
    for comp in p.components:
        assert len({p.component_of[v] for v in comp}) == 1


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


def pruned(h):
    return prune_negative(h.source_tree, h.graph)


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
        shape = random_shape(rng, rng.randint(4, 9))
        try:
            t = PlaneTree.from_shape(shape)
        except HalinError:
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
