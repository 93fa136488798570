"""Exhaustive classification: generation, dedup, families, verification."""
from fractions import Fraction

import pytest

import ricci_halin.enumeration as enumeration
from ricci_halin.canonical import are_isomorphic, canonical_form
from ricci_halin.curvature import CurvatureReport, c3c4_upper_bound
from ricci_halin.graph import Graph
from ricci_halin.enumeration import (
    EXPECTED_COUNTS,
    EXPECTED_HALIN,
    EXPECTED_TOTAL,
    FamilyLabel,
    _classify_chunk,
    _degree_bound_prunes,
    _kept_corners,
    _layout_prunes,
    _rooted_trees,
    _survivors,
    _units,
    classification_to_json_dict,
    enumerate_halin,
    ordered_tree_shapes,
    recognize_family,
    verify_theorem,
)
from ricci_halin.halin import (
    PlaneTree,
    build_halin,
    corner_rootings,
    halin_edges,
    plane_trees,
    wheel,
    wheel_sub2,
)

from oracles import distinct_halin_graphs, rooted_sweep

F = Fraction

CATALAN = [1, 1, 2, 5, 14, 42, 132, 429]


def test_ordered_tree_counts_are_catalan():
    for n in range(1, 9):
        assert len(ordered_tree_shapes(n)) == CATALAN[n - 1]
    with pytest.raises(ValueError):
        ordered_tree_shapes(0)


def test_shapes_are_distinct_and_degree_matches_tree():
    def degrees(shape, up=0):
        """Tree degrees in preorder, read off the nested tuples."""
        yield len(shape) + up
        for child in shape:
            yield from degrees(child, 1)

    for n in range(4, 9):
        shapes = ordered_tree_shapes(n)
        assert len(set(shapes)) == len(shapes)
        for shape in shapes:
            t = PlaneTree.from_shape(shape)
            degs = list(degrees(shape))
            assert [t.tree_degree(v) for v in range(t.n)] == degs
            assert t.tree_degree(t.hub) == max(degs)


def test_smallest_plane_trees_build_k4():
    # the star, plus the star re-rooted at a leaf; paths are filtered out
    trees = [
        t
        for t in map(PlaneTree.from_shape, ordered_tree_shapes(4))
        if t.tree_degree(t.hub) >= 3
    ]
    assert len(trees) == 2
    assert {t.parent for t in trees} == {(-1, 0, 0, 0), (-1, 0, 1, 1)}
    k4 = Graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    for t in trees:
        assert are_isomorphic(build_halin(t).graph, k4)


def test_family_label_formatting():
    assert str(FamilyLabel("W", 5)) == "W_5"
    assert str(FamilyLabel("W1", 5)) == "W'_5"
    assert str(FamilyLabel("W2", 6)) == "W''_6"
    assert str(FamilyLabel("sporadic", 3)) == "H_3"
    assert str(FamilyLabel("sporadic", None)) == "H_?"


def test_recognize_family_is_labeling_invariant():
    def family(h):
        return recognize_family(h.n, canonical_form(h.graph))

    # the 5-wheel grown from a degree-1 root instead of the hub
    h = build_halin(PlaneTree.from_shape((((), (), ()),)))
    assert family(h) == FamilyLabel("W", 5)
    # a doubly subdivided 8-wheel with the subdivisions moved one spoke over
    rotated = build_halin(PlaneTree.from_shape(((), ((),), (), ((),), ())))
    assert family(rotated) == FamilyLabel("W2", 8)
    assert canonical_form(rotated.graph) == canonical_form(wheel_sub2(8).graph)
    prism = build_halin(PlaneTree.from_shape(((), (), ((), ()))))
    assert family(prism) == FamilyLabel("sporadic", None)


def test_single_class_at_four_vertices():
    result = enumerate_halin(4)
    assert len(result.classes) == 1
    entry = result.classes[0]
    assert entry.family == FamilyLabel("W", 4)
    assert entry.report.min_curvature == F(4, 3)
    assert entry.halin


# every generalized Halin graph on <= 6 vertices, none pruned, all positive
CLASSES_UP_TO_6 = [
    (4, "W_4", F(4, 3), b"C~", True),
    (5, "W_5", F(1), b"D]{", True),
    (5, "W'_5", F(2, 3), b"Dr[", False),
    (6, "W_6", F(2, 3), b"ELrw", True),
    (6, "H_1", F(2, 3), b"ENjG", True),
    (6, "W''_6", F(1, 2), b"EYcw", False),
    (6, "W'_6", F(1, 2), b"EiMw", False),
    (6, "H_2", F(1, 6), b"EkKw", False),
]


def test_classification_up_to_six_vertices():
    result = enumerate_halin(6)
    got = [
        (e.n, str(e.family), e.report.min_curvature, e.canonical, e.halin)
        for e in result.classes
    ]
    assert got == CLASSES_UP_TO_6
    assert result.counts == {"W": 3, "W1": 2, "W2": 1, "sporadic": 2}
    assert result.counts_by_n == {4: 1, 5: 2, 6: 5}
    assert result.zero_classes == ()
    assert result.pruned_count == 0
    assert result.generated_count == 49


def test_class_entries_are_canonically_labeled():
    for e in enumerate_halin(6).classes:
        assert canonical_form(e.graph) == e.canonical
        assert [edge for edge, _ in e.report.edge_curvature] == e.graph.edges()


def test_unit_split_and_order_do_not_change_survivors():
    units = _units(10, True)
    # n = 10 is split by the first branch at the centroid: 1 + 1 + 2 + 5
    # necklace heads of 1..4 vertices, and 14 halves of 5 vertices
    assert sum(1 for n, _, _ in units if n == 10) == 23
    whole = [(n, None, True) for n in range(4, 11)]
    assert _survivors(units, 1) == _survivors(whole, 1) == _survivors(
        units[::-1], 1
    )


@pytest.mark.parametrize("use_pruning", [True, False])
@pytest.mark.parametrize("workers", [2, 3])  # two pool sizes
def test_parallel_run_matches_serial(workers, use_pruning):
    # the pool maps units that split each n, not only whole-n ones
    assert sum(1 for n, _, _ in _units(9, use_pruning) if n == 9) > 1
    assert enumerate_halin(
        9, use_pruning, workers=workers
    ) == enumerate_halin(9, use_pruning, workers=1)


def test_pool_is_no_larger_than_the_units(monkeypatch):
    import multiprocessing

    asked = []

    class NoPool:
        """Records the size asked for and maps in-process."""

        def __init__(self, processes):
            asked.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap_unordered(self, func, units):
            return map(func, units)

    monkeypatch.setattr(multiprocessing, "Pool", NoPool)
    assert len(_units(4, True)) == 2
    assert enumerate_halin(4, workers=8) == enumerate_halin(4)
    assert asked == [2]


@pytest.mark.parametrize("n", range(4, 11))
def test_kept_corners_apply_the_rooted_rule(n):
    # one rooting at a time, the sweep's verdict is the rooted sweep's:
    # t is kept unless the layout rules at its own hub or the degree
    # bound on its graph prune it
    for t in plane_trees(n):
        if len(t.leaves) < 3:  # a path
            continue
        masks, corners = _kept_corners(t)
        tree_e, cycle_e = halin_edges(t)
        want = not (
            _layout_prunes(t)
            or _degree_bound_prunes(masks, cycle_e + tree_e)
        )
        assert (t.parent in corners) == want
        assert tuple(masks) == build_halin(t).graph._masks
        _, every = _kept_corners(t, use_pruning=False)
        assert every == {p for p, _ in corner_rootings(t)}
        assert t.parent in every
        assert corners <= every


@pytest.mark.parametrize(
    "n, use_pruning",
    [(n, True) for n in range(4, 13)] + [(n, False) for n in range(4, 11)],
)
def test_sweep_matches_the_rooted_sweep(n, use_pruning):
    # one visit per plane tree gives what one visit per rooted tree gives:
    # the classes, each one's least parent tuple and the count kept; and
    # the closed form counts the rooted trees that the visit examines
    survivors, pruned, generated = rooted_sweep(n, use_pruning)
    assert _classify_chunk((n, None, use_pruning)) == (
        survivors, generated - pruned
    )
    assert _rooted_trees(n) == generated


def test_sweep_builds_no_graph(monkeypatch):
    built = []
    real_init = Graph.__init__

    def counting_init(self, *args):
        built.append(args[0])
        real_init(self, *args)

    monkeypatch.setattr(Graph, "__init__", counting_init)
    _survivors(_units(9, True), 1)
    assert built == []


def test_mask_bound_decides_as_the_fraction_bound():
    # every layout survivor with n <= 9: the sweep's integer bound on the
    # masks prunes exactly when c3c4_upper_bound on the Graph is <= 0
    checked = pruned = 0
    for n in range(4, 10):
        for t in plane_trees(n):
            if t.tree_degree(t.hub) < 3 or _layout_prunes(t):
                continue
            g = build_halin(t).graph
            bounds = [c3c4_upper_bound(g, e) for e in g.edges()]
            want = any(b is not None and b <= 0 for b in bounds)
            tree_e, cycle_e = halin_edges(t)
            assert _degree_bound_prunes(g._masks, cycle_e + tree_e) == want
            checked += 1
            pruned += want
    assert checked == sum(SWEEP_COUNTS[n][1] for n in range(4, 10))
    assert pruned == checked - sum(SWEEP_COUNTS[n][2] for n in range(4, 10))


# per n: trees of max degree >= 3, trees the layout rule keeps, trees all
# rules keep, and classes among those; pinned per n, as totals alone would
# hide errors that cancel out across n
SWEEP_COUNTS = {
    4: (2, 2, 2, 1),
    5: (10, 10, 10, 2),
    6: (37, 37, 37, 5),
    7: (126, 90, 78, 8),
    8: (422, 229, 65, 6),
    9: (1422, 584, 130, 9),
    10: (4853, 1547, 260, 15),
    11: (16786, 4227, 532, 23),
    12: (58775, 11901, 1102, 40),
}


@pytest.mark.parametrize("n", sorted(SWEEP_COUNTS))
def test_sweep_counts_per_n(n):
    layout_kept = sum(
        1 for t in plane_trees(n)
        if t.tree_degree(t.hub) >= 3 and not _layout_prunes(t)
    )
    survivors, kept = _classify_chunk((n, None, True))
    assert (_rooted_trees(n), layout_kept, kept, len(survivors)) == (
        SWEEP_COUNTS[n]
    )


def test_distinct_graphs_up_to_six_all_positively_curved():
    reps = list(distinct_halin_graphs(6))
    assert len(reps) == 8
    forms = [canonical_form(h.graph) for h in reps]
    assert sorted(set(forms)) == sorted(forms)
    assert set(forms) == {row[3] for row in CLASSES_UP_TO_6}


def test_enumerate_rejects_tiny_bound():
    with pytest.raises(ValueError):
        enumerate_halin(3)


def test_expected_count_constants_are_consistent():
    assert sum(EXPECTED_COUNTS.values()) == EXPECTED_TOTAL == 27
    assert EXPECTED_HALIN == 11


# the complete positively curved catalogue, frozen from the verified sweep
FULL_TABLE = CLASSES_UP_TO_6 + [
    (7, "H_3", F(1, 6), b"FFHKW", False),
    (7, "W_7", F(2, 3), b"FIefw", True),
    (7, "W''_7", F(1, 2), b"FKKuW", False),
    (7, "H_4", F(1, 4), b"FLG]W", False),
    (7, "W'_7", F(3, 10), b"FiClw", False),
    (7, "H_5", F(1, 6), b"FpLIg", False),
    (7, "H_6", F(1, 3), b"FrHGw", False),
    (7, "H_7", F(1, 3), b"Fy_Xw", True),
    (8, "W_8", F(10, 21), b"GHQSV{", True),
    (8, "W''_8", F(3, 10), b"GKK_m[", False),
    (8, "H_8", F(1, 6), b"G`T`c[", False),
    (8, "W'_8", F(1, 6), b"GiC_\\{", False),
    (9, "W_9", F(1, 3), b"HICcSJ~", True),
    (9, "W''_9", F(1, 6), b"HKG_grN", False),
    (9, "W'_9", F(1, 14), b"HiC_OM~", False),
    (10, "W_10", F(2, 9), b"IHOOSIA~w", True),
    (10, "W''_10", F(1, 14), b"IKGX?_Brw", False),
    (11, "W_11", F(2, 15), b"JIC_OIA_V~_", True),
    (12, "W_12", F(2, 33), b"KHOOOGA_S@^~", True),
]


def test_full_classification_table(classification13):
    got = [
        (e.n, str(e.family), e.report.min_curvature, e.canonical, e.halin)
        for e in classification13.classes
    ]
    assert got == FULL_TABLE
    assert classification13.counts_by_n == {
        4: 1, 5: 2, 6: 5, 7: 8, 8: 4, 9: 3, 10: 2, 11: 1, 12: 1
    }
    assert classification13.generated_count == 290433
    assert classification13.pruned_count == 285925


def test_sporadic_indices_follow_canonical_order(classification13):
    sporadics = [
        e for e in classification13.classes if e.family.kind == "sporadic"
    ]
    assert [e.family.param for e in sporadics] == list(range(1, 9))
    assert all(e.n <= 8 for e in sporadics)
    keys = [(e.n, e.canonical) for e in classification13.classes]
    assert keys == sorted(keys)
    zero_keys = [(e.n, e.canonical) for e in classification13.zero_classes]
    assert zero_keys == sorted(zero_keys)


def test_wheel13_and_the_deep_witness_land_in_the_zero_classes(
    classification13,
):
    zero_forms = {e.canonical for e in classification13.zero_classes}
    assert canonical_form(wheel(13).graph) in zero_forms
    witness = build_halin(PlaneTree.from_shape((((), ()), (), ((), ()), ())))
    assert canonical_form(witness.graph) in zero_forms
    for e in classification13.zero_classes:
        assert e.report.min_curvature == 0


def test_verification_report(verification13):
    assert verification13.ok
    assert verification13.failures == ()
    lines = verification13.lines()
    assert len(lines) == 27
    assert any("W_12" in line for line in lines)


def test_verify_rejects_small_bound():
    with pytest.raises(ValueError):
        verify_theorem(11)


def test_verify_detects_a_tampered_engine(monkeypatch):
    # negate one wheel's curvature: the catalogue check must fail
    target = canonical_form(wheel(8).graph)
    real = enumeration.curvature_report

    def tampered(g):
        rep = real(g)
        if canonical_form(g) == target:
            flipped = tuple((e, -k) for e, k in rep.edge_curvature)
            return CurvatureReport(flipped, -rep.min_curvature, False)
        return rep

    monkeypatch.setattr(enumeration, "curvature_report", tampered)
    report = verify_theorem(12)
    assert not report.ok
    assert any("counts" in f or "classes" in f for f in report.failures)


def test_json_payload_is_deterministic_and_complete():
    import json

    a = classification_to_json_dict(enumerate_halin(6))
    b = classification_to_json_dict(enumerate_halin(6))
    assert json.dumps(a) == json.dumps(b)
    assert set(a) == {
        "n_max", "use_pruning", "counts", "counts_by_n", "pruned_count",
        "generated_count", "classes", "zero_classes",
    }
    first = a["classes"][0]
    assert first == {
        "canonical_graph6": "C~",
        "n": 4,
        "family": "W_4",
        "min_curvature": "4/3",
        "edges": [[u, v, "4/3"] for u, v in
                  [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]],
    }
