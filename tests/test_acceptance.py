"""Acceptance gate: one test per success criterion.

Each test asserts the criterion with exact rational arithmetic and then
prints a single PASS line (visible with `pytest -s` or in captured
output); a failing criterion shows up as a failing test.
"""
import random
from fractions import Fraction

from ricci_halin.canonical import canonical_form
from ricci_halin.curvature import (
    c3c4_upper_bound,
    check_coupling_certificate,
    critical_alpha,
    curvature_report,
    kappa_alpha,
    kappa_lly,
    kappa_lly_dual,
)
from ricci_halin.enumeration import (
    enumerate_halin,
    prune_negative,
    shape_max_degree,
)
from ricci_halin.halin import PlaneTree, build_halin, wheel

from oracles import random_connected_graph, random_tree
from test_certificates import hub_spoke_coupling, rim_edge_coupling

F = Fraction


def test_criterion_1_positive_classification(verification13):
    result = verification13.result
    assert verification13.ok, verification13.failures
    assert len(result.classes) == 27
    assert result.counts == {"W": 9, "W1": 5, "W2": 5, "sporadic": 8}
    assert all(e.n <= 12 for e in result.classes)
    by_kind = {}
    for e in result.classes:
        by_kind.setdefault(e.family.kind, []).append(e.family.param)
    assert sorted(by_kind["W"]) == list(range(4, 13))
    assert sorted(by_kind["W1"]) == list(range(5, 10))
    assert sorted(by_kind["W2"]) == list(range(6, 11))
    print(
        "PASS criterion 1: 27 positively curved classes up to 12 vertices "
        "(9 wheels, 5 once-subdivided, 5 twice-subdivided, 8 sporadic), "
        "none on 13 vertices"
    )


def test_criterion_2_halin_only_count(verification13):
    halin = verification13.result.halin_classes()
    assert len(halin) == 11
    kinds = sorted(e.family.kind for e in halin)
    assert kinds == ["W"] * 9 + ["sporadic"] * 2
    print("PASS criterion 2: Halin-only filter leaves 11 classes "
          "(9 wheels + 2 sporadic)")


def test_criterion_3_five_wheel_edges_and_couplings():
    g = wheel(5).graph
    for e in g.edges():
        assert kappa_lly(g, e) == 1
        assert kappa_lly_dual(g, e) == 1
    alpha = F(1, 4)
    assert check_coupling_certificate(g, hub_spoke_coupling(alpha)) == 1
    assert check_coupling_certificate(g, rim_edge_coupling(alpha)) == 1
    print("PASS criterion 3: every 5-wheel edge has curvature 1 by both "
          "routes; both explicit couplings at idleness 1/4 certify 1")


def test_criterion_4_boundary_between_12_and_13():
    assert curvature_report(wheel(12).graph).positively_curved
    hub_value = kappa_lly(wheel(13).graph, (0, 1))
    assert hub_value <= 0
    assert hub_value == F(8, 12) - F(2, 3) == 0
    print("PASS criterion 4: 12-wheel positive everywhere; 13-wheel hub "
          "edge curvature equals 8/12 - 2/3 = 0")


def test_criterion_5_deep_zero_curvature_witness(classification13):
    # hub of tree-degree 4; two opposite branches carry two leaves each,
    # the other two are bare leaves
    witness = build_halin(PlaneTree.from_shape((((), ()), (), ((), ()), ())))
    assert witness.source_tree.max_degree() == 4
    report = curvature_report(witness.graph)
    assert report.min_curvature == 0
    zero_forms = {e.canonical for e in classification13.zero_classes}
    assert canonical_form(witness.graph) in zero_forms
    degree4_zeros = [
        e for e in classification13.zero_classes
        if shape_max_degree(e.source_shape) == 4
    ]
    assert degree4_zeros
    print("PASS criterion 5: the enumerator reports a maximum-tree-degree-4 "
          "class of minimum curvature exactly 0, including the 9-vertex "
          "witness")


def test_criterion_6_primal_dual_equivalence(halin_reps9):
    assert len(halin_reps9) == 109
    checked = 0
    for h in halin_reps9:
        for e in h.graph.edges():
            assert kappa_lly(h.graph, e) == kappa_lly_dual(h.graph, e)
            checked += 1
    rng = random.Random(60609)
    for _ in range(1000):
        g = random_connected_graph(rng, rng.randint(2, 8), rng.randint(0, 10))
        for e in g.edges():
            assert kappa_lly(g, e) == kappa_lly_dual(g, e)
            checked += 1
    print(f"PASS criterion 6: transport and Lipschitz routes agree on all "
          f"{checked} edges (109 classes up to 9 vertices + 1000 random "
          f"graphs)")


def test_criterion_7_ratio_constancy():
    rng = random.Random(70707)
    for _ in range(500):
        g = random_connected_graph(rng, rng.randint(2, 8), rng.randint(0, 8))
        e = rng.choice(g.edges())
        floor = critical_alpha(g, e)
        a1, a2 = (
            floor + (1 - floor) * F(rng.randint(0, 19), 20) for _ in range(2)
        )
        r1 = kappa_alpha(g, e, a1) / (1 - a1)
        r2 = kappa_alpha(g, e, a2) / (1 - a2)
        assert r1 == r2 == kappa_lly(g, e)
    print("PASS criterion 7: curvature ratio is idleness-independent on "
          "500 random samples above the critical value")


def test_criterion_8_lemma_soundness(classification13):
    rng = random.Random(80808)
    bound_edges = 0
    for i in range(1000):
        if i % 2:
            g = random_tree(rng, rng.randint(4, 10))
        else:
            g = random_connected_graph(rng, rng.randint(4, 8), rng.randint(0, 2))
        for e in g.edges():
            bound = c3c4_upper_bound(g, e)
            if bound is not None:
                assert kappa_lly(g, e) <= bound
                bound_edges += 1
    for e in classification13.classes:
        h = build_halin(PlaneTree.from_shape(e.source_shape))
        assert not prune_negative(h.source_tree, h.graph)
    assert (
        enumerate_halin(10, use_pruning=True).classes
        == enumerate_halin(10, use_pruning=False).classes
    )
    print(f"PASS criterion 8: degree bound dominates curvature on "
          f"{bound_edges} cycle-free edges; the pruning rules discard no "
          f"positive class; pruned and unpruned sweeps agree up to 10 "
          f"vertices")
