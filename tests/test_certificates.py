"""Checkable curvature witnesses: Lipschitz functions and couplings.

The hand-built witnesses below (a rim-profile function on the 13-wheel,
its analogue on a subdivided 10-wheel, and two explicit couplings on the
5-wheel) pin down boundary values exactly: the wheel witnesses certify
upper bound 0, the couplings certify lower bound 1.
"""
import random
from fractions import Fraction

import pytest

from ricci_halin.curvature import (
    CouplingCertificate,
    CurvatureError,
    LipschitzCertificate,
    certificate_from_json,
    certificate_to_json,
    check_coupling_certificate,
    check_lipschitz_certificate,
    coupling_certificate,
    critical_alpha,
    kappa_lly,
    kappa_lly_dual,
    lipschitz_certificate,
)
from ricci_halin.graph import Graph
from ricci_halin.halin import (
    PlaneTree,
    build_halin,
    wheel,
    wheel_sub1,
    wheel_sub2,
)
from ricci_halin.transport import vertex_measure

from oracles import random_connected_graph

F = Fraction


def test_hub_edge_witness_on_13_wheel():
    # hub x=0, rim neighbor y=1: put 1 on y and its two rim neighbors,
    # 0 on x and the next rim ring, -1 on the far rim; the Laplacian
    # difference collapses to 8/12 - 2/3 = 0
    g = wheel(13).graph
    f = {0: 0, 1: 1, 2: 1, 12: 1, 3: 0, 11: 0}
    f.update({v: -1 for v in range(4, 11)})
    cert = LipschitzCertificate((0, 1), f)
    assert check_lipschitz_certificate(g, cert) == F(8, 12) - F(2, 3) == 0
    assert kappa_lly(g, (0, 1)) == 0  # the bound is attained


def test_hub_edge_witness_on_subdivided_10_wheel():
    # hub x=0, subdivision vertex y=1, rim leaf p=2 with N(p)={1,3,9}:
    # 1 on {y,p}, 0 on (N(p) u {x}) \ {y}, -1 on the remaining rim;
    # evaluates to 4/8 - 1/2 = 0
    g = wheel_sub1(10).graph
    assert g.adj[1] == (0, 2) and g.adj[2] == (1, 3, 9)
    f = {1: 1, 2: 1, 0: 0, 3: 0, 9: 0}
    f.update({v: -1 for v in range(4, 9)})
    cert = LipschitzCertificate((0, 1), f)
    assert check_lipschitz_certificate(g, cert) == F(4, 8) - F(1, 2) == 0
    assert kappa_lly(g, (0, 1)) == 0


def hub_spoke_coupling(alpha):
    """Coupling of the 5-wheel's lazy measures across the hub edge (0,1)."""
    a = F(alpha)
    third = (1 - a) / 3
    quarter = (1 - a) / 4
    return CouplingCertificate(
        (0, 1),
        a,
        (
            (0, 0, min(a, third)),
            (1, 1, min(quarter, a)),
            (2, 2, quarter),
            (4, 4, quarter),
            (0, 1, a - third),
            (3, 1, third - quarter),
            (3, 2, third - quarter),
            (3, 4, third - quarter),
        ),
    )


def rim_edge_coupling(alpha):
    """Coupling of the 5-wheel's lazy measures across the rim edge (1,2)."""
    a = F(alpha)
    third = (1 - a) / 3
    return CouplingCertificate(
        (1, 2),
        a,
        (
            (0, 0, third),
            (1, 1, min(a, third)),
            (2, 2, third),
            (1, 2, a - third),
            (4, 3, third),
        ),
    )


@pytest.mark.parametrize("alpha", [F(1, 4), F(1, 2), F(9, 10)])
def test_explicit_couplings_certify_one_on_the_5_wheel(alpha):
    g = wheel(5).graph
    assert check_coupling_certificate(g, hub_spoke_coupling(alpha)) == 1
    assert check_coupling_certificate(g, rim_edge_coupling(alpha)) == 1


def test_machine_certificates_sandwich_the_exact_value():
    rng = random.Random(909)
    graphs = [wheel(5).graph, wheel(8).graph, wheel_sub1(7).graph]
    for _ in range(12):
        graphs.append(
            random_connected_graph(rng, rng.randint(3, 7), rng.randint(0, 5))
        )
    for g in graphs:
        for e in g.edges()[:4]:
            k = kappa_lly(g, e)
            lower = check_coupling_certificate(g, coupling_certificate(g, e))
            upper = check_lipschitz_certificate(g, lipschitz_certificate(g, e))
            assert lower == k == upper


def test_coupling_certificate_at_a_larger_idleness_stays_exact():
    g = wheel(6).graph
    e = (1, 2)
    k = kappa_lly(g, e)
    cert = coupling_certificate(g, e, F(1, 2))
    assert cert.alpha == F(1, 2)
    assert check_coupling_certificate(g, cert) == k


def test_suboptimal_coupling_gives_a_weaker_lower_bound():
    g = wheel(5).graph
    e = (0, 1)
    alpha = critical_alpha(g, e)
    mu = vertex_measure(g, 0, alpha)
    nu = vertex_measure(g, 1, alpha)
    product = tuple(
        (u, v, mu[u] * nu[v]) for u in mu.support() for v in nu.support()
    )
    bound = check_coupling_certificate(g, CouplingCertificate(e, alpha, product))
    assert bound < kappa_lly(g, e)


def test_lipschitz_violation_names_the_offending_pair():
    g = wheel(6).graph
    cert = lipschitz_certificate(g, (1, 2))
    f = dict(cert.f)
    f[3] += 3
    with pytest.raises(CurvatureError, match=r"pair \(\d+, \d+\)"):
        check_lipschitz_certificate(g, LipschitzCertificate((1, 2), f))


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def test_one_edge_of_a_long_cycle_needs_no_distance_table():
    g = cycle(4000)
    e = (0, 1)
    assert kappa_lly(g, e) == 0
    assert kappa_lly_dual(g, e) == 0
    assert check_coupling_certificate(g, coupling_certificate(g, e)) == 0
    assert check_lipschitz_certificate(g, lipschitz_certificate(g, e)) == 0
    assert g._dist is None


def test_lipschitz_check_of_far_extra_vertices():
    # extra vertices 100 and 104 lie far from the edge and 4 apart
    g = cycle(4000)
    f = dict(lipschitz_certificate(g, (0, 1)).f)
    f[100], f[104] = 0, 5
    with pytest.raises(CurvatureError, match=r"\(100, 104\).*dist 4"):
        check_lipschitz_certificate(g, LipschitzCertificate((0, 1), f))
    f[104] = 4
    assert check_lipschitz_certificate(g, LipschitzCertificate((0, 1), f)) == 0
    assert g._dist is None


def test_lipschitz_certificate_must_cover_both_neighborhoods():
    g = wheel(6).graph
    cert = lipschitz_certificate(g, (1, 2))
    f = dict(cert.f)
    del f[5]
    with pytest.raises(CurvatureError, match=r"misses vertices \[5\]"):
        check_lipschitz_certificate(g, LipschitzCertificate((1, 2), f))


def test_lipschitz_certificate_rejects_bad_values():
    g = wheel(5).graph
    good = lipschitz_certificate(g, (1, 2)).f
    swapped = dict(good)
    swapped[1], swapped[2] = swapped[2], swapped[1]
    with pytest.raises(CurvatureError, match="expected 1"):
        check_lipschitz_certificate(g, LipschitzCertificate((1, 2), swapped))
    stray = dict(good)
    stray[99] = 0
    with pytest.raises(CurvatureError, match="missing vertex"):
        check_lipschitz_certificate(g, LipschitzCertificate((1, 2), stray))
    fractional = dict(good)
    fractional[0] = 0.5
    with pytest.raises(CurvatureError, match="non-integer"):
        check_lipschitz_certificate(g, LipschitzCertificate((1, 2), fractional))
    # the JSON reader's rule: a bool is no integer, a float no vertex id
    bool_value = dict(good)
    bool_value[2] = True  # f(2) = 1, as a bool
    with pytest.raises(CurvatureError, match="non-integer value True"):
        check_lipschitz_certificate(g, LipschitzCertificate((1, 2), bool_value))
    float_key = dict(good)
    float_key[3.0] = float_key.pop(3)
    with pytest.raises(CurvatureError, match="vertex id 3.0 is not an int"):
        check_lipschitz_certificate(g, LipschitzCertificate((1, 2), float_key))


def test_coupling_certificate_rejects_idleness_outside_range():
    g = wheel(5).graph
    for alpha in [F(1, 8), F(1)]:
        cert = CouplingCertificate((1, 2), alpha, ((1, 2, F(1)),))
        with pytest.raises(CurvatureError, match="outside"):
            check_coupling_certificate(g, cert)
        # the producer refuses what the checker would refuse
        with pytest.raises(CurvatureError, match=r"outside \[1/4, 1\)"):
            coupling_certificate(g, (1, 2), alpha)


def test_coupling_certificate_refuses_floats_and_non_int_ids():
    g = wheel(5).graph
    for e, alpha in [((1, 2), 0.5), ((True, 2), None), ((1.0, 2), F(1, 2))]:
        with pytest.raises(CurvatureError):
            coupling_certificate(g, e, alpha)
    with pytest.raises(CurvatureError):
        check_coupling_certificate(
            g, CouplingCertificate((1, 2), 0.5, ((1, 2, F(1)),))
        )
    cert = coupling_certificate(g, (1, 2))
    for e in [(True, 2), (1, 2.0)]:
        with pytest.raises(CurvatureError, match="vertex ids must be ints"):
            check_coupling_certificate(
                g, CouplingCertificate(e, cert.alpha, cert.pi)
            )


def test_coupling_certificate_rejects_broken_marginals():
    g = wheel(5).graph
    cert = coupling_certificate(g, (1, 2))
    broken = CouplingCertificate(cert.edge, cert.alpha, cert.pi[1:])
    with pytest.raises(CurvatureError, match="invalid coupling"):
        check_coupling_certificate(g, broken)


def test_certificate_json_round_trip():
    g = wheel(5).graph
    lip = lipschitz_certificate(g, (0, 1))
    assert certificate_from_json(certificate_to_json(lip)) == lip
    coup = coupling_certificate(g, (0, 1))
    assert certificate_from_json(certificate_to_json(coup)) == coup


def test_certificate_json_uses_plain_rationals():
    cert = hub_spoke_coupling(F(1, 2))
    text = certificate_to_json(cert)
    assert '"alpha": "1/2"' in text
    assert "Fraction" not in text
    back = certificate_from_json(text)
    assert back.alpha == F(1, 2)
    assert back.pi == cert.pi


@pytest.mark.parametrize(
    "text",
    [
        "not json",
        "[1, 2]",
        '{"f": {"0": 0}}',  # no edge
        '{"edge": [0], "f": {"0": 0}}',
        '{"edge": ["a", "b"], "f": {"0": 0}}',
        '{"edge": [false, true], "f": {"0": 0}}',  # bools are not vertex ids
        '{"edge": [0, 1]}',  # neither f nor pi
        '{"edge": [0, 1], "f": {"0": 0}, "alpha": "1/2", "pi": []}',  # both
        '{"edge": [0, 1], "f": [0, 1]}',  # f not a map
        '{"edge": [0, 1], "f": {"0": true}}',  # bool is not an integer
        '{"edge": [0, 1], "f": {"zero": 0}}',
        '{"edge": [0, 1], "f": {"0": 0.5}}',
        '{"edge": [0, 1], "pi": [[0, 1, "1"]]}',  # missing alpha
        '{"edge": [0, 1], "alpha": "x/y", "pi": [[0, 1, "1"]]}',
        '{"edge": [0, 1], "alpha": "1/0", "pi": [[0, 1, "1"]]}',
        '{"edge": [0, 1], "alpha": "1/2", "pi": [[0, 1]]}',
        '{"edge": [0, 1], "alpha": "1/2", "pi": [[0, 1, "1/q"]]}',
        '{"edge": [0, 1], "alpha": "1/2", "pi": 5}',  # pi not a list
        '{"edge": [0, 1], "alpha": "1/2", "pi": [[null, 1, "1"]]}',
        '{"edge": [0, 1], "alpha": "1/2", "pi": [[3.7, 1, "1"]]}',
        '{"edge": [0, 1], "alpha": "1/2", "pi": [[0, true, "1"]]}',
        # a vertex id in f is written one way only: plain decimal
        '{"edge": [0, 1], "f": {"0": 0, "-0": 5}}',
        '{"edge": [0, 1], "f": {"0": 0, "1_0": 2}}',
        '{"edge": [0, 1], "f": {"0": 0, " 3": 0}}',
        '{"edge": [0, 1], "f": {"0": 0, "01": 1}}',
        '{"edge": [0, 1], "f": {"0": 0, "+1": 1}}',
        # rationals are strings: a JSON number would pass through a float
        '{"edge": [0, 1], "alpha": 0.5, "pi": [[0, 1, "1"]]}',
        '{"edge": [0, 1], "alpha": 1, "pi": [[0, 1, "1"]]}',
        '{"edge": [0, 1], "alpha": "1/2", "pi": [[0, 1, 1]]}',
        '{"edge": [0, 1], "alpha": "1/3", '
        '"pi": [[0, 1, 0.33333333333333333333]]}',
        # and strings only as "p/q" or a bare integer, in ASCII digits
        '{"edge": [0, 1], "alpha": "1/2", "pi": [[0, 1, " 1_0 "]]}',
        '{"edge": [0, 1], "alpha": "1/2", "pi": [[0, 1, "1e-3"]]}',
        '{"edge": [0, 1], "alpha": "0.5", "pi": [[0, 1, "1"]]}',
        '{"edge": [0, 1], "alpha": "1/0_3", "pi": [[0, 1, "1"]]}',
        '{"edge": [0, 1], "alpha": "1/2", "pi": [[0, 1, "\\u0661"]]}',
    ],
)
def test_certificate_json_rejects_malformed(text):
    with pytest.raises(CurvatureError):
        certificate_from_json(text)


def test_certificate_json_accepts_integer_rationals():
    cert = certificate_from_json(
        '{"edge": [1, 2], "alpha": "1/4", "pi": [[1, 2, "1"], [0, 0, "0"]]}'
    )
    assert cert.alpha == F(1, 4)
    assert cert.pi == ((1, 2, F(1)), (0, 0, F(0)))


# --- golden Lipschitz certificates --------------------------------------
# The dual search's exact value and the witness f it returns on every edge
# with degree sum <= 14 of six fixed graphs.  The search order (vertices by
# |coefficient|, values by contribution, first optimum kept) decides which
# of several optimal f comes back, so any rewrite of the search must
# reproduce these literally.  HALIN40_EDGES is a generalized Halin graph on
# 40 vertices: a plane tree with subdivided edges plus its leaf cycle.

HALIN40_EDGES = [
    (0, 1), (0, 3), (0, 5), (1, 2), (1, 4), (1, 6), (1, 9), (1, 14), (1, 24),
    (1, 26), (1, 38), (2, 8), (3, 16), (3, 17), (3, 18), (4, 15), (4, 19),
    (5, 36), (6, 7), (6, 22), (7, 29), (8, 10), (8, 27), (8, 28), (8, 35),
    (9, 11), (9, 12), (9, 30), (10, 13), (10, 20), (10, 25), (10, 32),
    (11, 19), (11, 39), (12, 30), (12, 39), (13, 27), (13, 37), (14, 15),
    (15, 32), (16, 24), (16, 31), (17, 31), (18, 21), (19, 39), (20, 23),
    (20, 37), (21, 31), (21, 36), (22, 33), (23, 25), (23, 37), (24, 35),
    (25, 32), (26, 29), (26, 38), (27, 34), (28, 34), (29, 33), (30, 38),
    (33, 36), (34, 35)
]

GOLDEN_LIPSCHITZ = {
    "W_5": [
        ((0, 1), "1", {0: 0, 1: 1, 2: 0, 3: -1, 4: 0}),
        ((0, 2), "1", {0: 0, 1: 0, 2: 1, 3: 0, 4: -1}),
        ((0, 3), "1", {0: 0, 1: -1, 2: 0, 3: 1, 4: 0}),
        ((0, 4), "1", {0: 0, 1: 0, 2: -1, 3: 0, 4: 1}),
        ((1, 2), "1", {0: 1, 1: 0, 2: 1, 3: 2, 4: 1}),
        ((1, 4), "1", {0: 0, 1: 0, 2: -1, 3: 0, 4: 1}),
        ((2, 3), "1", {0: 0, 1: -1, 2: 0, 3: 1, 4: 0}),
        ((3, 4), "1", {0: 1, 1: 2, 2: 1, 3: 0, 4: 1}),
    ],
    "H_1": [
        ((0, 1), "1", {0: 0, 1: 1, 2: 0, 3: -1, 5: 0}),
        ((0, 2), "1", {0: 0, 1: 0, 2: 1, 3: -1, 4: 0}),
        ((0, 3), "2/3", {0: 0, 1: -1, 2: -1, 3: 1, 4: 0, 5: 0}),
        ((1, 2), "1", {0: 0, 1: 0, 2: 1, 4: 2, 5: 1}),
        ((1, 5), "2/3", {0: -1, 1: 0, 2: -1, 3: 0, 4: 0, 5: 1}),
        ((2, 4), "2/3", {0: -1, 1: -1, 2: 0, 3: 0, 4: 1, 5: 0}),
        ((3, 4), "1", {0: -1, 2: 0, 3: 0, 4: 1, 5: 0}),
        ((3, 5), "1", {0: -1, 1: 0, 3: 0, 4: 0, 5: 1}),
        ((4, 5), "1", {1: 2, 2: 1, 3: 0, 4: 0, 5: 1}),
    ],
    "zero_witness": [
        ((0, 1), "1/6", {0: 0, 1: 1, 2: 2, 3: 2, 4: 1, 5: -1, 8: 1}),
        ((0, 4), "1/3", {0: 0, 1: 0, 3: 1, 4: 1, 5: 0, 6: 1, 8: -1}),
        ((0, 5), "1/6", {0: 0, 1: -1, 4: 1, 5: 1, 6: 2, 7: 2, 8: 1}),
        ((0, 8), "1/3", {0: 0, 1: 0, 2: 1, 4: -1, 5: 0, 7: 1, 8: 1}),
        ((1, 2), "1", {0: -1, 1: 0, 2: 1, 3: 0, 8: 0}),
        ((1, 3), "1", {0: -1, 1: 0, 2: 0, 3: 1, 4: 0}),
        ((2, 3), "2/3", {1: 0, 2: 0, 3: 1, 4: 2, 8: 0}),
        ((2, 8), "0", {0: 1, 1: 0, 2: 0, 3: -1, 7: 2, 8: 1}),
        ((3, 4), "0", {0: 1, 1: 0, 2: -1, 3: 0, 4: 1, 6: 2}),
        ((4, 6), "0", {0: 0, 3: -1, 4: 0, 5: 1, 6: 1, 7: 2}),
        ((5, 6), "1", {0: -1, 4: 0, 5: 0, 6: 1, 7: 0}),
        ((5, 7), "1", {0: -1, 5: 0, 6: 0, 7: 1, 8: 0}),
        ((6, 7), "2/3", {4: -1, 5: 0, 6: 0, 7: 1, 8: 1}),
        ((7, 8), "0", {0: 1, 2: 2, 5: 0, 6: -1, 7: 0, 8: 1}),
    ],
    "wheel_sub2_8": [
        ((0, 1), "3/10", {0: 0, 1: 1, 2: 1, 3: 0, 4: -1, 6: -1, 7: 0}),
        ((0, 3), "2/5", {0: 0, 1: -1, 2: 0, 3: 1, 4: -1, 5: 0, 6: -1, 7: -1}),
        ((0, 4), "3/10", {0: 0, 1: -1, 3: 0, 4: 1, 5: 1, 6: 0, 7: -1}),
        ((0, 6), "7/15", {0: 0, 1: -1, 3: -1, 4: -1, 5: 0, 6: 1, 7: 1}),
        ((0, 7), "7/15", {0: 0, 1: -1, 2: 0, 3: -1, 4: -1, 6: 1, 7: 1}),
        ((1, 2), "2/3", {0: 1, 1: 0, 2: 1, 3: 2, 7: 2}),
        ((2, 3), "1/3", {0: 1, 1: 0, 2: 0, 3: 1, 5: 2, 7: 0}),
        ((2, 7), "1/3", {0: 1, 1: 0, 2: 0, 3: 0, 6: 2, 7: 1}),
        ((3, 5), "1/3", {0: 0, 2: -1, 3: 0, 4: 1, 5: 1, 6: 1}),
        ((4, 5), "2/3", {0: 1, 3: 2, 4: 0, 5: 1, 6: 2}),
        ((5, 6), "1/3", {0: 1, 3: 0, 4: 0, 5: 0, 6: 1, 7: 2}),
        ((6, 7), "2/3", {0: 0, 2: 2, 5: 0, 6: 0, 7: 1}),
    ],
    "K2": [
        ((0, 1), "2", {0: 0, 1: 1}),
    ],
    "halin40": [
        ((0, 1), "-1", {0: 0, 1: 1, 2: 2, 3: -1, 4: 2, 5: -1, 6: 2, 9: 2,
            14: 2, 24: 1, 26: 2, 38: 2}),
        ((0, 3), "-7/12", {0: 0, 1: -1, 3: 1, 5: -1, 16: 1, 17: 2, 18: 2}),
        ((0, 5), "-1/3", {0: 0, 1: -1, 3: -1, 5: 1, 36: 2}),
        ((1, 2), "-2/3", {0: -1, 1: 0, 2: 1, 4: -1, 6: -1, 8: 2, 9: -1, 14: -1,
            24: 0, 26: -1, 38: -1}),
        ((1, 4), "-7/9", {0: -1, 1: 0, 2: -1, 4: 1, 6: -1, 9: 0, 14: 1, 15: 2,
            19: 2, 24: -1, 26: -1, 38: -1}),
        ((1, 6), "-1", {0: -1, 1: 0, 2: -1, 4: -1, 6: 1, 7: 2, 9: -1, 14: -1,
            22: 2, 24: -1, 26: 0, 38: -1}),
        ((1, 9), "-5/6", {0: -1, 1: 0, 2: -1, 4: 0, 6: -1, 9: 1, 11: 2, 12: 2,
            14: -1, 24: -1, 26: 0, 30: 2, 38: 1}),
        ((1, 14), "-5/9", {0: -1, 1: 0, 2: -1, 4: 1, 6: -1, 9: -1, 14: 1,
            15: 2, 24: -1, 26: -1, 38: -1}),
        ((1, 24), "-8/9", {0: 0, 1: 0, 2: 0, 4: -1, 6: -1, 9: -1, 14: -1,
            16: 2, 24: 1, 26: -1, 35: 2, 38: -1}),
        ((1, 26), "-4/9", {0: -1, 1: 0, 2: -1, 4: -1, 6: 0, 9: -1, 14: -1,
            24: -1, 26: 1, 29: 2, 38: 1}),
        ((1, 38), "-1/3", {0: -1, 1: 0, 2: -1, 4: -1, 6: -1, 9: 1, 14: -1,
            24: -1, 26: 1, 30: 2, 38: 1}),
        ((2, 8), "-2/5", {1: -1, 2: 0, 8: 1, 10: 2, 27: 2, 28: 2, 35: 1}),
        ((3, 16), "0", {0: 0, 3: 0, 16: 1, 17: 0, 18: -1, 24: 2, 31: 1}),
        ((3, 17), "1/4", {0: -1, 3: 0, 16: 1, 17: 1, 18: 0, 31: 2}),
        ((3, 18), "0", {0: -1, 3: 0, 16: 0, 17: 0, 18: 1, 21: 2}),
        ((4, 15), "0", {1: -1, 4: 0, 14: 0, 15: 1, 19: -1, 32: 2}),
        ((4, 19), "-1/3", {1: -1, 4: 0, 11: 1, 15: -1, 19: 1, 39: 2}),
        ((5, 36), "-1/3", {0: -1, 5: 0, 21: 2, 33: 2, 36: 1}),
        ((6, 7), "1/6", {1: -1, 6: 0, 7: 1, 22: -1, 29: 1}),
        ((6, 22), "0", {1: -1, 6: 0, 7: 0, 22: 1, 33: 2}),
        ((7, 29), "1/6", {6: 0, 7: 0, 26: 2, 29: 1, 33: 2}),
        ((8, 10), "-4/5", {2: -1, 8: 0, 10: 1, 13: 2, 20: 2, 25: 2, 27: 1,
            28: -1, 32: 2, 35: -1}),
        ((8, 27), "2/15", {2: -1, 8: 0, 10: 1, 13: 2, 27: 1, 28: -1, 34: 0,
            35: -1}),
        ((8, 28), "1/5", {2: -1, 8: 0, 10: -1, 27: 1, 28: 1, 34: 2, 35: 1}),
        ((8, 35), "-1/15", {2: 0, 8: 0, 10: -1, 24: 2, 27: -1, 28: -1, 34: 0,
            35: 1}),
        ((9, 11), "0", {1: 0, 9: 0, 11: 1, 12: 0, 19: 2, 30: -1, 39: 1}),
        ((9, 12), "1/2", {1: -1, 9: 0, 11: 1, 12: 1, 30: 1, 39: 2}),
        ((9, 30), "1/2", {1: 1, 9: 0, 11: -1, 12: 1, 30: 1, 38: 2}),
        ((10, 13), "0", {8: 1, 10: 0, 13: 1, 20: 0, 25: -1, 27: 2, 32: -1,
            37: 1}),
        ((10, 20), "0", {8: -1, 10: 0, 13: 1, 20: 1, 23: 1, 25: 0, 32: -1,
            37: 2}),
        ((10, 25), "1/3", {8: -1, 10: 0, 13: -1, 20: 0, 23: 1, 25: 1, 32: 1}),
        ((10, 32), "-1/5", {8: -1, 10: 0, 13: -1, 15: 2, 20: -1, 25: 1,
            32: 1}),
        ((11, 19), "2/3", {4: 2, 9: 0, 11: 0, 19: 1, 39: 0}),
        ((11, 39), "1", {9: -1, 11: 0, 12: 0, 19: 0, 39: 1}),
        ((12, 30), "1/3", {9: 0, 12: 0, 30: 1, 38: 2, 39: -1}),
        ((12, 39), "0", {9: 0, 11: 1, 12: 0, 19: 2, 30: -1, 39: 1}),
        ((13, 27), "0", {8: 2, 10: 1, 13: 0, 27: 1, 34: 2, 37: -1}),
        ((13, 37), "0", {10: 0, 13: 0, 20: 1, 23: 2, 27: -1, 37: 1}),
        ((14, 15), "1/3", {1: -1, 4: 0, 14: 0, 15: 1, 32: 2}),
        ((15, 32), "-2/3", {4: -1, 10: 2, 14: -1, 15: 0, 25: 2, 32: 1}),
        ((16, 24), "-1/3", {1: 2, 3: 0, 16: 0, 24: 1, 31: -1, 35: 2}),
        ((16, 31), "0", {3: 0, 16: 0, 17: 1, 21: 2, 24: -1, 31: 1}),
        ((17, 31), "1/2", {3: 0, 16: 1, 17: 0, 21: 2, 31: 1}),
        ((18, 21), "0", {3: -1, 18: 0, 21: 1, 31: 1, 36: 2}),
        ((19, 39), "1/3", {4: -1, 11: 0, 12: 2, 19: 0, 39: 1}),
        ((20, 23), "1", {10: -1, 20: 0, 23: 1, 25: 0, 37: 0}),
        ((20, 37), "1", {10: -1, 13: 0, 20: 0, 23: 0, 37: 1}),
        ((21, 31), "-1/3", {16: 2, 17: 2, 18: 0, 21: 0, 31: 1, 36: -1}),
        ((21, 36), "-2/3", {5: 2, 18: -1, 21: 0, 31: -1, 33: 2, 36: 1}),
        ((22, 33), "0", {6: -1, 22: 0, 29: 1, 33: 1, 36: 2}),
        ((23, 25), "0", {10: 1, 20: 0, 23: 0, 25: 1, 32: 2, 37: -1}),
        ((23, 37), "2/3", {13: 2, 20: 0, 23: 0, 25: 0, 37: 1}),
        ((24, 35), "-1/3", {1: -1, 8: 1, 16: -1, 24: 0, 34: 2, 35: 1}),
        ((25, 32), "1/3", {10: 0, 15: 2, 23: -1, 25: 0, 32: 1}),
        ((26, 29), "-1/3", {1: -1, 7: 1, 26: 0, 29: 1, 33: 2, 38: -1}),
        ((26, 38), "1/3", {1: 0, 26: 0, 29: -1, 30: 2, 38: 1}),
        ((27, 34), "0", {8: 1, 13: -1, 27: 0, 28: 2, 34: 1, 35: 2}),
        ((28, 34), "2/3", {8: 1, 27: 2, 28: 0, 34: 1, 35: 2}),
        ((29, 33), "-1/3", {7: -1, 22: 1, 26: -1, 29: 0, 33: 1, 36: 2}),
        ((30, 38), "0", {1: 1, 9: 0, 12: -1, 26: 2, 30: 0, 38: 1}),
        ((33, 36), "-2/3", {5: 2, 21: 2, 22: -1, 29: -1, 33: 0, 36: 1}),
        ((34, 35), "0", {8: 0, 24: 2, 27: -1, 28: -1, 34: 0, 35: 1}),
    ],
}


def golden_graph(name):
    if name == "W_5":
        return wheel(5).graph
    if name == "H_1":  # the triangular prism
        return build_halin(PlaneTree.from_shape(((), (), ((), ())))).graph
    if name == "zero_witness":  # README's tight zero example
        shape = (((), ()), (), ((), ()), ())
        return build_halin(PlaneTree.from_shape(shape)).graph
    if name == "wheel_sub2_8":
        return wheel_sub2(8).graph
    if name == "K2":  # no free vertex: f is {x: 0, y: 1} alone
        return Graph(2, [(0, 1)])
    assert name == "halin40"
    return Graph(40, HALIN40_EDGES)


@pytest.mark.parametrize("name", list(GOLDEN_LIPSCHITZ))
def test_golden_lipschitz_certificates(name):
    g = golden_graph(name)
    rows = GOLDEN_LIPSCHITZ[name]
    assert [e for e, _, _ in rows] == [
        e for e in g.edges() if g.degree(e[0]) + g.degree(e[1]) <= 14
    ]
    for e, value, f in rows:
        assert kappa_lly_dual(g, e) == F(value)
        cert = lipschitz_certificate(g, e)
        assert cert.f == f
        assert check_lipschitz_certificate(g, cert) == F(value)
