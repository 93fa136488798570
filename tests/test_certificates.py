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
from ricci_halin.halin import wheel, wheel_sub1
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


def test_coupling_certificate_rejects_idleness_outside_range():
    g = wheel(5).graph
    for alpha in [F(1, 8), F(1)]:
        cert = CouplingCertificate((1, 2), alpha, ((1, 2, F(1)),))
        with pytest.raises(CurvatureError, match="outside"):
            check_coupling_certificate(g, cert)


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
