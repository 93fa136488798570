"""Edge curvature of graphs, exactly.

Two independent routes to the same number:

* primal: kappa_alpha(x,y) = 1 - W(m_x^a, m_y^a) via exact optimal
  transport, with the Lin-Lu-Yau value read off at the single idleness
  a = 1/(max{d_x,d_y}+1) where kappa_a/(1-a) already equals the limit;
* dual: minimum of Df(x) - Df(y) over integer-valued 1-Lipschitz f with
  f(x)=0, f(y)=1, where D is the degree-normalized Laplacian.  The
  minimum is attained with values in [-2,2] because every vertex of
  N[x] u N[y] lies within distance 2 of x.

Certificates (a Lipschitz function, or a coupling at some idleness) are
checkable objects proving one-sided bounds.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .graph import Graph, edge_in_c3_or_c4, require_edge
from .transport import (
    CouplingEntry,
    Measure,
    check_coupling,
    vertex_measure,
    wasserstein,
)

ZERO = Fraction(0)
ONE = Fraction(1)


class CurvatureError(ValueError):
    """Invalid curvature query or certificate."""


class OracleInfeasibleError(CurvatureError):
    """Dual oracle refused: endpoint degrees exceed the search threshold."""


DEFAULT_ORACLE_THRESHOLD = 14


def critical_alpha(g: Graph, e: Sequence[int]) -> Fraction:
    """The idleness at which one exact evaluation gives the LLY value."""
    x, y = require_edge(g, e)
    return Fraction(1, max(g.degree(x), g.degree(y)) + 1)


def kappa_alpha(
    g: Graph, e: Sequence[int], alpha: Fraction | int | str
) -> Fraction:
    x, y = require_edge(g, e)
    alpha = Fraction(alpha)
    if not 0 <= alpha <= 1:
        raise CurvatureError(f"alpha {alpha} outside [0, 1]")
    mx = vertex_measure(g, x, alpha)
    my = vertex_measure(g, y, alpha)
    return 1 - wasserstein(g, mx, my).cost


def kappa_lly(g: Graph, e: Sequence[int]) -> Fraction:
    alpha = critical_alpha(g, e)
    return kappa_alpha(g, e, alpha) / (1 - alpha)


def _dual_search(
    g: Graph, x: int, y: int, threshold: int
) -> tuple[Fraction, dict[int, int]]:
    if g.degree(x) + g.degree(y) > threshold:
        raise OracleInfeasibleError(
            f"oracle infeasible: d_x + d_y = {g.degree(x) + g.degree(y)} "
            f"exceeds threshold {threshold}"
        )
    domain = sorted(set(g.adj[x]) | set(g.adj[y]) | {x, y})
    dx, dy = g.degree(x), g.degree(y)
    base = ONE + Fraction(1, dx)  # contribution of f(y)=1 through Df(x)
    coeff: dict[int, Fraction] = {}
    for v in domain:
        if v in (x, y):
            continue
        c = ZERO
        if g.has_edge(x, v):
            c += Fraction(1, dx)
        if g.has_edge(y, v):
            c -= Fraction(1, dy)
        coeff[v] = c
    free = sorted(coeff, key=lambda v: (-abs(coeff[v]), v))
    dist = g.dist
    lo = {}
    hi = {}
    for v in free:
        lo[v] = max(-2, -dist[v][x], 1 - dist[v][y])
        hi[v] = min(2, dist[v][x], 1 + dist[v][y])
        if lo[v] > hi[v]:
            raise CurvatureError("empty Lipschitz domain")  # unreachable

    best_val: list[Fraction | None] = [None]
    best_f: dict[int, int] = {}

    def bound_tail(idx: int) -> Fraction:
        total = ZERO
        for v in free[idx:]:
            c = coeff[v]
            total += min(c * lo[v], c * hi[v])
        return total

    def descend(idx: int, partial: Fraction) -> None:
        if best_val[0] is not None and partial + bound_tail(idx) >= best_val[0]:
            return
        if idx == len(free):
            best_val[0] = partial
            best_f.clear()
            best_f.update({v: assignment[v] for v in free})
            return
        v = free[idx]
        c = coeff[v]
        values = sorted(range(lo[v], hi[v] + 1), key=lambda t: c * t)
        saved = [(u, lo[u], hi[u]) for u in free[idx + 1:]]
        for t in values:
            feasible = True
            for u in free[idx + 1:]:
                d = dist[u][v]
                if t - d > lo[u]:
                    lo[u] = t - d
                if t + d < hi[u]:
                    hi[u] = t + d
                if lo[u] > hi[u]:
                    feasible = False
            if feasible:
                assignment[v] = t
                descend(idx + 1, partial + c * t)
            for u, l, h in saved:
                lo[u], hi[u] = l, h
        assignment.pop(v, None)

    assignment: dict[int, int] = {}
    descend(0, base)
    assert best_val[0] is not None
    f = {x: 0, y: 1}
    f.update(best_f)
    return best_val[0], f


def kappa_lly_dual(
    g: Graph, e: Sequence[int], threshold: int = DEFAULT_ORACLE_THRESHOLD
) -> Fraction:
    """Curvature by exhaustive search over integer Lipschitz functions."""
    x, y = require_edge(g, e)
    return _dual_search(g, x, y, threshold)[0]


def lipschitz_certificate(
    g: Graph, e: Sequence[int], threshold: int = DEFAULT_ORACLE_THRESHOLD
) -> "LipschitzCertificate":
    """An optimal dual witness: certifies the exact curvature from above."""
    x, y = require_edge(g, e)
    _, f = _dual_search(g, x, y, threshold)
    return LipschitzCertificate((x, y), f)


def coupling_certificate(
    g: Graph, e: Sequence[int], alpha: Fraction | None = None
) -> "CouplingCertificate":
    """An optimal transport plan: certifies the exact curvature from below."""
    x, y = require_edge(g, e)
    if alpha is None:
        alpha = critical_alpha(g, e)
    alpha = Fraction(alpha)
    result = wasserstein(
        g, vertex_measure(g, x, alpha), vertex_measure(g, y, alpha)
    )
    return CouplingCertificate((x, y), alpha, result.plan)


def c3c4_upper_bound(g: Graph, e: Sequence[int]) -> Fraction | None:
    """Degree bound on curvature, available only off triangles and C4s."""
    x, y = require_edge(g, e)
    if edge_in_c3_or_c4(g, e):
        return None
    dx, dy = g.degree(x), g.degree(y)
    return min(
        Fraction(1, dx) + Fraction(2, dy) - 1,
        Fraction(1, dy) + Fraction(2, dx) - 1,
    )


@dataclass(frozen=True)
class LipschitzCertificate:
    """Integer 1-Lipschitz f with f(y)-f(x)=1; evaluates to an upper bound."""

    edge: tuple[int, int]
    f: dict[int, int]


@dataclass(frozen=True)
class CouplingCertificate:
    """Coupling of the two lazy measures; evaluates to a lower bound."""

    edge: tuple[int, int]
    alpha: Fraction
    pi: tuple[CouplingEntry, ...]


def check_lipschitz_certificate(
    g: Graph, cert: LipschitzCertificate
) -> Fraction:
    """Validate and evaluate: returns the certified upper bound Df(x)-Df(y).

    The function must cover N[x] u N[y]; extra vertices are allowed and
    simply join the Lipschitz check (against full-graph distances).
    """
    x, y = require_edge(g, cert.edge)
    f = cert.f
    needed = set(g.adj[x]) | set(g.adj[y]) | {x, y}
    missing = needed - set(f)
    if missing:
        raise CurvatureError(f"certificate misses vertices {sorted(missing)}")
    for v, val in f.items():
        if not 0 <= v < g.n:
            raise CurvatureError(f"certificate names missing vertex {v}")
        if not isinstance(val, int):
            raise CurvatureError(f"non-integer value {val!r} at vertex {v}")
    if f[y] - f[x] != 1:
        raise CurvatureError(f"f(y)-f(x) = {f[y] - f[x]}, expected 1")
    verts = sorted(f)
    for i, u in enumerate(verts):
        for v in verts[i + 1:]:
            if abs(f[u] - f[v]) > g.dist[u][v]:
                raise CurvatureError(
                    f"Lipschitz violation on pair ({u}, {v}): "
                    f"|{f[u]} - {f[v]}| > dist {g.dist[u][v]}"
                )
    lap_x = Fraction(sum(f[z] - f[x] for z in g.adj[x]), g.degree(x))
    lap_y = Fraction(sum(f[z] - f[y] for z in g.adj[y]), g.degree(y))
    return lap_x - lap_y


def check_coupling_certificate(
    g: Graph, cert: CouplingCertificate
) -> Fraction:
    """Validate and evaluate: returns the certified lower bound on curvature."""
    x, y = require_edge(g, cert.edge)
    alpha = Fraction(cert.alpha)
    floor = critical_alpha(g, cert.edge)
    if not floor <= alpha < 1:
        raise CurvatureError(
            f"alpha {alpha} outside [{floor}, 1); the ratio identity needs it"
        )
    mx = vertex_measure(g, x, alpha)
    my = vertex_measure(g, y, alpha)
    try:
        cost = check_coupling(g, mx, my, cert.pi)
    except ValueError as exc:
        raise CurvatureError(f"invalid coupling: {exc}") from None
    return (1 - cost) / (1 - alpha)


@dataclass(frozen=True)
class CurvatureReport:
    """Exact curvature of every edge, with the minimum singled out."""

    edge_curvature: tuple[tuple[tuple[int, int], Fraction], ...]
    min_curvature: Fraction
    positively_curved: bool

    def as_dict(self) -> dict[tuple[int, int], Fraction]:
        return dict(self.edge_curvature)


def curvature_report(g: Graph) -> CurvatureReport:
    per_edge = tuple((e, kappa_lly(g, e)) for e in g.edges())
    if not per_edge:
        raise CurvatureError("graph has no edges")
    minimum = min(k for _, k in per_edge)
    return CurvatureReport(per_edge, minimum, minimum > 0)


# --- certificate JSON ---------------------------------------------------

def certificate_to_json(
    cert: LipschitzCertificate | CouplingCertificate,
) -> str:
    x, y = cert.edge
    if isinstance(cert, LipschitzCertificate):
        payload = {
            "edge": [x, y],
            "f": {str(v): val for v, val in sorted(cert.f.items())},
        }
    else:
        payload = {
            "edge": [x, y],
            "alpha": str(cert.alpha),
            "pi": [[u, v, str(m)] for u, v, m in cert.pi],
        }
    return json.dumps(payload, indent=2) + "\n"


def certificate_from_json(
    text: str,
) -> LipschitzCertificate | CouplingCertificate:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CurvatureError(f"certificate is not valid JSON: {exc}") from None
    if not isinstance(payload, dict) or "edge" not in payload:
        raise CurvatureError("certificate must be an object with an 'edge'")
    edge = payload["edge"]
    if (
        not isinstance(edge, list)
        or len(edge) != 2
        or not all(isinstance(v, int) for v in edge)
    ):
        raise CurvatureError("'edge' must be a pair of vertex ids")
    has_f = "f" in payload
    has_pi = "pi" in payload
    if has_f == has_pi:
        raise CurvatureError("certificate needs exactly one of 'f' or 'pi'")
    if has_f:
        raw = payload["f"]
        if not isinstance(raw, dict):
            raise CurvatureError("'f' must map vertex ids to integers")
        f = {}
        for k, val in raw.items():
            if not isinstance(val, int) or isinstance(val, bool):
                raise CurvatureError(f"non-integer value {val!r} in 'f'")
            try:
                f[int(k)] = val
            except ValueError:
                raise CurvatureError(f"non-numeric vertex id {k!r} in 'f'") from None
        return LipschitzCertificate((edge[0], edge[1]), f)
    if "alpha" not in payload:
        raise CurvatureError("coupling certificate needs 'alpha'")
    try:
        alpha = Fraction(str(payload["alpha"]))
        pi = []
        for entry in payload["pi"]:
            if not isinstance(entry, list) or len(entry) != 3:
                raise CurvatureError(f"bad coupling entry {entry!r}")
            u, v, m = entry
            pi.append((int(u), int(v), Fraction(str(m))))
    except CurvatureError:
        raise
    except (ValueError, ZeroDivisionError):
        raise CurvatureError("malformed rational in coupling certificate") from None
    return CouplingCertificate((edge[0], edge[1]), alpha, tuple(pi))
