"""Edge curvature of graphs, exactly.

Two independent routes to the same number:

* primal: kappa_alpha(x,y) = 1 - W(m_x^a, m_y^a) via exact optimal
  transport, with the Lin-Lu-Yau value read off at the single idleness
  a = 1/(max{d_x,d_y}+1) where kappa_a/(1-a) already equals the limit;
* dual: minimum of Df(x) - Df(y) over integer-valued 1-Lipschitz f with
  f(x)=0, f(y)=1, where D is the degree-normalized Laplacian.  The
  minimum is attained with values in [-2,2] because every vertex of
  N[x] u N[y] lies within distance 2 of x.  The branch-and-bound runs in
  integers: scaled by d_x*d_y every coefficient of the objective is an
  integer, and the one Fraction is the value it returns.

Both routes are local: every distance they read lies between two
vertices of N[x] u N[y], hence is at most 3, and comes from
`Graph.distance` (neighbour bitmasks), so the cost of one edge does not
depend on the size of the graph and no all-pairs table is ever built.

Being local, the same problem comes back on many edges of a sparse
graph.  Each route therefore solves each distinct problem once per
graph and keeps its exact optimum in the graph's memo, keyed on the
problem as built: the transport residual (see `transport`), and for the
dual (d_x, d_y, c, lo, hi, ahead) in search order.  Equal keys are the
same problem, so a hit is exact.  The routes stay independent: the
dual solves each of its own problems itself, and `curv` compares the
two on every edge it checks.  The certificates solve afresh.

Certificates (a Lipschitz function, or a coupling at some idleness) are
checkable objects proving one-sided bounds.  The Lipschitz checker also
accepts extra vertices anywhere in the graph; for those pairs it runs a
BFS that stops at depth |f(u) - f(v)|.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .graph import (
    Graph,
    GraphError,
    _decimal,
    _is_int,
    edge_in_c3_or_c4,
    require_edge,
)
from .transport import (
    CouplingEntry,
    Measure,
    _transport_cost,
    check_coupling,
    vertex_measure,
    wasserstein,
)


class CurvatureError(ValueError):
    """Invalid curvature query or certificate."""


class OracleInfeasibleError(CurvatureError):
    """Dual oracle refused: endpoint degrees exceed the search threshold."""


DEFAULT_ORACLE_THRESHOLD = 14


def critical_alpha(g: Graph, e: Sequence[int]) -> Fraction:
    """The idleness at which one exact evaluation gives the LLY value."""
    return _critical_alpha(g, *require_edge(g, e))


def _critical_alpha(g: Graph, x: int, y: int) -> Fraction:
    return Fraction(1, max(g.degree(x), g.degree(y)) + 1)


def _transport_edge(g: Graph, e: Sequence[int]) -> tuple[int, int]:
    """require_edge for the transport route, which refuses a bad edge as
    a CurvatureError, like its other bad inputs."""
    try:
        return require_edge(g, e)
    except GraphError as exc:
        raise CurvatureError(str(exc)) from None


def _alpha(alpha: Fraction | int | str) -> Fraction:
    """alpha as a Fraction; a float is refused, as its binary value is
    not the decimal it was written as."""
    if isinstance(alpha, float):
        raise CurvatureError(f"alpha {alpha!r} is a float; give a Fraction")
    return Fraction(alpha)


def kappa_alpha(
    g: Graph, e: Sequence[int], alpha: Fraction | int | str
) -> Fraction:
    x, y = _transport_edge(g, e)
    alpha = _alpha(alpha)
    if not 0 <= alpha <= 1:
        raise CurvatureError(f"alpha {alpha} outside [0, 1]")
    return _kappa_alpha(g, x, y, alpha)


def _kappa_alpha(g: Graph, x: int, y: int, alpha: Fraction) -> Fraction:
    mx = vertex_measure(g, x, alpha)
    my = vertex_measure(g, y, alpha)
    return 1 - _transport_cost(g, mx, my)


def kappa_lly(g: Graph, e: Sequence[int]) -> Fraction:
    x, y = _transport_edge(g, e)  # the one check of the edge
    alpha = _critical_alpha(g, x, y)
    return _kappa_alpha(g, x, y, alpha) / (1 - alpha)


def _dual_problem(
    g: Graph, x: int, y: int, threshold: int
) -> tuple[list[int], tuple]:
    """The dual search's problem on the edge xy, as (free, key): the free
    vertices of N[x] u N[y] in search order, and the key (dx, dy, c, lo,
    hi, ahead) that `_dual_search` solves, all in that order.  Every
    distance it reads is at most 3."""
    dx, dy = g.degree(x), g.degree(y)
    if dx + dy > threshold:
        raise OracleInfeasibleError(
            f"oracle infeasible: d_x + d_y = {dx + dy} "
            f"exceeds threshold {threshold}"
        )
    # Scaled by dx*dy the objective is an integer: f(y) = 1 gives
    # dx*dy + dy, a free v gives c_v*f(v).  The positive scale keeps every
    # comparison below, so the search is the same as over rationals.
    adj_x, adj_y = set(g.adj[x]), set(g.adj[y])
    coeff = {
        v: dy * (v in adj_x) - dx * (v in adj_y)
        for v in (adj_x | adj_y) - {x, y}
    }
    free = sorted(coeff, key=lambda v: (-abs(coeff[v]), v))
    c = tuple([coeff[v] for v in free])
    distance = g._distance
    # ahead[i][j - i - 1] is the distance from free[i] to free[j], j > i
    ahead = tuple([
        tuple([distance(u, v) for v in free[i + 1:]])
        for i, u in enumerate(free)
    ])
    lo, hi = [], []
    for v in free:
        dx_v, dy_v = distance(v, x), distance(v, y)
        lo.append(max(-2, -dx_v, 1 - dy_v))
        hi.append(min(2, dx_v, 1 + dy_v))
        if lo[-1] > hi[-1]:
            raise CurvatureError("empty Lipschitz domain")  # unreachable
    return free, (dx, dy, c, tuple(lo), tuple(hi), ahead)


def _dual_search(
    dx: int,
    dy: int,
    c: Sequence[int],
    lo: Sequence[int],
    hi: Sequence[int],
    ahead: Sequence[Sequence[int]],
) -> tuple[int, list[int]]:
    """Branch-and-bound over integer f on the free vertices, each in its
    box [lo, hi] and 1-Lipschitz against the ones before it: returns the
    least scaled objective and the values that reach it, in search
    order."""
    k = len(c)
    lo, hi = list(lo), list(hi)
    value = [0] * k
    best: int | None = None
    best_f: list[int] = []

    def descend(i: int, partial: int) -> None:
        nonlocal best, best_f
        if best is not None:
            # the least the remaining vertices can add on their boxes
            tail = sum(min(c[j] * lo[j], c[j] * hi[j]) for j in range(i, k))
            if partial + tail >= best:
                return
        if i == k:
            best, best_f = partial, value[:]
            return
        ci = c[i]
        saved_lo, saved_hi = lo[i + 1:], hi[i + 1:]
        for t in sorted(range(lo[i], hi[i] + 1), key=lambda t: ci * t):
            feasible = True
            for j, d in enumerate(ahead[i], i + 1):
                if t - d > lo[j]:
                    lo[j] = t - d
                if t + d < hi[j]:
                    hi[j] = t + d
                if lo[j] > hi[j]:
                    feasible = False
            if feasible:
                value[i] = t
                descend(i + 1, partial + ci * t)
            lo[i + 1:], hi[i + 1:] = saved_lo, saved_hi

    descend(0, dx * dy + dy)
    return best, best_f


def kappa_lly_dual(
    g: Graph, e: Sequence[int], threshold: int = DEFAULT_ORACLE_THRESHOLD
) -> Fraction:
    """Curvature by exhaustive search over integer Lipschitz functions.

    Each distinct search problem is solved once per graph: its optimum
    is kept in `g._memo` under its key, which is the whole problem."""
    x, y = require_edge(g, e)
    _, key = _dual_problem(g, x, y, threshold)
    memo = g._memo
    best = memo.get(key)
    if best is None:
        best = memo[key] = _dual_search(*key)[0]
    return Fraction(best, key[0] * key[1])


def lipschitz_certificate(
    g: Graph, e: Sequence[int], threshold: int = DEFAULT_ORACLE_THRESHOLD
) -> "LipschitzCertificate":
    """An optimal dual witness: certifies the exact curvature from above."""
    x, y = require_edge(g, e)
    free, key = _dual_problem(g, x, y, threshold)
    f = {x: 0, y: 1}
    f.update(zip(free, _dual_search(*key)[1]))
    return LipschitzCertificate((x, y), f)


def coupling_certificate(
    g: Graph, e: Sequence[int], alpha: Fraction | None = None
) -> "CouplingCertificate":
    """An optimal transport plan: certifies the exact curvature from below."""
    x, y = _transport_edge(g, e)
    alpha = critical_alpha(g, e) if alpha is None else _idleness(g, e, alpha)
    result = wasserstein(
        g, vertex_measure(g, x, alpha), vertex_measure(g, y, alpha)
    )
    return CouplingCertificate((x, y), alpha, result.plan)


def c3c4_upper_bound(g: Graph, e: Sequence[int]) -> Fraction | None:
    """Degree bound on curvature, available only off triangles and C4s."""
    if edge_in_c3_or_c4(g, e):  # raises GraphError unless e is an edge
        return None
    x, y = e
    return Fraction(*degree_bound(g.degree(x), g.degree(y)))


def degree_bound(dx: int, dy: int) -> tuple[int, int]:
    """min(1/dx + 2/dy, 1/dy + 2/dx) - 1, the curvature bound of an edge
    with end degrees dx and dy on no triangle or quadrilateral, as
    (numerator, dx*dy): its sign is the numerator's."""
    return dx + dy + min(dx, dy) - dx * dy, dx * dy


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
    simply join the Lipschitz check (against full-graph distances, each
    searched no deeper than the gap in f it must cover).
    """
    x, y = require_edge(g, cert.edge)
    f = cert.f
    needed = set(g.adj[x]) | set(g.adj[y]) | {x, y}
    missing = needed - set(f)
    if missing:
        raise CurvatureError(f"certificate misses vertices {sorted(missing)}")
    for v, val in f.items():
        if not _is_int(v):
            raise CurvatureError(f"vertex id {v!r} is not an int")
        if not 0 <= v < g.n:
            raise CurvatureError(f"certificate names missing vertex {v}")
        if not _is_int(val):
            raise CurvatureError(f"non-integer value {val!r} at vertex {v}")
    if f[y] - f[x] != 1:
        raise CurvatureError(f"f(y)-f(x) = {f[y] - f[x]}, expected 1")
    verts = sorted(f)
    for i, u in enumerate(verts):
        for v in verts[i + 1:]:
            gap = abs(f[u] - f[v])
            if gap < 2:
                continue  # distinct vertices are at least 1 apart
            # the search need not look deeper than the gap it must cover
            d = g._distance(u, v, cap=gap)
            if gap > d:
                raise CurvatureError(
                    f"Lipschitz violation on pair ({u}, {v}): "
                    f"|{f[u]} - {f[v]}| > dist {d}"
                )
    lap_x = Fraction(sum(f[z] - f[x] for z in g.adj[x]), g.degree(x))
    lap_y = Fraction(sum(f[z] - f[y] for z in g.adj[y]), g.degree(y))
    return lap_x - lap_y


def _idleness(g: Graph, e: Sequence[int], alpha: Fraction) -> Fraction:
    """alpha as a Fraction, if a coupling at it certifies the LLY value."""
    alpha = _alpha(alpha)
    floor = critical_alpha(g, e)
    if not floor <= alpha < 1:
        raise CurvatureError(
            f"alpha {alpha} outside [{floor}, 1); the ratio identity needs it"
        )
    return alpha


def check_coupling_certificate(
    g: Graph, cert: CouplingCertificate
) -> Fraction:
    """Validate and evaluate: returns the certified lower bound on curvature."""
    x, y = _transport_edge(g, cert.edge)
    alpha = _idleness(g, cert.edge, cert.alpha)
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


_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def _json_rational(x: object) -> Fraction:
    """A rational written as a JSON string "p/q" or a bare integer; a JSON
    number is refused, as it would reach Fraction through a binary float,
    and so is any other spelling Fraction reads ("0.5", "1e-3", " 1_0 ")."""
    if not isinstance(x, str) or not _RATIONAL.fullmatch(x):
        raise CurvatureError(f"rational {x!r} must be a string like \"p/q\"")
    return Fraction(x)


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
        or not all(_is_int(v) for v in edge)
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
            if not _is_int(val):
                raise CurvatureError(f"non-integer value {val!r} in 'f'")
            v = _decimal(k)
            if v is None:
                raise CurvatureError(f"vertex id {k!r} in 'f' is not decimal")
            f[v] = val
        return LipschitzCertificate((edge[0], edge[1]), f)
    if "alpha" not in payload:
        raise CurvatureError("coupling certificate needs 'alpha'")
    if not isinstance(payload["pi"], list):
        raise CurvatureError("'pi' must be a list of [u, v, mass] entries")
    try:
        alpha = _json_rational(payload["alpha"])
        pi = []
        for entry in payload["pi"]:
            if (
                not isinstance(entry, list)
                or len(entry) != 3
                or not all(_is_int(v) for v in entry[:2])
            ):
                raise CurvatureError(f"bad coupling entry {entry!r}")
            u, v, m = entry
            pi.append((u, v, _json_rational(m)))
    except CurvatureError:
        raise
    except (ValueError, ZeroDivisionError):
        raise CurvatureError("malformed rational in coupling certificate") from None
    return CouplingCertificate((edge[0], edge[1]), alpha, tuple(pi))
