"""Where the traced run looks, and the per-layer metrics it derives.

Each function is wrapped at the name its caller looks it up by, so a
call made through another name is not seen.  `*_s` metrics are self
time: the busy time of the wrapped calls minus the busy time of wrapped
calls made inside them.
"""
from __future__ import annotations

import math

PACKAGE = "ricci_halin"


def _residual_pairs(g, mu, nu) -> int:
    """Sources times targets of the transport problem left once the
    mass the two measures share is kept in place."""
    keys = set(mu.support()) | set(nu.support())
    sources = sum(1 for v in keys if mu[v] > nu[v])
    targets = sum(1 for v in keys if nu[v] > mu[v])
    return sources * targets


_REPORTS = ("enumeration.curvature_report", "cli.curvature_report")

# call-site name -> (layer, Tracer.wrap options)
SITES = {
    "cli.main": ("cli", {}),
    "cli.verify_theorem": ("enumeration", {}),
    "cli.enumerate_halin": ("enumeration", {}),
    "enumeration.ordered_tree_shapes": ("enumeration", {}),
    "enumeration.PlaneTree.from_shape": ("halin", {}),
    "enumeration.halin_edges": ("halin", {}),
    "enumeration.tree_profile": ("halin", {}),
    "enumeration.lemma32_violated": ("halin", {"hit": bool}),
    "enumeration.lemma33_violated": ("halin", {"hit": bool}),
    "enumeration.build_halin": ("halin", {}),
    "enumeration.Graph": ("graph", {}),
    "halin.Graph": ("graph", {}),
    "formats.Graph": ("graph", {}),
    # the all-pairs table is built on first use; later reads are not timed
    "graph.Graph.dist": ("graph", {"only_if": lambda g: getattr(g, "_dist", None) is None}),
    "enumeration.canonical_certificate": ("canonical", {}),
    "enumeration.canonical_form": ("canonical", {}),
    "enumeration.c3c4_upper_bound": (
        "curvature", {"hit": lambda b: b is not None and b <= 0}),
    "enumeration.curvature_report": ("curvature", {}),
    "cli.curvature_report": (
        "curvature", {"note": lambda g: g.num_edges()}),
    "curvature.kappa_lly": (
        "curvature", {"sample": True, "first_under": _REPORTS}),
    "cli.kappa_lly_dual": ("curvature", {"sample": True}),
    "curvature.wasserstein": (
        "transport", {"sample": True, "note": _residual_pairs}),
    "curvature.vertex_measure": ("transport", {}),
    "cli.detect_and_parse": ("formats", {}),
    "enumeration.from_graph6": ("formats", {}),
}


def install(tracer) -> list[str]:
    """Wrap every site; return the names that no longer exist."""
    return [
        name
        for name, (_layer, options) in SITES.items()
        if not tracer.wrap(PACKAGE, name, **options)
    ]


def _percentile_us(samples: list[float], q: float) -> float:
    if not samples:
        return 0.0
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)] * 1e6


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _self_s(*sites):
    return "s", sites, lambda t: t.self_s(*sites)


def _calls(*sites):
    return "count", sites, lambda t: t.calls(*sites)


def _hits(site):
    return "count", (site,), lambda t: t.site(site)["hits"]


def _p_us(site, q):
    return "us", (site,), lambda t: t.percentile_us(site, q)


_ENUM = ("cli.verify_theorem", "cli.enumerate_halin")
_GRAPH = ("enumeration.Graph", "halin.Graph", "formats.Graph")
_CANON = ("enumeration.canonical_certificate", "enumeration.canonical_form")
_TREES = "enumeration.halin_edges"  # the sweep calls it once per tree
_SURVIVORS = "enumeration.canonical_certificate"  # once per unpruned tree
_C3C4 = "enumeration.c3c4_upper_bound"
_KAPPA = "curvature.kappa_lly"
_DUAL = "cli.kappa_lly_dual"
_W1 = "curvature.wasserstein"

# metrics of the two-worker call, which only the sweeps make
TWO_WORKER = ("enumeration.wall_2w_s", "enumeration.speedup_2w")

# metric -> (unit, call sites it reads, value from a TraceView)
METRICS = {
    "enumeration.shapes_s": _self_s("enumeration.ordered_tree_shapes"),
    "enumeration.sweep_s": _self_s(*_ENUM),
    "enumeration.trees": _calls(_TREES),
    "enumeration.pruned": (
        "count", (_TREES, _SURVIVORS),
        lambda t: t.calls(_TREES) - t.calls(_SURVIVORS)),
    "enumeration.survivor_ratio": (
        "ratio", (_TREES, _SURVIVORS),
        lambda t: _ratio(t.calls(_SURVIVORS), t.calls(_TREES))),
    "enumeration.classes": _calls("enumeration.curvature_report"),
    "enumeration.wall_2w_s": ("s", (), lambda t: t.wall_2w_s),
    "enumeration.speedup_2w": (
        "ratio", (), lambda t: _ratio(t.wall_s, t.wall_2w_s)),
    "halin.from_shape_s": _self_s("enumeration.PlaneTree.from_shape"),
    "halin.from_shape_calls": _calls("enumeration.PlaneTree.from_shape"),
    "halin.edges_s": _self_s(_TREES),
    "halin.edges_calls": _calls(_TREES),
    "halin.profile_s": _self_s("enumeration.tree_profile"),
    "halin.profile_calls": _calls("enumeration.tree_profile"),
    "halin.lemma32_s": _self_s("enumeration.lemma32_violated"),
    "halin.lemma32_hits": _hits("enumeration.lemma32_violated"),
    "halin.lemma33_s": _self_s("enumeration.lemma33_violated"),
    "halin.lemma33_hits": _hits("enumeration.lemma33_violated"),
    "halin.build_s": _self_s("enumeration.build_halin"),
    "graph.build_s": _self_s(*_GRAPH),
    "graph.builds": _calls(*_GRAPH),
    "graph.dist_s": _self_s("graph.Graph.dist"),
    "graph.dist_builds": _calls("graph.Graph.dist"),
    "canonical.s": _self_s(*_CANON),
    "canonical.calls": _calls(*_CANON),
    "canonical.us_per_call": (
        "us", _CANON,
        lambda t: _ratio(t.busy_s(*_CANON) * 1e6, t.calls(*_CANON))),
    "curvature.c3c4_s": _self_s(_C3C4),
    "curvature.c3c4_calls": _calls(_C3C4),
    "curvature.c3c4_hits": _hits(_C3C4),
    "curvature.report_s": _self_s(*_REPORTS),
    "curvature.kappa_calls": _calls(_KAPPA),
    "curvature.kappa_s": _self_s(_KAPPA),
    "curvature.kappa_p50_us": _p_us(_KAPPA, 0.5),
    "curvature.kappa_p99_us": _p_us(_KAPPA, 0.99),
    "curvature.first_edge_s": (
        "s", (_KAPPA, *_REPORTS), lambda t: t.site(_KAPPA)["first_s"]),
    "curvature.dual_calls": _calls(_DUAL),
    "curvature.dual_skipped": (
        "count", (_DUAL, "cli.curvature_report"),
        lambda t: t.site("cli.curvature_report")["note"] - t.calls(_DUAL)),
    "curvature.dual_s": _self_s(_DUAL),
    "curvature.dual_p99_us": _p_us(_DUAL, 0.99),
    "transport.wasserstein_calls": _calls(_W1),
    "transport.wasserstein_s": _self_s(_W1),
    "transport.wasserstein_p99_us": _p_us(_W1, 0.99),
    "transport.measure_s": _self_s("curvature.vertex_measure"),
    "transport.residual_mean": (
        "pairs", (_W1,), lambda t: _ratio(t.site(_W1)["note"], t.calls(_W1))),
    "formats.parse_s": _self_s("cli.detect_and_parse"),
    "formats.graph6_s": _self_s("enumeration.from_graph6"),
    "cli.self_s": _self_s("cli.main"),
    "trace.overhead_ratio": (
        "ratio", (), lambda t: _ratio(t.traced_wall_s, t.wall_s)),
}


class TraceView:
    """Accessors over one traced call's site aggregates."""

    def __init__(self, sites: dict, wall_s: float, wall_2w_s: float,
                 traced_wall_s: float):
        self.sites = sites
        self.wall_s = wall_s
        self.wall_2w_s = wall_2w_s
        self.traced_wall_s = traced_wall_s

    def site(self, name: str) -> dict:
        return self.sites[name]

    def calls(self, *names: str) -> int:
        return sum(self.sites[n]["calls"] for n in names)

    def self_s(self, *names: str) -> float:
        return sum(self.sites[n]["self_s"] for n in names)

    def busy_s(self, *names: str) -> float:
        return sum(self.sites[n]["busy_s"] for n in names)

    def percentile_us(self, name: str, q: float) -> float:
        return _percentile_us(self.sites[name]["samples"], q)


def per_layer(view: TraceView, missing: list[str]):
    """(metrics {name: (value, unit)}, unseen [(metric, layer, site)]).

    A metric that reads a missing site is left out and reported as
    unseen, never as zero.
    """
    metrics = {}
    unseen = []
    for name, (unit, needs, value) in METRICS.items():
        gone = [site for site in needs if site in missing]
        if gone:
            unseen.extend((name, SITES[site][0], site) for site in gone)
            continue
        metrics[name] = (value(view), unit)
    return metrics, unseen
