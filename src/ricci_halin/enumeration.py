"""Exhaustive classification of generalized Halin graphs by curvature.

Every rooted ordered tree on n vertices (Catalan many) that is not a
path yields one generalized Halin graph, and the graph depends only on
the plane tree underneath, not on the corner it is rooted at.  So the
sweep visits each plane tree on n <= n_max vertices once, rooted at its
centroid by `centroid_trees`; graph-level canonical forms then collapse
the plane trees into isomorphism classes.  Work units share n and the
first branch at the centroid, and paths are skipped.  Optional pruning
discards trees that certify a non-positively curved edge before any
exact computation happens.  One function, `_kept_corners`, decides it
for each plane tree: the C3/C4 degree bound reads the neighbour
bitmasks of the graph, in integers, and the layout rules (Lemmas 3.2
and 3.3) read the tree at each vertex of maximum degree that a rooting
can take as its hub; no Graph is built for a tree in the sweep.  A rooted tree is pruned exactly when its `parent` tuple
is not in the set of rootings that `_kept_corners` keeps for its plane
tree.  The sweep counts those kept rootings; the rooted trees examined
are counted by closed form (`_rooted_trees`), and the pruned ones are
the difference.  The counts and each class's least generating `parent`
tuple are those of the sweep over every rooting.

Curvature reports for surviving classes are computed on the canonically
relabeled representative so that serialized output is deterministic.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import Iterable, Iterator, Sequence

from .canonical import canonical_certificate, canonical_form
from .curvature import (
    CurvatureReport,
    c3c4_upper_bound,  # not called here: perfbench traces this name
    curvature_report,
    degree_bound,
)
from .formats import from_graph6, pack_graph6
from .graph import Graph, in_c3_or_c4
from .halin import (
    PlaneTree,
    Shape,
    _from_parent,
    build_halin,  # not called here: perfbench traces this name
    centroid_trees,
    corner_rootings,
    halin_edges,
    is_halin,
    lemma32_violated,
    lemma33_violated,
    plane_trees,
    tree_profile,
    wheel,
    wheel_sub1,
    wheel_sub2,
)


def ordered_tree_shapes(n: int) -> tuple[Shape, ...]:
    """Every rooted ordered tree on n vertices, Catalan(n-1) of them, in
    increasing order."""
    return tuple(t.shape() for t in plane_trees(n))


@dataclass(frozen=True)
class FamilyLabel:
    """Wheel-family membership, or a sporadic index assigned by the sweep."""

    kind: str  # "W" | "W1" | "W2" | "sporadic"
    param: int | None

    def __str__(self) -> str:
        if self.kind == "W":
            return f"W_{self.param}"
        if self.kind == "W1":
            return f"W'_{self.param}"
        if self.kind == "W2":
            return f"W''_{self.param}"
        return f"H_{self.param}" if self.param is not None else "H_?"


@lru_cache(maxsize=None)
def _family_templates(n: int) -> dict[bytes, FamilyLabel]:
    out = {canonical_form(wheel(n).graph): FamilyLabel("W", n)}
    if n >= 5:
        out[canonical_form(wheel_sub1(n).graph)] = FamilyLabel("W1", n)
    if n >= 6:
        out[canonical_form(wheel_sub2(n).graph)] = FamilyLabel("W2", n)
    return out


def recognize_family(n: int, form: bytes) -> FamilyLabel:
    """Match the canonical form of a graph on n vertices against the three
    wheel templates; anything else is sporadic (index assigned only within
    a classification run)."""
    return _family_templates(n).get(form, FamilyLabel("sporadic", None))


@dataclass(frozen=True)
class ClassEntry:
    """One isomorphism class: canonical form, witnesses, curvature."""

    canonical: bytes
    n: int
    graph: Graph  # canonically relabeled representative
    report: CurvatureReport  # computed on `graph`
    family: FamilyLabel
    halin: bool  # minimum degree 3, i.e. no subdivided tree edge
    source_shape: Shape  # lexicographically least generating tree


@dataclass(frozen=True)
class ClassificationResult:
    n_max: int
    use_pruning: bool
    classes: tuple[ClassEntry, ...]  # positively curved, by (n, canonical)
    # classes whose minimum is exactly 0 *among pruning survivors*; with
    # pruning on, layout-certified zero classes never reach this list
    zero_classes: tuple[ClassEntry, ...]
    pruned_count: int  # generated rooted trees the pruning rules discard
    generated_count: int  # rooted trees with max degree >= 3

    @property
    def counts(self) -> dict[str, int]:
        return family_counts(self.classes)[0]

    @property
    def counts_by_n(self) -> dict[int, int]:
        return family_counts(self.classes)[1]

    def halin_classes(self) -> tuple[ClassEntry, ...]:
        return tuple(e for e in self.classes if e.halin)


def _layout_prunes(t: PlaneTree, hub: int | None = None) -> bool:
    """Lemma 3.2, then Lemma 3.3: the tree's layout at `hub` (by default
    its own) alone forces kappa <= 0."""
    p = tree_profile(t, hub)
    return lemma32_violated(p) or lemma33_violated(p)


def _degree_bound_prunes(
    masks: Sequence[int], edges: Iterable[tuple[int, int]]
) -> bool:
    """The C3/C4 degree bound certifies kappa <= 0 on some edge of the
    graph with neighbour bitmasks `masks`."""
    deg = [m.bit_count() for m in masks]
    for x, y in edges:
        if degree_bound(deg[x], deg[y])[0] <= 0 and not in_c3_or_c4(
            masks, x, y
        ):
            return True
    return False


def _keep_least(
    survivors: dict[tuple[int, int], tuple[int, ...]],
    key: tuple[int, int],
    parent: tuple[int, ...],
) -> None:
    """Keep the least generating tree per class, by `parent` (for one n,
    the order of their shapes)."""
    old = survivors.get(key)
    if old is None or parent < old:
        survivors[key] = parent


_Unit = tuple[int, tuple[int, ...] | None, bool]  # n, first, use_pruning


def _units(n_max: int, use_pruning: bool) -> list[_Unit]:
    """The sweep's work units: for each n, one per rooted tree `first`
    that `centroid_trees(n, first)` accepts, so that their plane trees
    part those on 4..n_max vertices.  The largest n come first, so that
    a pool ends on small units."""
    return [
        (n, t.parent, use_pruning)
        for n in range(n_max, 3, -1)
        for k in range(1, n // 2 + 1)
        for t in plane_trees(k)
    ]


def _rooted_trees(n: int) -> int:
    """The rooted ordered trees on n vertices that are not paths:
    Catalan(n-1) of them, less the n-1 rootings of the path."""
    return comb(2 * n - 2, n - 1) // n - (n - 1)


def _kept_corners(
    t: PlaneTree, use_pruning: bool = True
) -> tuple[list[int], set[tuple[int, ...]]]:
    """The sweep's verdict on a plane tree t that is not a path: the
    neighbour bitmasks of its Halin graph, and the set of `parent`
    tuples of its rootings that survive.  So a rooted tree t is pruned
    exactly when t.parent is not in that set.

    Pruning is sound, not complete: a rooting is dropped only when a
    certified bound forces an edge with kappa <= 0, and wheels near the
    positivity boundary pass and are settled by exact computation.
    The degree bound reads the graph, so it prunes every corner or none;
    the layout rules read a rooting only through its hub, the first
    vertex of maximum degree in its preorder, so they are decided once
    per vertex of maximum degree, and only the corners of a tree some
    rooting of which survives are expanded.
    """
    n = t.n
    tree_e, cycle_e = halin_edges(t)
    # cycle edges first: the degree bound most often certifies one
    edges = cycle_e + tree_e
    masks = [0] * n
    for u, v in edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    hubs = range(n)  # the hubs at which the layout keeps the tree
    if use_pruning:
        if _degree_bound_prunes(masks, edges):
            return masks, set()
        deg = [t.tree_degree(v) for v in range(n)]
        hubs = {
            h for h in range(n)
            if deg[h] == deg[t.hub] and not _layout_prunes(t, h)
        }
        if not hubs:
            return masks, set()
    return masks, {
        parent for parent, hub in corner_rootings(t) if hub in hubs
    }


def _classify_chunk(
    unit: _Unit,
) -> tuple[dict[tuple[int, int], tuple[int, ...]], int]:
    """Map the rooted trees on n vertices whose plane trees
    `centroid_trees(n, first)` yields (all of them if first is None) to
    {(n, certificate): least parent tuple}, with the count of rooted
    trees kept.

    Each plane tree is visited once, and its rooted trees all have one
    Halin graph; `_kept_corners` decides which of them survive.
    """
    n, first, use_pruning = unit
    survivors: dict[tuple[int, int], tuple[int, ...]] = {}
    kept = 0
    for t in centroid_trees(n, first):
        if len(t.leaves) < 3:  # a path, of max degree < 3
            continue
        masks, corners = _kept_corners(t, use_pruning)
        kept += len(corners)
        if corners:
            key = (n, canonical_certificate(n, masks))
            _keep_least(survivors, key, min(corners))
    return survivors, kept


def family_counts(
    classes: Iterable[ClassEntry],
) -> tuple[dict[str, int], dict[int, int]]:
    """Classes per family kind, and classes per vertex count."""
    counts: dict[str, int] = {"W": 0, "W1": 0, "W2": 0, "sporadic": 0}
    counts_by_n: dict[int, int] = {}
    for e in classes:
        counts[e.family.kind] += 1
        counts_by_n[e.n] = counts_by_n.get(e.n, 0) + 1
    return counts, counts_by_n


def _sweep(
    units: list[_Unit], workers: int
) -> Iterator[tuple[dict[tuple[int, int], tuple[int, ...]], int]]:
    """Each unit's result, in any order: in-process on one worker, else
    on a pool of that many processes, but no more than there are units."""
    workers = min(workers, len(units))
    if workers <= 1:
        yield from map(_classify_chunk, units)
        return
    import multiprocessing as mp

    with mp.Pool(workers) as pool:
        yield from pool.imap_unordered(_classify_chunk, units)


def _survivors(
    units: list[_Unit], workers: int
) -> tuple[dict[tuple[int, int], tuple[int, ...]], int]:
    """{(n, certificate): least parent tuple} over the units, with the
    count of rooted trees kept; the same in any order of results."""
    survivors: dict[tuple[int, int], tuple[int, ...]] = {}
    kept = 0
    for part, k in _sweep(units, workers):
        for key, parent in part.items():
            _keep_least(survivors, key, parent)
        kept += k
    return survivors, kept


def enumerate_halin(
    n_max: int, use_pruning: bool = True, workers: int = 1
) -> ClassificationResult:
    """Classify all generalized Halin graphs on at most n_max vertices."""
    if n_max < 4:
        raise ValueError(f"need n_max >= 4, got {n_max}")
    if workers < 1:
        raise ValueError(f"need workers >= 1, got {workers}")
    survivors, kept = _survivors(_units(n_max, use_pruning), workers)
    generated = sum(_rooted_trees(n) for n in range(4, n_max + 1))

    positives: list[ClassEntry] = []
    zeros: list[ClassEntry] = []
    sporadic = 0
    # (n, certificate) order is (n, canonical form) order: for one n every
    # canonical graph6 string has the same length, and its body is the
    # certificate's bits, big-endian.  So both lists come out sorted, and
    # sporadic positives are numbered in that order.
    for (n, cert), parent in sorted(survivors.items()):
        # the key's certificate is the class's canonical form, unpacked
        cert_bytes = pack_graph6(n, cert, n * (n - 1) // 2)
        canon = from_graph6(cert_bytes)
        report = curvature_report(canon)
        if report.min_curvature < 0:
            continue
        family = recognize_family(n, cert_bytes)
        if report.min_curvature > 0 and family.kind == "sporadic":
            sporadic += 1
            family = FamilyLabel("sporadic", sporadic)
        entry = ClassEntry(
            canonical=cert_bytes,
            n=n,
            graph=canon,
            report=report,
            family=family,
            halin=is_halin(canon),
            source_shape=_from_parent(parent).shape(),
        )
        if report.min_curvature > 0:
            positives.append(entry)
        else:
            zeros.append(entry)

    return ClassificationResult(
        n_max=n_max,
        use_pruning=use_pruning,
        classes=tuple(positives),
        zero_classes=tuple(zeros),
        pruned_count=generated - kept,
        generated_count=generated,
    )


@dataclass(frozen=True)
class VerificationReport:
    n_max: int
    result: ClassificationResult
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures

    def lines(self) -> list[str]:
        out = []
        for e in self.result.classes:
            out.append(
                f"n={e.n:2d}  {str(e.family):7s}  min curvature "
                f"{e.report.min_curvature}  halin={e.halin}  "
                f"{e.canonical.decode('ascii')}"
            )
        return out


EXPECTED_COUNTS = {"W": 9, "W1": 5, "W2": 5, "sporadic": 8}
EXPECTED_TOTAL = 27
EXPECTED_HALIN = 11


def verify_theorem(n_max: int, workers: int = 1) -> VerificationReport:
    """Check the full positive-curvature classification against the
    expected family counts, including emptiness above 12 vertices."""
    if n_max < 12:
        raise ValueError(f"n_max must be >= 12, got {n_max}")
    result = enumerate_halin(n_max, use_pruning=True, workers=workers)
    failures = []
    small = [e for e in result.classes if e.n <= 12]
    if len(small) != EXPECTED_TOTAL:
        failures.append(
            f"expected {EXPECTED_TOTAL} positively curved classes with "
            f"<= 12 vertices, found {len(small)}"
        )
    got_counts, _ = family_counts(small)
    if got_counts != EXPECTED_COUNTS:
        failures.append(
            f"family counts {got_counts} != expected {EXPECTED_COUNTS}"
        )
    big = [e for e in result.classes if e.n > 12]
    if big:
        failures.append(
            f"positively curved classes above 12 vertices: "
            f"{[(e.n, str(e.family)) for e in big]}"
        )
    halin = [e for e in small if e.halin]
    if len(halin) != EXPECTED_HALIN:
        failures.append(
            f"expected {EXPECTED_HALIN} positively curved Halin classes, "
            f"found {len(halin)}"
        )
    return VerificationReport(
        n_max=n_max,
        result=result,
        failures=tuple(failures),
    )


# --- JSON serialization ---------------------------------------------------

def _entry_payload(e: ClassEntry) -> dict:
    return {
        "canonical_graph6": e.canonical.decode("ascii"),
        "n": e.n,
        "family": str(e.family),
        "min_curvature": str(e.report.min_curvature),
        "edges": [
            [u, v, str(k)] for (u, v), k in e.report.edge_curvature
        ],
    }


def classification_to_json_dict(result: ClassificationResult) -> dict:
    return {
        "n_max": result.n_max,
        "use_pruning": result.use_pruning,
        "counts": result.counts,
        "counts_by_n": {
            str(n): c for n, c in sorted(result.counts_by_n.items())
        },
        "pruned_count": result.pruned_count,
        "generated_count": result.generated_count,
        "classes": [_entry_payload(e) for e in result.classes],
        "zero_classes": [_entry_payload(e) for e in result.zero_classes],
    }
