"""Exhaustive classification of generalized Halin graphs by curvature.

Every rooted ordered tree on n vertices (Catalan many) yields one
generalized Halin graph; sweeping all of them for n <= n_max covers
every planar embedding, and graph-level canonical forms collapse the
massive over-generation into isomorphism classes.  Optional pruning
discards trees whose layout already certifies a non-positively curved
edge before any exact computation happens.

Curvature reports for surviving classes are computed on the canonically
relabeled representative so that serialized output is deterministic.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator

from .canonical import canonical_certificate, canonical_form
from .curvature import CurvatureReport, c3c4_upper_bound, curvature_report
from .formats import from_graph6
from .graph import Graph
from .halin import (
    HalinGraph,
    PlaneTree,
    Shape,
    build_halin,
    halin_edges,
    is_halin,
    lemma32_violated,
    lemma33_violated,
    tree_profile,
    wheel,
    wheel_sub1,
    wheel_sub2,
)


@lru_cache(maxsize=None)
def _forests(total: int) -> tuple[Shape, ...]:
    """All ordered forests with `total` vertices; a forest is a shape's
    child tuple, so shapes on n vertices are exactly _forests(n-1)."""
    if total == 0:
        return ((),)
    out = []
    for head_size in range(1, total + 1):
        for head in _forests(head_size - 1):
            for rest in _forests(total - head_size):
                out.append((head,) + rest)
    return tuple(out)


def ordered_tree_shapes(n: int) -> tuple[Shape, ...]:
    """Every rooted ordered tree on n vertices, Catalan(n-1) of them."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return _forests(n - 1)


def shape_max_degree(shape: Shape) -> int:
    best = len(shape)  # root degree
    stack = list(shape)
    while stack:
        sub = stack.pop()
        d = len(sub) + 1
        if d > best:
            best = d
        stack.extend(sub)
    return best


def rooted_plane_trees(n: int) -> Iterator[PlaneTree]:
    """Stream of all rooted ordered trees on n vertices with max degree >= 3."""
    if n < 4:
        raise ValueError(f"need n >= 4, got {n}")
    for shape in ordered_tree_shapes(n):
        if shape_max_degree(shape) >= 3:
            yield PlaneTree.from_shape(shape)


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


def recognize_family(h: HalinGraph) -> FamilyLabel:
    """Match against the three wheel templates; anything else is sporadic
    (index assigned only within a classification run)."""
    cert = canonical_form(h.graph)
    return _family_templates(h.n).get(cert, FamilyLabel("sporadic", None))


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
    counts: dict[str, int]  # per family kind
    counts_by_n: dict[int, int]
    pruned_count: int  # generated trees discarded by layout pruning
    generated_count: int  # trees with max degree >= 3 examined

    def halin_classes(self) -> tuple[ClassEntry, ...]:
        return tuple(e for e in self.classes if e.halin)


def distinct_halin_graphs(n_max: int) -> Iterator[HalinGraph]:
    """One representative per isomorphism class, all curvature signs,
    ordered by (n, canonical form)."""
    survivors, _, _ = _classify_chunk(
        ([s for n in range(4, n_max + 1) for s in ordered_tree_shapes(n)],
         False)
    )
    for _key, shape in sorted(survivors.items()):
        yield build_halin(PlaneTree.from_shape(shape))


def prune_negative(t: PlaneTree, g: Graph) -> bool:
    """True only when a certified bound forces an edge with kappa <= 0 in
    g, the Halin graph of t: Lemma 3.2 or Lemma 3.3 on the tree layout,
    else the C3/C4 degree bound on some edge.

    Sound, not complete: wheels near the positivity boundary pass the
    lemmas and are settled by exact computation.
    """
    p = tree_profile(t)
    if lemma32_violated(p) or lemma33_violated(p):
        return True
    for e in g.edges():
        bound = c3c4_upper_bound(g, e)
        if bound is not None and bound <= 0:
            return True
    return False


def _keep_least(
    survivors: dict[tuple[int, int], Shape], key: tuple[int, int], shape: Shape
) -> None:
    """Keep the lexicographically least generating shape per class."""
    old = survivors.get(key)
    if old is None or shape < old:
        survivors[key] = shape


def _classify_chunk(
    args: tuple[list[Shape], bool]
) -> tuple[dict[tuple[int, int], Shape], int, int]:
    """Map a batch of shapes to {(n, certificate): least shape}."""
    shapes, use_pruning = args
    survivors: dict[tuple[int, int], Shape] = {}
    pruned = 0
    generated = 0
    for shape in shapes:
        if shape_max_degree(shape) < 3:
            continue
        generated += 1
        t = PlaneTree.from_shape(shape)
        tree_e, cycle_e, _ = halin_edges(t)
        g = Graph(t.n, tree_e + cycle_e)
        if use_pruning and prune_negative(t, g):
            pruned += 1
            continue
        key = (t.n, canonical_certificate(t.n, list(g._masks)))
        _keep_least(survivors, key, shape)
    return survivors, pruned, generated


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


def enumerate_halin(
    n_max: int, use_pruning: bool = True, workers: int = 1
) -> ClassificationResult:
    """Classify all generalized Halin graphs on at most n_max vertices."""
    if n_max < 4:
        raise ValueError(f"need n_max >= 4, got {n_max}")
    all_shapes: list[Shape] = []
    for n in range(4, n_max + 1):
        all_shapes.extend(ordered_tree_shapes(n))

    survivors: dict[tuple[int, int], Shape] = {}
    pruned = 0
    generated = 0
    if workers <= 1:
        survivors, pruned, generated = _classify_chunk(
            (all_shapes, use_pruning)
        )
    else:
        import multiprocessing as mp

        chunk_size = max(1, len(all_shapes) // (workers * 8))
        chunks = [
            (all_shapes[i:i + chunk_size], use_pruning)
            for i in range(0, len(all_shapes), chunk_size)
        ]
        with mp.Pool(workers) as pool:
            for part, p, g in pool.imap_unordered(_classify_chunk, chunks):
                for key, shape in part.items():
                    _keep_least(survivors, key, shape)
                pruned += p
                generated += g

    positives: list[ClassEntry] = []
    zeros: list[ClassEntry] = []
    for (n, _cert), shape in sorted(survivors.items()):
        h = build_halin(PlaneTree.from_shape(shape))
        cert_bytes = canonical_form(h.graph)
        canon = from_graph6(cert_bytes)
        report = curvature_report(canon)
        if report.min_curvature < 0:
            continue
        entry = ClassEntry(
            canonical=cert_bytes,
            n=n,
            graph=canon,
            report=report,
            family=recognize_family(h),
            halin=is_halin(canon),
            source_shape=shape,
        )
        if report.min_curvature > 0:
            positives.append(entry)
        else:
            zeros.append(entry)

    positives.sort(key=lambda e: (e.n, e.canonical))
    zeros.sort(key=lambda e: (e.n, e.canonical))
    # sporadic indices follow the (n, canonical form) order of the positives
    index = 0
    for i, entry in enumerate(positives):
        if entry.family.kind == "sporadic":
            index += 1
            positives[i] = ClassEntry(
                entry.canonical,
                entry.n,
                entry.graph,
                entry.report,
                FamilyLabel("sporadic", index),
                entry.halin,
                entry.source_shape,
            )
    counts, counts_by_n = family_counts(positives)
    return ClassificationResult(
        n_max=n_max,
        use_pruning=use_pruning,
        classes=tuple(positives),
        zero_classes=tuple(zeros),
        counts=counts,
        counts_by_n=counts_by_n,
        pruned_count=pruned,
        generated_count=generated,
    )


@dataclass(frozen=True)
class VerificationReport:
    ok: bool
    n_max: int
    result: ClassificationResult
    failures: tuple[str, ...]

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
        ok=not failures,
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
        "counts": dict(result.counts),
        "counts_by_n": {
            str(n): c for n, c in sorted(result.counts_by_n.items())
        },
        "pruned_count": result.pruned_count,
        "generated_count": result.generated_count,
        "classes": [_entry_payload(e) for e in result.classes],
        "zero_classes": [_entry_payload(e) for e in result.zero_classes],
    }
