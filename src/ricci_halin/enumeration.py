"""Exhaustive classification of generalized Halin graphs by curvature.

Every rooted ordered tree on n vertices (Catalan many) that is not a
path yields one generalized Halin graph; the sweep builds each tree and
skips the paths.  Sweeping all of them for n <= n_max covers
every planar embedding, and graph-level canonical forms collapse the
massive over-generation into isomorphism classes.  Optional pruning
discards trees that certify a non-positively curved edge before any
exact computation happens: the layout rules (Lemmas 3.2 and 3.3) read
only the tree and run before its Graph is built, and the C3/C4 degree
bound runs on the Graph of each tree they keep.

Curvature reports for surviving classes are computed on the canonically
relabeled representative so that serialized output is deterministic.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator

from .canonical import canonical_certificate, canonical_form
from .curvature import CurvatureReport, c3c4_upper_bound, curvature_report
from .formats import from_graph6, pack_graph6
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
    pruned_count: int  # generated trees discarded by layout pruning
    generated_count: int  # trees with max degree >= 3 examined

    @property
    def counts(self) -> dict[str, int]:
        return family_counts(self.classes)[0]

    @property
    def counts_by_n(self) -> dict[int, int]:
        return family_counts(self.classes)[1]

    def halin_classes(self) -> tuple[ClassEntry, ...]:
        return tuple(e for e in self.classes if e.halin)


def _sweep_shapes(n_max: int) -> list[Shape]:
    """The shapes the sweep examines: ordered trees on 4..n_max vertices."""
    return [s for n in range(4, n_max + 1) for s in ordered_tree_shapes(n)]


def distinct_halin_graphs(n_max: int) -> Iterator[HalinGraph]:
    """One representative per isomorphism class, all curvature signs,
    ordered by (n, canonical form)."""
    survivors, _, _ = _classify_chunk((_sweep_shapes(n_max), False))
    for _key, shape in sorted(survivors.items()):
        yield build_halin(PlaneTree.from_shape(shape))


def _layout_prunes(t: PlaneTree) -> bool:
    """Lemma 3.2, then Lemma 3.3: the tree alone forces kappa <= 0."""
    p = tree_profile(t)
    return lemma32_violated(p) or lemma33_violated(p)


def _degree_bound_prunes(g: Graph) -> bool:
    """The C3/C4 degree bound certifies kappa <= 0 on some edge of g."""
    for e in g.edges():
        bound = c3c4_upper_bound(g, e)
        if bound is not None and bound <= 0:
            return True
    return False


def prune_negative(t: PlaneTree, g: Graph) -> bool:
    """True only when a certified bound forces an edge with kappa <= 0 in
    g, the Halin graph of t: Lemma 3.2 or Lemma 3.3 on the tree layout,
    else the C3/C4 degree bound on some edge.

    Sound, not complete: wheels near the positivity boundary pass the
    lemmas and are settled by exact computation.
    """
    return _layout_prunes(t) or _degree_bound_prunes(g)


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
        t = PlaneTree.from_shape(shape)
        if t.max_degree() < 3:
            continue
        generated += 1
        tree_e, cycle_e = halin_edges(t)
        # prune_negative's rules in its order; no Graph for layout-pruned trees
        if use_pruning and _layout_prunes(t):
            pruned += 1
            continue
        g = Graph(t.n, tree_e + cycle_e)
        if use_pruning and _degree_bound_prunes(g):
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


def _sweep(
    shapes: list[Shape], use_pruning: bool, workers: int
) -> Iterator[tuple[dict[tuple[int, int], Shape], int, int]]:
    """Each chunk's result: one chunk in-process for workers <= 1, else
    chunks of len // (workers * 8) shapes on a pool, in any order."""
    if workers <= 1:
        yield _classify_chunk((shapes, use_pruning))
        return
    import multiprocessing as mp

    size = max(1, len(shapes) // (workers * 8))
    chunks = [
        (shapes[i:i + size], use_pruning) for i in range(0, len(shapes), size)
    ]
    with mp.Pool(workers) as pool:
        yield from pool.imap_unordered(_classify_chunk, chunks)


def enumerate_halin(
    n_max: int, use_pruning: bool = True, workers: int = 1
) -> ClassificationResult:
    """Classify all generalized Halin graphs on at most n_max vertices."""
    if n_max < 4:
        raise ValueError(f"need n_max >= 4, got {n_max}")
    survivors: dict[tuple[int, int], Shape] = {}
    pruned = 0
    generated = 0
    for part, p, g in _sweep(_sweep_shapes(n_max), use_pruning, workers):
        for key, shape in part.items():
            _keep_least(survivors, key, shape)
        pruned += p
        generated += g

    positives: list[ClassEntry] = []
    zeros: list[ClassEntry] = []
    sporadic = 0
    # (n, certificate) order is (n, canonical form) order: for one n every
    # canonical graph6 string has the same length, and its body is the
    # certificate's bits, big-endian.  So both lists come out sorted, and
    # sporadic positives are numbered in that order.
    for (n, cert), shape in sorted(survivors.items()):
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
            source_shape=shape,
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
        pruned_count=pruned,
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
