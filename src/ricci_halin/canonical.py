"""Canonical forms for small graphs via individualization-refinement.

The canonical form of a graph is the lexicographically smallest graph6
encoding over all vertex relabelings.  The search refines an ordered
partition of the vertices to equitability, then branches on the first
smallest non-singleton cell; every discrete partition reached yields a
candidate encoding and the minimum is canonical.  Adjacency is handled
as per-vertex bitmasks, so refinement counts are popcounts and each
candidate is a single integer comparison.

This is exponential in the worst case but instant on the graphs it is
used for here (a few dozen vertices, little symmetry beyond wheels).
"""
from __future__ import annotations

from .formats import pack_graph6, upper_triangle_bits
from .graph import Graph


def _refine(
    masks: list[int], cells: list[list[int]], work: list[int]
) -> list[list[int]]:
    # Worklist of splitter masks; invariant under any relabeling because
    # bucket order depends only on popcounts, never on vertex ids.
    while work:
        smask = work.pop()
        new_cells: list[list[int]] = []
        for cell in cells:
            if len(cell) == 1:
                new_cells.append(cell)
                continue
            buckets: dict[int, list[int]] = {}
            for v in cell:
                buckets.setdefault((masks[v] & smask).bit_count(), []).append(v)
            if len(buckets) == 1:
                new_cells.append(cell)
                continue
            for count in sorted(buckets):
                part = buckets[count]
                new_cells.append(part)
                work.append(sum(1 << v for v in part))
        cells = new_cells
    return cells


def _search(masks: list[int], cells: list[list[int]], best: list[int | None]) -> None:
    target = None
    for idx, cell in enumerate(cells):
        if len(cell) > 1 and (target is None or len(cell) < len(cells[target])):
            target = idx
    if target is None:
        cert = upper_triangle_bits(masks, [cell[0] for cell in cells])
        if best[0] is None or cert < best[0]:
            best[0] = cert
        return
    for v in cells[target]:
        rest = [u for u in cells[target] if u != v]
        branched = cells[:target] + [[v], rest] + cells[target + 1:]
        # Partition was equitable before individualizing v, so {v} is the
        # only seed splitter needed to restore equitability.
        _search(masks, _refine(masks, branched, [1 << v]), best)


def canonical_certificate(n: int, masks: list[int]) -> int:
    """Smallest upper-triangle bit string over all relabelings."""
    if n == 1:
        return 0
    cells = _refine(masks, [list(range(n))], [(1 << n) - 1])
    best: list[int | None] = [None]
    _search(masks, cells, best)
    assert best[0] is not None
    return best[0]


def canonical_form(g: Graph) -> bytes:
    """graph6 encoding of the canonical relabeling of `g`."""
    cert = canonical_certificate(g.n, list(g._masks))
    return pack_graph6(g.n, cert, g.n * (g.n - 1) // 2)


def are_isomorphic(a: Graph, b: Graph) -> bool:
    if a.n != b.n or a.num_edges() != b.num_edges():
        return False
    return canonical_form(a) == canonical_form(b)
