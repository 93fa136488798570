"""The benchmark's workloads: the CLI arguments each one runs and, for
the curv workloads, the seeded input the program receives.

Why each workload is here (BENCHMARK.json says the same):

* verify13 -- the paper's headline, `verify 13`.  Shape generation,
  PlaneTree/Graph construction and the three pruning rules run on
  290 433 trees; canonical forms and curvature see only the 4 508
  survivors.
* curv-dense -- `curv` on a connected uniform random graph with 100
  vertices and 990 edges, the expected size of G(100, 0.2): every edge
  has a degree sum above 14, so the dual cross-check is skipped and the
  min-cost-flow kernel dominates.
* curv-sparse -- `curv` on a random generalized Halin graph with 4000
  vertices: the all-pairs distance table and the dual cross-check
  dominate, and transport supports are tiny.

Tiny variants of the same workloads run in a second or so; the
benchmark's tests use them.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from inputs import gnm, random_halin

INPUT = "{input}"  # replaced by the path of the generated input file


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]  # one worker
    argv_2w: tuple[str, ...] | None  # two workers; None: no such option
    reference: str | None = None  # key in reference.json (sweeps)
    theorem: bool = False  # verify output must show the 27/11 classification
    graph: Callable[[int], tuple[int, list[tuple[int, int]]]] | None = None
    dual_unchecked: bool = False  # re-check the edges curv did not


def _sweep(name, args, reference, theorem):
    return Workload(
        name,
        (*args, "--workers", "1"),
        (*args, "--workers", "2"),
        reference=reference,
        theorem=theorem,
    )


def _curv(name, graph, dual_unchecked):
    return Workload(
        name,
        ("curv", INPUT, "--format", "json"),
        None,
        graph=graph,
        dual_unchecked=dual_unchecked,
    )


WORKLOADS = {
    w.name: w
    for w in (
        _sweep("verify13", ("verify", "13"), "verify13", True),
        _curv("curv-dense", lambda seed: gnm(100, 990, seed), False),
        _curv("curv-sparse", lambda seed: random_halin(4000, seed), True),
    )
}

TINY = {
    w.name: w
    for w in (
        _sweep("verify13", ("enum", "--n-max", "7"), "tiny-verify13", False),
        _curv("curv-dense", lambda seed: gnm(30, 87, seed), False),
        _curv("curv-sparse", lambda seed: random_halin(30, seed), True),
    )
}
