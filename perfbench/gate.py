"""Correctness gate for the outputs of the timed CLI calls.

Each check returns a list of failure messages; an empty list passes.

* Sweeps: a digest of the class list and family counts must match
  reference.json.  The digest leaves out `generated_count` and
  `pruned_count`, whose meaning a sweep change may legitimately alter.
  `verify 13` must also show the theorem's counts.
* curv: the report must cover exactly the input's edges, its summary
  must agree with its edges, and a seeded sample of edges is recomputed
  by a route the program does not use (distances by our own BFS, the
  transport problem by networkx's network simplex).  Where asked, the
  edges whose degree sum put them above curv's cross-check threshold
  are confirmed with the package's dual oracle at a raised threshold.
  The threshold is the package's own default, the one curv applies.
"""
from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from math import lcm

SAMPLE_EDGES = 24

THEOREM_COUNTS_LINE = "W:9 W':5 W'':5 sporadic:8"
THEOREM_TOTAL = 27
THEOREM_HALIN = 11


def sweep_digest(text: str) -> str:
    """sha256 of a sweep's output, without the enumeration counters."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        payload = json.loads(stripped)
        payload.pop("generated_count", None)
        payload.pop("pruned_count", None)
        text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _graph6_edges(code: str) -> int:
    # n <= 62 here, so the size prefix is one byte and padding bits are 0
    return sum(bin(ord(ch) - 63).count("1") for ch in code[1:])


def _graph6_min_degree(code: str) -> int:
    n = ord(code[0]) - 63
    bits = "".join(format(ord(ch) - 63, "06b") for ch in code[1:])
    degree = [0] * n
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if bits[idx] == "1":
                degree[i] += 1
                degree[j] += 1
            idx += 1
    return min(degree)


def sweep_edges(text: str) -> int:
    """Edges of the classes the sweep's output reports."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        payload = json.loads(stripped)
        return sum(
            len(e["edges"])
            for e in payload["classes"] + payload["zero_classes"]
        )
    return sum(
        _graph6_edges(line.split()[-1])
        for line in text.splitlines()
        if line.startswith("n=")
    )


def _theorem_failures(text: str) -> list[str]:
    """verify's output: 27 classes on <= 12 vertices, 11 of them Halin,
    family counts 9/5/5/8, and OK."""
    lines = text.splitlines()
    if not any(line.startswith("OK:") for line in lines):
        return ["verify did not report OK"]
    classes = [
        (int(line[2:4]), line.split()[-1])
        for line in lines
        if line.startswith("n=")
    ]
    failures = []
    small = [code for n, code in classes if n <= 12]
    if len(small) != THEOREM_TOTAL or len(classes) != len(small):
        failures.append(f"{len(classes)} classes, {len(small)} on <= 12 "
                        f"vertices; expected {THEOREM_TOTAL} and none above")
    halin = sum(_graph6_min_degree(code) >= 3 for code in small)
    if halin != THEOREM_HALIN:
        failures.append(f"{halin} Halin classes, expected {THEOREM_HALIN}")
    if THEOREM_COUNTS_LINE not in lines:
        failures.append("family counts differ from 9/5/5/8")
    return failures


def check_sweep(text: str, returncode: int, reference: str,
                theorem: bool) -> list[str]:
    failures = []
    if returncode != 0:
        failures.append(f"exit code {returncode}")
    if sweep_digest(text) != reference:
        failures.append("class-list digest differs from reference.json")
    if theorem:
        failures.extend(_theorem_failures(text))
    return failures


def read_edge_list(text: str) -> tuple[int, list[tuple[int, int]]]:
    lines = text.split("\n")
    n, m = map(int, lines[0].split())
    edges = [tuple(map(int, ln.split())) for ln in lines[1:m + 1]]
    return n, edges


def _adjacency(n, edges):
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def _distances_upto(adj, src, cap):
    dist = {src: 0}
    frontier = [src]
    for d in range(1, cap + 1):
        nxt = []
        for u in frontier:
            for w in adj[u]:
                if w not in dist:
                    dist[w] = d
                    nxt.append(w)
        frontier = nxt
    return dist


def lly_by_network_simplex(adj, x: int, y: int) -> Fraction:
    """Lin-Lu-Yau curvature of edge xy from the lazy measures at the
    idleness 1/(max degree + 1), via networkx's network simplex."""
    import networkx as nx

    alpha = Fraction(1, max(len(adj[x]), len(adj[y])) + 1)

    def measure(v):
        out = {z: (1 - alpha) / len(adj[v]) for z in adj[v]}
        out[v] = alpha
        return out

    mu, nu = measure(x), measure(y)
    scale = lcm(*(m.denominator for m in (*mu.values(), *nu.values())))
    net = nx.DiGraph()
    for u, m in mu.items():
        net.add_node(("s", u), demand=-int(m * scale))
    for v, m in nu.items():
        net.add_node(("t", v), demand=int(m * scale))
    for u in mu:
        # both supports lie within distance 3 of each other
        dist = _distances_upto(adj, u, 3)
        for v in nu:
            net.add_edge(("s", u), ("t", v), weight=dist[v])
    cost, _ = nx.network_simplex(net)
    return (1 - Fraction(cost, scale)) / (1 - alpha)


def sampled_edges(edges, seed: int):
    edges = sorted(edges)
    k = min(SAMPLE_EDGES, len(edges))
    return random.Random(f"gate-{seed}").sample(edges, k)


def check_curv(text: str, returncode: int, n: int, edges, seed: int,
               dual_unchecked: bool, package_graph=None) -> list[str]:
    """Gate one `curv --format json` output for the input (n, edges).

    `package_graph` is the package's Graph of the input, needed only
    with `dual_unchecked`.
    """
    try:
        payload = json.loads(text)
        values = {(u, v): Fraction(k) for u, v, k in payload["edges"]}
        minimum = Fraction(payload["min_curvature"])
        positive = payload["positively_curved"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable curv output: {exc!r}"]
    failures = []
    if payload.get("n") != n:
        failures.append(f"n = {payload.get('n')}, input has {n}")
    if len(values) != len(payload["edges"]) or set(values) != set(edges):
        failures.append("reported edges differ from the input's edges")
        return failures
    if minimum != min(values.values()) or positive != (minimum > 0):
        failures.append("min_curvature/positively_curved disagree with edges")
    expected_rc = 0 if positive else 2
    if returncode != expected_rc:
        failures.append(f"exit code {returncode}, expected {expected_rc}")
    adj = _adjacency(n, edges)
    for x, y in sampled_edges(edges, seed):
        want = lly_by_network_simplex(adj, x, y)
        if values[(x, y)] != want:
            failures.append(
                f"edge {x}-{y}: reported {values[(x, y)]}, "
                f"network simplex gives {want}"
            )
    if dual_unchecked:
        from ricci_halin.curvature import (
            DEFAULT_ORACLE_THRESHOLD,
            kappa_lly_dual,
        )

        for x, y in sorted(edges):
            degree_sum = len(adj[x]) + len(adj[y])
            if degree_sum <= DEFAULT_ORACLE_THRESHOLD:
                continue
            want = kappa_lly_dual(package_graph, (x, y), degree_sum)
            if values[(x, y)] != want:
                failures.append(
                    f"edge {x}-{y}: reported {values[(x, y)]}, "
                    f"dual oracle gives {want}"
                )
    return failures
