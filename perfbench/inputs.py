"""Seeded inputs for the curv workloads.

The benchmark draws its own graphs, so that a change to the package
cannot change the input it is measured on.  Both generators depend on
the seed alone and return (n, sorted edge list).
"""
from __future__ import annotations

import random


def _connected(n: int, edges: list[tuple[int, int]]) -> bool:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = [False] * n
    seen[0] = True
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if not seen[w]:
                seen[w] = True
                stack.append(w)
    return all(seen)


def gnm(n: int, m: int, seed: int) -> tuple[int, list[tuple[int, int]]]:
    """Uniform random graph with n vertices and exactly m edges, redrawn
    from the same stream until connected.

    With m = p * n(n-1)/2 this is G(n, p) held at its expected size, so
    the work does not swing with the edge count from seed to seed.
    """
    rnd = random.Random(f"gnm-{n}-{m}-{seed}")
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    while True:
        edges = sorted(rnd.sample(pairs, m))
        if _connected(n, edges):
            return n, edges


def random_halin(n: int, seed: int) -> tuple[int, list[tuple[int, int]]]:
    """Random generalized Halin graph on n vertices.

    A random recursive plane tree (vertex i hangs below a uniformly
    chosen earlier vertex, at a uniformly chosen position among its
    children) plus the cycle through its leaves in contour order:
    depth-first from the root 0, children left to right, with a
    degree-1 root counted as the first leaf.
    """
    if n < 4:
        raise ValueError(f"need n >= 4, got {n}")
    rnd = random.Random(f"halin-{n}-{seed}")
    while True:
        children: list[list[int]] = [[] for _ in range(n)]
        for v in range(1, n):
            kids = children[rnd.randrange(v)]
            kids.insert(rnd.randrange(len(kids) + 1), v)
        degree = [len(c) + (v != 0) for v, c in enumerate(children)]
        if max(degree) >= 3:
            break
    leaves = []
    stack = [0]
    while stack:
        v = stack.pop()
        if degree[v] == 1:
            leaves.append(v)
        stack.extend(reversed(children[v]))
    edges = {(v, c) for v in range(n) for c in children[v]}
    k = len(leaves)
    for i in range(k):
        a, b = leaves[i], leaves[(i + 1) % k]
        edges.add((min(a, b), max(a, b)))
    return n, sorted(edges)


def edge_list_text(n: int, edges: list[tuple[int, int]]) -> str:
    """The package's edge-list format: header "n m", then one edge a line."""
    lines = [f"{n} {len(edges)}"]
    lines.extend(f"{u} {v}" for u, v in edges)
    return "\n".join(lines) + "\n"
