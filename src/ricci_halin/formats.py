"""Reading and writing graphs: edge-list text, graph6, DOT.

Edge-list format: first non-comment line "n m", then m lines "u v" with
0-based vertex ids.  Lines starting with '#' are comments.

graph6: the standard 6-bit ASCII encoding of the upper adjacency triangle
in column order x(0,1), x(0,2), x(1,2), x(0,3), ...; the ">>graph6<<"
header is accepted on input and omitted on output.
"""
from __future__ import annotations

from .graph import Graph, GraphError, normalize_edge

GRAPH6_HEADER = b">>graph6<<"


def _graph6_size_prefix(n: int) -> bytes:
    if n < 0:
        raise GraphError("negative vertex count")
    if n <= 62:
        return bytes([n + 63])
    if n <= 258047:
        return bytes(
            [126, ((n >> 12) & 63) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63]
        )
    raise GraphError(f"graph6 size {n} not supported")


def pack_graph6(n: int, bits: int, nbits: int) -> bytes:
    """Assemble graph6 bytes from an upper-triangle bit string.

    `bits` holds the nbits = n(n-1)/2 adjacency bits with x(0,1) as the
    most significant bit, already in graph6 column order.
    """
    pad = (-nbits) % 6
    bits <<= pad
    total = nbits + pad
    body = bytes(
        ((bits >> shift) & 63) + 63 for shift in range(total - 6, -6, -6)
    )
    return _graph6_size_prefix(n) + body


def to_graph6(g: Graph) -> bytes:
    nbits = g.n * (g.n - 1) // 2
    bits = 0
    for j in range(1, g.n):
        mask = g.neighbor_mask(j)
        for i in range(j):
            bits = (bits << 1) | ((mask >> i) & 1)
    return pack_graph6(g.n, bits, nbits)


def from_graph6(data: bytes | str) -> Graph:
    if isinstance(data, str):
        data = data.encode("ascii")
    data = data.strip()
    if data.startswith(GRAPH6_HEADER):
        data = data[len(GRAPH6_HEADER):].strip()
    if not data:
        raise GraphError("empty graph6 input")
    vals = [b - 63 for b in data]
    if any(v < 0 or v > 63 for v in vals):
        raise GraphError("invalid graph6 byte")
    if vals[0] == 63:
        if len(vals) < 4:
            raise GraphError("truncated graph6 size")
        n = (vals[1] << 12) | (vals[2] << 6) | vals[3]
        body = vals[4:]
    else:
        n = vals[0]
        body = vals[1:]
    nbits = n * (n - 1) // 2
    if len(body) != (nbits + 5) // 6:
        raise GraphError(
            f"graph6 body has {len(body)} groups, expected {(nbits + 5) // 6}"
        )
    edges = []
    idx = 0
    for j in range(1, n):
        for i in range(j):
            group, off = divmod(idx, 6)
            if (body[group] >> (5 - off)) & 1:
                edges.append((i, j))
            idx += 1
    return Graph(n, edges)


def parse_edge_list(text: str) -> Graph:
    lines = [
        ln.strip()
        for ln in text.splitlines()
        if ln.strip() and not ln.lstrip().startswith("#")
    ]
    if not lines:
        raise GraphError("empty edge-list input")
    head = lines[0].split()
    if len(head) != 2:
        raise GraphError(f"expected header 'n m', got {lines[0]!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise GraphError(f"expected header 'n m', got {lines[0]!r}") from None
    if len(lines) - 1 != m:
        raise GraphError(f"header promises {m} edges, found {len(lines) - 1}")
    edges = set()
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise GraphError(f"bad edge line {ln!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphError(f"bad edge line {ln!r}") from None
        e = normalize_edge(u, v)
        if e in edges:
            raise GraphError(f"repeated edge {ln!r}")
        edges.add(e)
    return Graph(n, edges)


def write_edge_list(g: Graph) -> str:
    out = [f"{g.n} {g.num_edges()}"]
    out.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(out) + "\n"


def detect_and_parse(text: str) -> Graph:
    """Parse a graph from text, auto-detecting edge-list vs graph6."""
    if not text.strip():
        raise GraphError("empty graph input")
    content = (
        ln.strip()
        for ln in text.splitlines()
        if ln.strip() and not ln.lstrip().startswith("#")
    )
    first = next(content, "")
    parts = first.split()
    if len(parts) == 2 and all(p.isdigit() for p in parts):
        return parse_edge_list(text)
    if next(content, None) is not None:
        raise GraphError("graph6 input holds more than one graph")
    return from_graph6(first)


def to_dot(g: Graph, edge_labels: dict[tuple[int, int], object] | None = None) -> str:
    lines = ["graph G {"]
    for u, v in g.edges():
        if edge_labels is not None:
            lines.append(f'  {u} -- {v} [label="{edge_labels[(u, v)]}"];')
        else:
            lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
