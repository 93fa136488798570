"""Exact optimal transport between probability measures on graph vertices.

A `Measure` holds its masses as positive integer numerators over one
least common denominator, so the whole transport problem runs in
integers: both measures are scaled to the lcm of their denominators,
the common mass is stripped (kept in place, which is optimal for metric
costs), and the residual problem is solved on the bipartite
supply/demand network.  `_residual` builds that problem, the one place
it is built.  Each source's costs are read off the neighbour bitmasks
(1 if adjacent, 2 if a common neighbour, `Graph.distance` beyond)
straight into cost classes: one bitmask of target indices per cost
value, the one row format the kernel `_min_cost_flow` takes.
Every residual with mass to move goes through the kernel, one source or
one target included.  It solves the problem by primal-dual phases over
these masks: one labelling pass, `_relabel`, sets the labels before
each phase (before the first, with no flow yet, it settles each target
at its column minimum), and each phase pushes flow along tight arcs,
direct ones first, then paths found by a search over the masks.  For
the lazy measures of an edge the residual costs lie in {1, 2, 3},
so there are at most three phases.  The kernel's final labels are an
optimal dual, kept with the result.  The one `Fraction` a solve builds
is its cost; the optimal coupling is kept as integer triples and read
out as exact `Fraction` entries on demand.

Two entry points share that problem.  `wasserstein` solves it afresh
and returns the coupling and the duals, for certificates and checks.
`_transport_cost`, the curvature's route, returns the cost alone and
solves each distinct residual problem once per graph: the kernel's
integer optimum is kept in the graph's memo under the key (supplies,
demands, each source's cost-class row), in the order `_residual` built
them.  The key is the whole problem, so a hit is exact.  It is not put
in a canonical order: sorting costs more than the hits it would add.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence

from .graph import Graph, _is_int

ZERO = Fraction(0)

# coupling entries: (source vertex, target vertex, positive mass)
CouplingEntry = tuple[int, int, Fraction]


class TransportError(ValueError):
    """Invalid measure, coupling, or transport instance."""


def _rational(x: Fraction | int | str, what: str) -> Fraction:
    """x as an exact Fraction; a float is refused, since the binary value
    it holds is not the decimal it was written as."""
    if isinstance(x, float):
        raise TransportError(
            f"{what} is a float ({x!r}); give an int, Fraction or str"
        )
    return Fraction(x)


class Measure:
    """Finitely supported probability measure on vertex ids.

    The masses are held as positive integers `_num[v]` over one common
    denominator `_den`, the least one, so two measures are equal exactly
    when their numerators and denominators are.  Reads return `Fraction`
    values.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, mass: Mapping[int, Fraction | int | str]):
        clean: dict[int, Fraction] = {}
        total = ZERO
        for v, m in mass.items():
            if not _is_int(v):
                raise TransportError(f"vertex id {v!r} is not an int")
            m = _rational(m, f"mass at vertex {v}")
            if m < 0:
                raise TransportError(f"negative mass {m} at vertex {v}")
            if m == 0:
                continue
            clean[v] = m
            total += m
        if total != 1:
            raise TransportError(f"total mass {total}, expected 1")
        den = lcm(*(m.denominator for m in clean.values()))
        self._num = {
            v: m.numerator * (den // m.denominator) for v, m in clean.items()
        }
        self._den = den

    @classmethod
    def _from_ints(cls, num: dict[int, int], den: int) -> Measure:
        """The measure num[v]/den, trusted: positive numerators summing to
        den, with no common factor shared by all of them and den."""
        self = object.__new__(cls)
        self._num = num
        self._den = den
        return self

    def __getitem__(self, v: int) -> Fraction:
        k = self._num.get(v)
        return Fraction(k, self._den) if k else ZERO

    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self._num))

    def items(self) -> list[tuple[int, Fraction]]:
        den = self._den
        return [(v, Fraction(k, den)) for v, k in sorted(self._num.items())]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Measure):
            return NotImplemented
        return self._den == other._den and self._num == other._num

    def __repr__(self) -> str:
        inner = ", ".join(f"{v}: {m}" for v, m in self.items())
        return f"Measure({{{inner}}})"


class TransportResult:
    """Optimal cost together with one optimal coupling.

    The coupling is kept as integer triples (u, v, k), each moving mass
    k/scale from u to v; `plan` reads it out as the sorted tuple of exact
    `Fraction` entries.
    """

    __slots__ = ("cost", "_pairs", "_scale", "_dual")

    def __init__(
        self,
        cost: Fraction,
        pairs: list[tuple[int, int, int]],
        scale: int,
        dual: tuple[list[int], list[int], list[int]] | None,
    ):
        self.cost = cost
        self._pairs = pairs
        self._scale = scale
        # (sources, targets, labels) of the residual problem, or None when
        # no mass moves: labels[i] is source i's label and
        # labels[len(sources) + j] target j's, an optimal dual
        self._dual = dual

    @property
    def plan(self) -> tuple[CouplingEntry, ...]:
        scale = self._scale
        return tuple(
            (u, v, Fraction(k, scale)) for u, v, k in sorted(self._pairs)
        )

    def __repr__(self) -> str:
        return f"TransportResult(cost={self.cost}, plan={self.plan})"


def vertex_measure(g: Graph, x: int, alpha: Fraction | int | str) -> Measure:
    """Lazy-walk measure: alpha stays at x, the rest spreads to neighbors.

    With alpha = p/q and d = deg x, x carries p*d and each neighbour q - p
    units over q*d, reduced by their gcd.
    """
    alpha = _rational(alpha, "alpha")
    if not 0 <= alpha <= 1:
        raise TransportError(f"alpha {alpha} outside [0, 1]")
    if not _is_int(x):
        raise TransportError(f"vertex id {x!r} is not an int")
    if not 0 <= x < g.n:
        raise TransportError(f"vertex {x} out of range")
    if alpha == 1:
        return Measure._from_ints({x: 1}, 1)
    d = g.degree(x)
    if d == 0:
        raise TransportError(f"vertex {x} has no neighbors to carry mass")
    p, q = alpha.numerator, alpha.denominator
    stay, share = p * d, q - p
    r = gcd(stay, share)
    share //= r
    num = dict.fromkeys(g.adj[x], share)
    if stay:
        num[x] = stay // r
    return Measure._from_ints(num, q * d // r)


def _check_vertices(g: Graph, mu: Measure) -> None:
    for v in mu._num:
        if not 0 <= v < g.n:
            raise TransportError(f"measure supported on missing vertex {v}")


def _min_cost_flow(
    classes: list[dict[int, int]],
    supply: Sequence[int],
    demand: Sequence[int],
) -> tuple[int, list[dict[int, int]], list[int]]:
    """Exact transportation problem by primal-dual phases over bitmasks.

    classes[i] is supply i's row of positive integer costs as cost
    classes: a dict from each cost c to the bitmask of the demand
    indices j at cost c, every demand in one class.  Every supply is
    positive.  Returns (cost, carried, labels): the optimal cost, the
    flow as carried[j][i] = units that supply i sends to demand j, and
    the final labels d, supplies then demands, an optimal dual, with
    d[j] - d[i] <= c_ij on every arc and equality on every arc that
    carries flow.

    The demands' labels are kept as one bitmask per label value, so the
    tight arcs of supply i, those with d[i] + c == d[j], are the OR over
    its cost classes c of class_c & level[d[i] + c].  A supply with mass
    left is a root and stays at label 0.  A phase pushes flow from the
    roots to the unmet demands at its distance D, the least label of an
    unmet demand: first along direct arcs of cost D, then along tight
    paths found by a search over the masks, which steps back along
    flow-carrying arcs; those are always tight.  Every pushed path costs
    exactly D.  Before each phase `_relabel` sets the labels by a bucket
    scan of the reduced distances, which are non-negative, so labels
    only grow, and no label passes max(cost); before the first, with no
    flow yet and every label 0, it settles each demand at the minimum of
    its column.  D grows by at least 1 per phase, so there are at most
    max(cost) phases, and at most 3 for the lazy measures of an edge.
    """
    if sum(supply) != sum(demand):
        raise TransportError("infeasible transport instance")
    ns, nd = len(supply), len(demand)
    carried: list[dict[int, int]] = [{} for _ in range(nd)]
    rem_s = list(supply)
    rem_d = list(demand)
    unmet = sum(1 << j for j in range(nd) if demand[j])
    total = 0
    label = [0] * ns
    # level[k]: bitmask of the demands at label k
    level = _relabel(classes, label, {0: (1 << nd) - 1}, carried, rem_s)
    while unmet:
        reach = min(k for k, m in level.items() if m & unmet)
        sinks = level[reach] & unmet
        # a root is at 0, so its tight arcs into the sinks are its arcs
        # of cost reach; roots with fewer of them push first, which
        # leaves fewer paths to the search
        roots = sorted(
            (i for i in range(ns) if rem_s[i]),
            key=lambda i: (classes[i].get(reach, 0) & sinks).bit_count(),
        )
        for i in roots:
            m = classes[i].get(reach, 0) & sinks
            while m and rem_s[i]:
                low = m & -m
                m ^= low
                j = low.bit_length() - 1
                theta = min(rem_s[i], rem_d[j])
                carried[j][i] = carried[j].get(i, 0) + theta
                rem_s[i] -= theta
                rem_d[j] -= theta
                total += theta * reach
                if not rem_d[j]:
                    sinks ^= low
                    unmet ^= low
        while sinks:
            path = _tight_path(classes, label, level, carried, rem_s, sinks)
            if path is None:
                break
            ahead, back = path
            root, sink = ahead[-1][0], ahead[0][1]
            theta = min(
                rem_s[root], rem_d[sink], *(carried[j][i] for j, i in back)
            )
            rem_s[root] -= theta
            rem_d[sink] -= theta
            total += theta * reach
            for i, j in ahead:
                carried[j][i] = carried[j].get(i, 0) + theta
            for j, i in back:
                left = carried[j][i] - theta
                if left:
                    carried[j][i] = left
                else:
                    del carried[j][i]
            if not rem_d[sink]:
                sinks ^= 1 << sink
                unmet ^= 1 << sink
        if unmet:
            level = _relabel(classes, label, level, carried, rem_s)
    labels = label + [0] * nd
    for k, m in level.items():
        while m:
            low = m & -m
            m ^= low
            labels[ns + low.bit_length() - 1] = k
    return total, carried, labels


def _tight_path(
    classes: list[dict[int, int]],
    label: list[int],
    level: dict[int, int],
    carried: list[dict[int, int]],
    rem_s: list[int],
    sinks: int,
) -> tuple[list[tuple[int, int]], list[tuple[int, int]]] | None:
    """A path of tight arcs from a supply with mass left to a demand in
    the bitmask `sinks`, or None.  A depth-first search over the masks:
    from supply i it reaches every unseen demand of its tight mask, and
    from a demand it steps back to the supplies that send it flow.
    Returns the path's tight arcs (i, j), from the sink back to the
    root, and the flow arcs (j, i) it steps back along."""
    ns = len(rem_s)
    # via_s[i]: -1 for a root, else the demand that i was reached back
    # from; via_d[j]: the supply whose tight arc reached j
    via_s = [-2] * ns
    stack = [i for i in range(ns) if rem_s[i]]
    for i in stack:
        via_s[i] = -1
    via_d = [0] * len(carried)
    seen = 0
    while stack:
        i = stack.pop()
        base = label[i]
        new = 0
        for c, m in classes[i].items():
            new |= m & level.get(base + c, 0)
        new &= ~seen
        seen |= new
        hit = new & sinks
        if hit:
            j = (hit & -hit).bit_length() - 1
            ahead = []
            back = []
            while True:
                ahead.append((i, j))
                j = via_s[i]
                if j < 0:
                    return ahead, back
                back.append((j, i))
                i = via_d[j]
        while new:
            low = new & -new
            new ^= low
            j = low.bit_length() - 1
            via_d[j] = i
            for k in carried[j]:
                if via_s[k] == -2:
                    via_s[k] = j
                    stack.append(k)
    return None


def _relabel(
    classes: list[dict[int, int]],
    label: list[int],
    level: dict[int, int],
    carried: list[dict[int, int]],
    rem_s: list[int],
) -> dict[int, int]:
    """The next phase's labels: updates the supplies' `label` in place
    and returns the demands' levels.  Scans the reduced distances
    r = 0, 1, ... in order, as a bucket queue: a demand at label k that
    is first offered k + r settles at r, and so does a supply reached
    back from it along a flow arc, whose reduced cost is 0; the roots
    settle at 0.  With no flow yet and every label 0, each demand
    settles at the minimum of its column."""
    ns = len(rem_s)
    old = list(level.items())
    level = {}
    offers: dict[int, int] = {}  # label t -> the demands offered t
    fresh = [i for i in range(ns) if rem_s[i]]
    done = bytearray(ns)
    for i in fresh:
        done[i] = 1
    everyone = (1 << len(carried)) - 1
    settled = 0
    r = 0
    while settled != everyone:
        for i in fresh:
            base = label[i]
            for c, m in classes[i].items():
                offers[base + c] = offers.get(base + c, 0) | m
        fresh = []
        new = 0
        for k, m in old:
            hit = offers.get(k + r, 0) & m & ~settled
            if hit:
                new |= hit
                level[k + r] = level.get(k + r, 0) | hit
        if not new:
            r += 1
            continue
        settled |= new
        while new:
            low = new & -new
            new ^= low
            for i in carried[low.bit_length() - 1]:
                if not done[i]:
                    done[i] = 1
                    label[i] += r
                    fresh.append(i)
    return level


def _residual(
    g: Graph, mu: Measure, nu: Measure
) -> tuple[int, list[int], list[int], tuple[int, ...], tuple[int, ...],
           list[dict[int, int]], tuple[int, ...]] | None:
    """The transport problem left once the mass the two measures share is
    kept in place, in integers at scale lcm of their denominators.

    Returns None when no mass moves, else (scale, sources, targets,
    supply, demand, classes, rows): the sorted vertices with mass to
    send and to receive, their integer masses, each source's cost
    classes over the target indices (the kernel's row format), and each
    source's row packed into one int, class c's mask shifted by
    (c - 1) * len(targets).  The classes part the targets, so a packed
    row determines its costs, and (supply, demand, rows) the problem.
    """
    _check_vertices(g, mu)
    _check_vertices(g, nu)
    scale = lcm(mu._den, nu._den)
    a, b = scale // mu._den, scale // nu._den
    mu_num, nu_num = mu._num, nu._num
    res_s: dict[int, int] = {}
    res_d: dict[int, int] = {}
    for v, k in mu_num.items():
        s = k * a
        t = nu_num.get(v, 0) * b
        if s > t:
            res_s[v] = s - t
        elif t > s:
            res_d[v] = t - s
    if not res_s:
        return None
    for v, k in nu_num.items():
        if v not in mu_num:
            res_d[v] = k * b
    sources = sorted(res_s)
    targets = sorted(res_d)
    nd = len(targets)
    distance = g._distance
    # each source's cost classes over the target indices, read off the
    # neighbour bitmasks: 1 if adjacent, 2 if a common neighbour
    masks = g._masks
    columns = [(1 << j, v, masks[v]) for j, v in enumerate(targets)]
    classes = []
    rows = []
    for u in sources:
        near = masks[u]
        ones = twos = 0
        cls: dict[int, int] = {}
        for bit, v, mv in columns:
            if near >> v & 1:
                ones |= bit
            elif near & mv:
                twos |= bit
            else:
                c = distance(u, v)
                cls[c] = cls.get(c, 0) | bit
        row = ones | twos << nd
        for c, m in cls.items():
            row |= m << (c - 1) * nd
        rows.append(row)
        if ones:
            cls[1] = ones
        if twos:
            cls[2] = twos
        classes.append(cls)
    supply = tuple([res_s[u] for u in sources])
    demand = tuple([res_d[v] for v in targets])
    return scale, sources, targets, supply, demand, classes, tuple(rows)


def wasserstein(g: Graph, mu: Measure, nu: Measure) -> TransportResult:
    """Exact 1-Wasserstein distance and an optimal coupling, solved afresh."""
    residual = _residual(g, mu, nu)
    scale = lcm(mu._den, nu._den)
    a, b = scale // mu._den, scale // nu._den
    nu_num = nu._num
    # the shared mass, kept in place
    pairs = [
        (v, v, min(k * a, nu_num[v] * b))
        for v, k in mu._num.items() if v in nu_num
    ]
    if residual is None:
        return TransportResult(ZERO, pairs, scale, None)
    _, sources, targets, supply, demand, classes, _ = residual
    total, carried, labels = _min_cost_flow(classes, supply, demand)
    for v, flows in zip(targets, carried):
        for i, k in flows.items():
            pairs.append((sources[i], v, k))
    return TransportResult(
        Fraction(total, scale), pairs, scale, (sources, targets, labels)
    )


def _transport_cost(g: Graph, mu: Measure, nu: Measure) -> Fraction:
    """The optimal cost alone: no coupling is built, and each distinct
    residual problem is solved once per graph.  Its integer optimum is
    kept in `g._memo` under the key (supply, demand, rows), built in the
    order `_residual` gives; equal keys are the same problem, so a hit
    is exact."""
    residual = _residual(g, mu, nu)
    if residual is None:
        return ZERO
    scale, _, _, supply, demand, classes, rows = residual
    key = (supply, demand, rows)
    memo = g._memo
    total = memo.get(key)
    if total is None:
        total = memo[key] = _min_cost_flow(classes, supply, demand)[0]
    return Fraction(total, scale)


def coupling_cost(g: Graph, plan: Iterable[CouplingEntry]) -> Fraction:
    total = ZERO
    for u, v, m in plan:
        if not (0 <= u < g.n and 0 <= v < g.n):
            raise TransportError(f"coupling touches missing vertex ({u}, {v})")
        if m < 0:
            raise TransportError(f"negative coupling mass at ({u}, {v})")
        total += m * g.distance(u, v)
    return total


def check_coupling(
    g: Graph, mu: Measure, nu: Measure, plan: Iterable[CouplingEntry]
) -> Fraction:
    """Validate marginals of a coupling and return its cost."""
    plan = list(plan)
    left: dict[int, Fraction] = {}
    right: dict[int, Fraction] = {}
    for u, v, m in plan:
        if m == 0:
            continue
        left[u] = left.get(u, ZERO) + m
        right[v] = right.get(v, ZERO) + m
    if left != {v: m for v, m in mu.items()}:
        raise TransportError("left marginal does not match source measure")
    if right != {v: m for v, m in nu.items()}:
        raise TransportError("right marginal does not match target measure")
    return coupling_cost(g, plan)
