"""Aggregating function tracer.

`Tracer.wrap` replaces a function at one call-site name (an attribute
of a module or class) with a wrapper that times each call.  Spans are
not kept one per call: each call site aggregates its call count, busy
time, self time (busy time minus the busy time of wrapped calls made
inside it) and, where asked for, a bounded reservoir of durations for
percentiles.  This keeps memory flat over millions of calls.
"""
from __future__ import annotations

import importlib
import random
from time import perf_counter

SAMPLE_CAP = 10_000  # durations kept per call site, for percentiles


class Site:
    """Aggregate of every call made through one wrapped name."""

    __slots__ = ("calls", "busy", "self_time", "hits", "first", "note",
                 "samples")

    def __init__(self) -> None:
        self.calls = 0
        self.busy = 0.0
        self.self_time = 0.0
        self.hits = 0  # calls whose result the `hit` predicate accepted
        self.first = 0.0  # busy time of calls that came first in a parent
        self.note = 0  # sum of the `note` function over all calls
        self.samples: list[float] = []

    def as_dict(self) -> dict:
        return {
            "calls": self.calls,
            "busy_s": self.busy,
            "self_s": self.self_time,
            "hits": self.hits,
            "first_s": self.first,
            "note": self.note,
            "samples": self.samples,
        }


class Tracer:
    def __init__(self, seed: int):
        self.sites: dict[str, Site] = {}
        self._stack: list[list] = []  # [child busy time, child calls, name]
        self._rnd = random.Random(seed)

    def resolve(self, package: str, name: str):
        """(owner, attribute) for a call-site name like 'cli.main' or
        'enumeration.PlaneTree.from_shape'; None when it does not exist."""
        module, *attrs = name.split(".")
        try:
            owner = importlib.import_module(f"{package}.{module}")
        except ImportError:
            return None
        for attr in attrs[:-1]:
            owner = getattr(owner, attr, None)
            if owner is None:
                return None
        if attrs[-1] not in vars(owner):
            return None
        return owner, attrs[-1]

    def wrap(self, package: str, name: str, *, hit=None, sample=False,
             note=None, first_under=(), only_if=None) -> bool:
        """Wrap the function, classmethod or property getter at `name`;
        False if the name does not exist.

        hit(result) counts accepted results, note(*args) is summed over
        calls, and a call that is the first wrapped call made inside a
        span named in `first_under` adds its busy time to `first`.  With
        `only_if`, calls for which only_if(*args) is false pass through
        untraced.
        """
        found = self.resolve(package, name)
        if found is None:
            return False
        owner, attr = found
        raw = vars(owner)[attr]
        if isinstance(raw, classmethod):
            fn, rewrap = raw.__func__, classmethod
        elif isinstance(raw, property):
            fn, rewrap = raw.fget, property
        else:
            fn, rewrap = raw, None
        site = self.sites.setdefault(name, Site())
        stack = self._stack
        rnd = self._rnd
        first_under = frozenset(first_under)

        def wrapper(*args, **kwargs):
            if only_if is not None and not only_if(*args, **kwargs):
                return fn(*args, **kwargs)
            frame = [0.0, 0, name]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                site.calls += 1
                site.busy += dt
                site.self_time += dt - frame[0]
                if stack:
                    parent = stack[-1]
                    parent[0] += dt
                    if first_under and parent[1] == 0 and parent[2] in first_under:
                        site.first += dt
                    parent[1] += 1
            if hit is not None and hit(result):
                site.hits += 1
            if note is not None:
                site.note += note(*args, **kwargs)
            if sample:
                if len(site.samples) < SAMPLE_CAP:
                    site.samples.append(dt)
                else:
                    j = rnd.randrange(site.calls)
                    if j < SAMPLE_CAP:
                        site.samples[j] = dt
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", attr)
        setattr(owner, attr, rewrap(wrapper) if rewrap else wrapper)
        return True

    def report(self) -> dict[str, dict]:
        return {name: site.as_dict() for name, site in self.sites.items()}
