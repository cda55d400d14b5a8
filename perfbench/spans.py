"""In-memory span tracer that wraps functions from outside the program.

A span records one call of a wrapped function: its name, layer, the
request it belongs to, the span that was open when it started (its
parent), start and end times, and whether it raised.  Calls too short
and too frequent to keep one span each (special functions, the U_K
evaluation, the CEV density) are wrapped as leaves or counters instead:
a leaf adds its time to its layer and to the open span's leaf_s, so
that span's self time excludes it; a counter only counts.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Optional

# span record fields, kept as a list for cheap in-place updates
NAME, LAYER, RID, PARENT, T0, T1, LEAF_S, FAILED = range(8)


@dataclass(frozen=True)
class Target:
    """One function to wrap: owner.attr, looked up by its caller under that name.

    kind is "span", "leaf" or "count".  measure, when given, maps the
    call's result to an amount added to the counter name + ".units".
    """

    owner: object
    attr: str
    name: str
    layer: str
    kind: str = "span"
    measure: Optional[Callable] = None


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.leaf_s: defaultdict = defaultdict(float)
        self.rid: int = -1
        self._stack: list[int] = []

    def call(self, name: str, layer: str, fn: Callable, *args):
        """Run fn(*args) inside a span; this opens each request's root span."""
        return self._span(name, layer, fn, None)(*args)

    def _span(self, name: str, layer: str, fn: Callable, measure) -> Callable:
        counts, stack, spans = self.counts, self._stack, self.spans

        def wrapper(*args, **kwargs):
            rec = [name, layer, self.rid, stack[-1] if stack else -1, perf_counter(), 0.0, 0.0, False]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            except Exception:
                rec[FAILED] = True
                raise
            finally:
                rec[T1] = perf_counter()
                stack.pop()
                counts[name] += 1
            if measure is not None:
                counts[name + ".units"] += measure(out)
            return out

        return wrapper

    def wrap(self, target: Target, fn: Callable) -> Callable:
        name, layer = target.name, target.layer
        counts, stack, spans, leaf_s = self.counts, self._stack, self.spans, self.leaf_s

        if target.kind == "span":
            return self._span(name, layer, fn, target.measure)
        if target.kind == "leaf":
            def wrapper(*args, **kwargs):
                t0 = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = perf_counter() - t0
                    counts[name] += 1
                    leaf_s[layer] += dt
                    if stack:
                        spans[stack[-1]][LEAF_S] += dt
            return wrapper
        if target.kind == "count":
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper
        raise ValueError(f"unknown target kind {target.kind!r}")

    def install(self, targets: list[Target]) -> Callable[[], None]:
        """Patch every target in place; returns the function that restores them."""
        saved = []
        for t in targets:
            original = t.owner.__dict__[t.attr] if isinstance(t.owner, type) else getattr(t.owner, t.attr)
            saved.append((t.owner, t.attr, original))
            setattr(t.owner, t.attr, self.wrap(t, original))

        def restore():
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

        return restore

    def write(self, path) -> None:
        """Spans as JSON lines, then one line of counters."""
        with open(path, "w") as handle:
            for i, s in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": i, "name": s[NAME], "layer": s[LAYER], "request": s[RID],
                    "parent": s[PARENT], "start_s": s[T0], "end_s": s[T1],
                    "leaf_s": s[LEAF_S], "failed": s[FAILED],
                }) + "\n")
            handle.write(json.dumps({"counts": dict(self.counts), "leaf_s": dict(self.leaf_s)}) + "\n")


def covered(intervals: list[tuple[float, float]]) -> float:
    """Total length of the union of [start, end] intervals."""
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part its child spans cover and its leaf time."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            children[s[PARENT]].append(i)
    out = []
    for i, s in enumerate(spans):
        lo, hi = s[T0], s[T1]
        kids = [(max(spans[c][T0], lo), min(spans[c][T1], hi)) for c in children[i]]
        out.append(hi - lo - covered(kids) - s[LEAF_S])
    return out
