"""Span recording around the calls into each sadmm layer, and the arithmetic
that turns spans into per-layer numbers.

The wrappers are installed from outside the package, by rebinding the module
and class attributes the program calls through; no file of the package is
changed. Spans are kept in memory and summarized when the run ends.
"""

from __future__ import annotations

import math
import statistics
import time
from collections import defaultdict

# A tail percentile is the highest of these (in hundredths of a percent)
# with at least TAIL_BEYOND samples above its nearest-rank position.
TAIL_LADDER = (9999, 9990, 9900, 9000, 5000)
TAIL_BEYOND = 10


class Tracer:
    """Records (span id, parent id, name, start ns, end ns) for every wrapped
    call. Parent id 0 means the span has no traced caller."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._next_id = 0
        self._undo = []

    def wrap(self, name, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            self._next_id += 1
            sid = self._next_id
            parent = stack[-1] if stack else 0
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, parent, name, t0, t1))

        return traced

    def patch(self, owner, attr, name):
        """Replace owner.attr with a traced version; undone by restore()."""
        original = owner.__dict__[attr]
        setattr(owner, attr, self.wrap(name, original))
        self._undo.append((owner, attr, original))

    def restore(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def self_times(spans):
    """{name: [self ns per span]} where a span's self time is its duration
    minus the part of its interval covered by its direct children."""
    children = defaultdict(list)
    for _sid, parent, _name, t0, t1 in spans:
        children[parent].append((t0, t1))
    out = defaultdict(list)
    for sid, _parent, name, t0, t1 in spans:
        covered = 0
        cursor = t0
        for c0, c1 in sorted(children.get(sid, ())):
            lo = max(c0, cursor)
            hi = min(c1, t1)
            if hi > lo:
                covered += hi - lo
            cursor = max(cursor, hi)
        out[name].append(t1 - t0 - covered)
    return out


def durations(spans):
    """{name: [total ns per span]}."""
    out = defaultdict(list)
    for _sid, _parent, name, t0, t1 in spans:
        out[name].append(t1 - t0)
    return out


def tail(values):
    """(percentile, value): the highest ladder percentile with at least
    TAIL_BEYOND samples beyond its nearest-rank position. Falls back to the
    minimum (percentile 0) when there are too few samples, and (0, 0) when
    there are none."""
    if not values:
        return 0.0, 0.0
    ordered = sorted(values)
    n = len(ordered)
    for q in TAIL_LADDER:
        rank = -(-q * n // 10000)  # ceil(q/10000 * n), 1-based
        if n - rank >= TAIL_BEYOND:
            return q / 100.0, ordered[rank - 1]
    return 0.0, ordered[0]


def layer_stats(self_ns):
    """calls, self seconds, median and tail of per-span self time (us)."""
    if not self_ns:
        return {"calls": 0, "self_s": 0.0, "p50_us": 0.0, "tail_us": 0.0,
                "tail_pct": 0.0}
    pct, tail_ns = tail(self_ns)
    return {"calls": len(self_ns), "self_s": sum(self_ns) / 1e9,
            "p50_us": statistics.median(self_ns) / 1e3,
            "tail_us": tail_ns / 1e3, "tail_pct": pct}


def failed_fraction(attempted, completed):
    """Share of attempted (method, run) pairs that returned no record."""
    if attempted < 1:
        raise ValueError("nothing was attempted")
    return (attempted - completed) / attempted


def selfcheck():
    """Check the arithmetic above on synthetic spans; raises AssertionError
    (not assert statements, which -O would remove) on a mismatch."""
    def expect(cond, what):
        if not cond:
            raise AssertionError(f"benchmark arithmetic: {what}")

    # root [0, 100) with children [10, 30) and [25, 60) overlapping, and a
    # grandchild [40, 50) that must not be subtracted from the root again
    spans = [(2, 1, "child", 10, 30), (4, 3, "leaf", 40, 50),
             (3, 1, "child", 25, 60), (1, 0, "root", 0, 100),
             (5, 0, "root", 100, 130)]
    st = self_times(spans)
    expect(sorted(st["root"]) == [30, 50], f"root self {st['root']}")
    expect(sorted(st["child"]) == [20, 25], f"child self {st['child']}")
    expect(st["leaf"] == [10], f"leaf self {st['leaf']}")
    expect(durations(spans)["root"] == [100, 30], "root durations")

    expect(tail(list(range(1, 1001))) == (99.0, 990), "tail of 1..1000")
    expect(tail(list(range(1, 101))) == (90.0, 90), "tail of 1..100")
    expect(tail(list(range(1, 20))) == (0.0, 1), "tail of 1..19")
    expect(tail(list(range(20, 0, -1))) == (50.0, 10), "tail of 20..1")
    expect(tail([]) == (0.0, 0.0), "tail of nothing")

    expect(failed_fraction(8, 8) == 0.0, "no failures")
    expect(failed_fraction(8, 6) == 0.25, "two of eight failed")
    expect(math.isclose(layer_stats([1000, 3000, 2000])["p50_us"], 2.0),
           "median self time")
