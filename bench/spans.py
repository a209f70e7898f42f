"""In-memory span tracer that times rotstar from outside.

`Tracer.wrap(owner, attr, name)` replaces one public entry point (a module
global or a method on its class) with a wrapper that records a span
(name, start, end, parent) and, optionally, adds a per-call amount to a
counter.  Each name is wrapped where its caller looks it up, so a function
imported into another module (`pn.assemble`) is wrapped in that module.
`restore()` puts every original back.  Nothing in rotstar itself changes.

Self time of a span is its duration minus the part of its interval covered
by its child spans.
"""

import contextlib
import functools
import gzip
import json
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1)
        self.counts = Counter()
        self._stack = [-1]
        self._patches = []

    def _open(self):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1]
        self._stack.append(idx)
        return idx, parent, time.perf_counter()

    def _close(self, name, idx, parent, t0):
        t1 = time.perf_counter()
        self._stack.pop()
        self.spans[idx] = (name, t0, t1, parent)

    @contextlib.contextmanager
    def span(self, name):
        """A span around the benchmark's own code."""
        opened = self._open()
        try:
            yield
        finally:
            self._close(name, *opened)

    def wrap(self, owner, attr, name, count=None):
        """Wrap owner.attr; count(args, kwargs, result) -> {counter: integer amount}."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            opened = self._open()
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(name, *opened)
            if count is not None:
                for key, amount in count(args, kwargs, result).items():
                    self.counts[key] += int(amount)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self, path):
        """Write every span as [name, start, end, parent], gzipped JSON."""
        with gzip.open(path, "wt") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)


def span_cost(calls=20000):
    """Seconds one wrapped call adds, measured on a method that does nothing."""

    class Probe:
        def noop(self):
            pass

    probe = Probe()
    t0 = time.perf_counter()
    for _ in range(calls):
        probe.noop()
    plain = time.perf_counter() - t0
    tracer = Tracer()
    tracer.wrap(Probe, "noop", "probe.noop")
    t0 = time.perf_counter()
    for _ in range(calls):
        probe.noop()
    wrapped = time.perf_counter() - t0
    tracer.restore()
    return max(wrapped - plain, 0.0) / calls


def _covered(intervals, lo, hi):
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans, wall_start, wall_end):
    """Per-name (calls, self seconds) and the time no root span covers.

    Returns (table, remainder) with table[name] = [calls, self_s]; the sum
    of every self time plus the remainder equals wall_end - wall_start when
    child spans nest inside their parents.
    """
    children = defaultdict(list)
    roots = []
    for name, t0, t1, parent in spans:
        (roots if parent < 0 else children[parent]).append((t0, t1))
    table = defaultdict(lambda: [0, 0.0])
    for idx, (name, t0, t1, _) in enumerate(spans):
        entry = table[name]
        entry[0] += 1
        entry[1] += (t1 - t0) - _covered(children.get(idx, ()), t0, t1)
    remainder = (wall_end - wall_start) - _covered(roots, wall_start, wall_end)
    return dict(table), remainder
