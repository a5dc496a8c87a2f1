"""Calibration kernels: fixed benchmark-owned work timed before each
operation, to measure how fast the machine is during a run.

On a shared machine the same interpreter-bound solve can take 1.5x
longer for minutes at a time, while array-bound code slows much less.  Each workload therefore has a kernel of the same character as
its operations and reports its timings relative to the run's median
kernel time.  The kernels use no rankregret code, so a change to the
library never changes them.
"""

from __future__ import annotations

import heapq
import time

import numpy as np

_RNG = np.random.default_rng(20211116)
_INTERCEPT = _RNG.random(220)
_SLOPE = _RNG.random(220) - _INTERCEPT
_SCORES = _RNG.random((160, 1500))
_VECTORS = _RNG.random((250, 4))
_TABLE = _RNG.random((4, 20_000))


def sweep() -> float:
    """Seconds for a small dual-line intersection sweep: a heap of
    crossings, a set of seen pairs, order swaps in numpy arrays and small
    row updates, the work pattern of the exact 2D solver."""
    t0 = time.perf_counter()
    b, s = _INTERCEPT, _SLOPE
    n = b.size
    order = np.lexsort((np.arange(n), -s, -b)).astype(np.int64)
    pos = np.empty(n, dtype=np.int64)
    pos[order] = np.arange(n)
    worst = np.zeros((n, 4), dtype=np.int64)
    heap, seen = [], set()

    def discover(a, c, x0):
        key = (a, c) if a < c else (c, a)
        if key in seen or s[a] == s[c]:
            return
        x = (b[c] - b[a]) / (s[a] - s[c])
        if x0 < x <= 1.0:
            seen.add(key)
            heapq.heappush(heap, (x, key[0], key[1]))

    for p in range(n - 1):
        discover(int(order[p]), int(order[p + 1]), 0.0)
    while heap:
        x, a, c = heapq.heappop(heap)
        pa, pc = int(pos[a]), int(pos[c])
        top, fall, rise = (pa, a, c) if pa < pc else (pc, c, a)
        order[top], order[top + 1] = rise, fall
        pos[rise], pos[fall] = top, top + 1
        if top > 0:
            discover(int(order[top - 1]), rise, x)
        if top + 2 < n:
            discover(fall, int(order[top + 2]), x)
        row = worst[fall]
        np.maximum(row, top + 2, out=row)
    return time.perf_counter() - t0


def arrays() -> float:
    """Seconds for array work like top-k ordering and rank counting:
    row-wise argsort, a matrix product and a comparison count."""
    t0 = time.perf_counter()
    np.argsort(-_SCORES, axis=1, kind="stable")
    sc = _VECTORS @ _TABLE
    int((sc > sc[:, :1]).sum())
    return time.perf_counter() - t0
