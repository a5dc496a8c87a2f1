"""Exact 2D rank-regret solver via a dual-space intersection sweep.

With sum-one normalized utilities u = (x, 1-x), every tuple t maps to
the dual line y = t[1]*x + t[2]*(1-x); a utility vector becomes the
vertical line at its x and ranks become positions in the top-to-bottom
order of the lines.  A candidate subset of the skyline corresponds to a
convex chain (slope-ascending sequence of skyline lines), and its
worst-case rank over an x-interval is minimized exactly by dynamic
programming over the chain end-line and chain size while a vertical
sweep line visits the pairwise intersections in x order.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from .core import Dataset, RegretResult, RestrictedSpace, _min_ranks, _set_rows
from .skyline import restricted_skyline


@dataclass(frozen=True)
class DualLine:
    """Dual image of one tuple: y = intercept + slope * x over x in [0, 1]."""

    tuple_index: int
    intercept: float  # utility at u = (0, 1), i.e. the second attribute
    slope: float      # first attribute minus second attribute
    is_skyline: bool
    skyline_ordinal: int | None  # 1-based position in slope-ascending skyline order

    def value_at(self, x: float) -> float:
        return self.intercept + self.slope * x


class _ChainNode:
    """Immutable link of a stored convex chain (shared between cells)."""

    __slots__ = ("ordinal", "prev")

    def __init__(self, ordinal: int, prev: "_ChainNode | None"):
        self.ordinal = ordinal
        self.prev = prev

    def rows(self) -> list[int]:
        out = []
        node: _ChainNode | None = self
        while node is not None:
            out.append(node.ordinal)
            node = node.prev
        out.reverse()
        return out


@dataclass
class SweepState:
    """Snapshot of the sweep exposed to trace callbacks."""

    sweep_x: float
    interval: tuple[float, float]
    order: tuple[int, ...]            # tuple indices, top to bottom
    event: tuple[int, int]            # (falling tuple index, rising tuple index)
    chain_ranks: np.ndarray           # copy of the s x r worst-rank matrix
    events_processed: int


def render_scene(space: RestrictedSpace | None) -> tuple[float, float]:
    """Image of the cone under u -> u[1]/(u[1]+u[2]): the swept x-interval."""
    if space is None or space.is_full:
        return (0.0, 1.0)
    rays = space.extreme_rays(2)
    cs = rays[:, 0] / rays.sum(axis=1)
    return (float(cs.min()), float(cs.max()))


def dualize(D: Dataset, space: RestrictedSpace | None = None) -> list[DualLine]:
    """Dual lines of all tuples, listed in their top-to-bottom order at the
    start of the swept interval (descending second attribute for the full
    space).  Skyline flags and ordinals refer to the restricted skyline."""
    if D.d != 2:
        raise ValueError("the dual transform requires d = 2")
    lo, _ = render_scene(space)
    intercept = D.values[:, 1]
    slope = D.values[:, 0] - D.values[:, 1]
    sky_rows = np.asarray(restricted_skyline(D, space).indices) - 1
    # skyline lines sorted by slope are the legal chain building blocks
    sky_sorted = sky_rows[np.argsort(slope[sky_rows], kind="stable")]
    ordinal = {int(row): pos + 1 for pos, row in enumerate(sky_sorted)}
    start = intercept + slope * lo
    order = np.lexsort((np.arange(D.n), -slope, -start))
    return [
        DualLine(
            tuple_index=int(row) + 1,
            intercept=float(intercept[row]),
            slope=float(slope[row]),
            is_skyline=int(row) in ordinal,
            skyline_ordinal=ordinal.get(int(row)),
        )
        for row in order
    ]


def _crossing(b1: float, s1: float, b2: float, s2: float) -> float | None:
    if s1 == s2:
        return None
    return (b2 - b1) / (s1 - s2)


def critical_xs(values: np.ndarray, rows: np.ndarray,
                interval: tuple[float, float]) -> np.ndarray:
    """Interval endpoints plus every crossing of the given lines with any line."""
    lo, hi = interval
    intercept = values[:, 1]
    slope = values[:, 0] - values[:, 1]
    parts = [np.array([lo, hi], dtype=float)]
    with np.errstate(divide="ignore", invalid="ignore"):
        for r in rows:
            cand = (intercept - intercept[r]) / (slope[r] - slope)
            cand = cand[np.isfinite(cand)]
            parts.append(cand[(cand >= lo) & (cand <= hi)])
    return np.unique(np.concatenate(parts))


def _line_scores(values: np.ndarray, xs: np.ndarray):
    """Score-block function of the dual lines at the points ``xs``: row i
    of a block holds every tuple's utility under (x_i, 1 - x_i), computed
    as ``intercept + slope * x``."""
    intercept = values[:, 1]
    slope = values[:, 0] - values[:, 1]
    xs = np.asarray(xs, dtype=float)
    return lambda sl: intercept + slope * xs[sl, None]


def _min_ranks_at(values: np.ndarray, rows: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Best rank among the (sorted, 0-based) rows at every x of ``xs``,
    ties to the lower tuple index.  Peak working memory is
    O(``_BLOCK_CELLS``) scores plus the output."""
    return _min_ranks(_line_scores(values, xs), len(xs), values.shape[0], rows)


def exact_chain_rank(S, D: Dataset, interval: tuple[float, float] = (0.0, 1.0)) -> int:
    """Exact worst-case rank of the set S over the x-interval.

    Ranks are piecewise constant between crossings, so evaluating at the
    endpoints, at every crossing involving a member of S, and at the
    midpoints between consecutive critical points is exhaustive.  Peak
    working memory is O(``_BLOCK_CELLS``) scores plus the critical points.
    """
    if D.d != 2:
        raise ValueError("exact_chain_rank requires d = 2")
    rows = _set_rows(S, D.n)
    pts = critical_xs(D.values, rows, interval)
    evals = np.concatenate([pts, (pts[:-1] + pts[1:]) / 2.0])
    return int(_min_ranks_at(D.values, rows, evals).max())


def solve_rrm_2d(D: Dataset, r: int, space: RestrictedSpace | None = None,
                 trace=None) -> RegretResult:
    """Minimum worst-case rank-regret over subsets of size at most r.

    Exact whenever no two tuples share a score at any single utility
    vector, the standing assumption of the sweep: the event conventions
    (initial order reflects just after the interval start, crossings at
    the right endpoint are processed) make recorded ranks one-sided at
    exact tie points, so on data with exact score ties the reported
    value can differ from the closed-interval evaluator
    ``exact_chain_rank``.  The search is confined to the restricted
    skyline and to the rendered x-interval of the space.  Returns the
    optimal value and one optimal subset (deterministic tie-breaking).
    """
    if D.d != 2:
        raise ValueError("solve_rrm_2d requires d = 2; use the HD solver otherwise")
    n = D.n
    if not 1 <= r <= n:
        raise ValueError(f"budget r must be in 1..{n}, got {r}")
    lo, hi = render_scene(space)

    values = D.values
    intercept = values[:, 1].copy()
    slope = (values[:, 0] - values[:, 1]).copy()

    sky_rows = np.asarray(restricted_skyline(D, space).indices) - 1
    sky_sorted = sky_rows[np.argsort(slope[sky_rows], kind="stable")]
    s_count = len(sky_sorted)
    # strictly ascending slopes guarantee every DP transition extends a
    # convex chain; duplicates cannot both survive the skyline tie rule
    if s_count > 1 and not (np.diff(slope[sky_sorted]) > 0).all():
        raise AssertionError("skyline lines must have strictly ascending slopes")
    ordinal_of_row = np.full(n, -1, dtype=np.int64)
    ordinal_of_row[sky_sorted] = np.arange(s_count)

    # initial top-to-bottom order just after x = lo
    start = intercept + slope * lo
    order = np.lexsort((np.arange(n), -slope, -start)).astype(np.int64)
    pos = np.empty(n, dtype=np.int64)
    pos[order] = np.arange(n)

    M_rank = np.tile((pos[sky_sorted] + 1)[:, None], (1, r)).astype(np.int64)
    chains: list[list[_ChainNode]] = [[_ChainNode(i, None)] * r for i in range(s_count)]

    heap: list[tuple[float, int, int]] = []
    seen: set[tuple[int, int]] = set()

    def discover(a: int, b: int, x_min: float, inclusive: bool) -> None:
        key = (a, b) if a < b else (b, a)
        if key in seen:
            return
        x = _crossing(intercept[a], slope[a], intercept[b], slope[b])
        if x is None or x > hi:
            return
        if x > x_min or (inclusive and x == x_min):
            seen.add(key)
            heapq.heappush(heap, (x, key[0], key[1]))

    for p in range(n - 1):
        discover(int(order[p]), int(order[p + 1]), lo, False)

    pending: list[tuple[float, int, int]] = []
    processed = 0
    while heap:
        x, a, b = heapq.heappop(heap)
        pa, pb = int(pos[a]), int(pos[b])
        if abs(pa - pb) != 1:
            # concurrent crossings at the same point are decomposed into
            # adjacent swaps; retry once a swap has made this pair adjacent
            pending.append((x, a, b))
            continue
        if pa < pb:
            fall, rise, p_top = a, b, pa
        else:
            fall, rise, p_top = b, a, pb
        p_bot = p_top + 1
        order[p_top], order[p_bot] = rise, fall
        pos[rise], pos[fall] = p_top, p_bot
        processed += 1

        if p_top > 0:
            discover(int(order[p_top - 1]), rise, x, True)
        if p_bot < n - 1:
            discover(fall, int(order[p_bot + 1]), x, True)

        oi = int(ordinal_of_row[fall])
        if oi >= 0:
            old_row = M_rank[oi].copy()
            np.maximum(old_row, p_bot + 1, out=M_rank[oi])
            oj = int(ordinal_of_row[rise])
            if oj >= 0 and r > 1:
                # the chain ending in the risen line may extend a chain that
                # ended in the fallen line; compare against the pre-event
                # rank of the shorter cell
                upd = np.flatnonzero(M_rank[oj, 1:] > old_row[:-1])
                if upd.size:
                    M_rank[oj, upd + 1] = old_row[upd]
                    row_i, row_j = chains[oi], chains[oj]
                    for h in upd:
                        row_j[h + 1] = _ChainNode(oj, row_i[h])
        if pending:
            for ev in pending:
                heapq.heappush(heap, ev)
            pending.clear()
        if trace is not None:
            trace(SweepState(
                sweep_x=x,
                interval=(lo, hi),
                order=tuple(int(i) + 1 for i in order),
                event=(int(fall) + 1, int(rise) + 1),
                chain_ranks=M_rank.copy(),
                events_processed=processed,
            ))
    if pending:
        raise AssertionError("sweep stalled on non-adjacent intersections")

    best_ord = int(np.argmin(M_rank[:, r - 1]))
    value = int(M_rank[best_ord, r - 1])
    chain_rows = [int(sky_sorted[o]) for o in chains[best_ord][r - 1].rows()]
    indices = tuple(sorted(row + 1 for row in chain_rows))
    params = {
        "algo": "2d",
        "r": r,
        "interval": [lo, hi],
        "skyline_size": s_count,
        "events": processed,
        "halfspaces": [list(h) for h in (space.halfspaces if space else ())],
    }
    return RegretResult(indices, len(indices), value, params)


def solve_rrr_2d(D: Dataset, k: int, space: RestrictedSpace | None = None) -> RegretResult:
    """Minimum-size subset with worst-case rank at most k (exact).

    Binary search over the budget r; the exact fixed-budget solver makes
    the achievable value non-increasing in r, so the search is valid.
    """
    if D.d != 2:
        raise ValueError("solve_rrr_2d requires d = 2")
    if not 1 <= k <= D.n:
        raise ValueError(f"threshold k must be in 1..{D.n}, got {k}")
    s = len(restricted_skyline(D, space))
    best = solve_rrm_2d(D, s, space)
    if best.rank_regret > k:
        raise ValueError(
            f"no subset reaches worst-case rank {k}; the full skyline attains "
            f"{best.rank_regret}"
        )
    lo_r, hi_r = 1, s
    while lo_r < hi_r:
        mid = (lo_r + hi_r) // 2
        res = solve_rrm_2d(D, mid, space)
        if res.rank_regret <= k:
            hi_r, best = mid, res
        else:
            lo_r = mid + 1
    params = dict(best.solver_params)
    params.update({"algo": "2d-rrr", "k": k})
    return RegretResult(best.selected_indices, best.size, best.rank_regret, params)
