"""Exact 2D rank-regret solver via a dual-space intersection sweep.

With sum-one normalized utilities u = (x, 1-x), every tuple t maps to
the dual line y = t[1]*x + t[2]*(1-x); a utility vector becomes the
vertical line at its x and ranks become positions in the top-to-bottom
order of the lines.  A candidate subset of the skyline corresponds to a
convex chain (slope-ascending sequence of skyline lines), and its
worst-case rank over an x-interval is minimized exactly by dynamic
programming over the chain end-line and chain size while a vertical
sweep line visits the pairwise intersections in x order.  Only the
lines of the K-skyband are swept: a line that K others stay above
never takes part in a rank of at most K.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from .core import (_BLOCK_CELLS, Dataset, RegretResult, RestrictedSpace, _min_ranks,
                   _set_rows)
from .skyline import restricted_skyline, skyband


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


def _worst_rank(values: np.ndarray, rows: np.ndarray,
                interval: tuple[float, float]) -> int:
    """Exact worst-case rank of the (sorted, 0-based) rows among the lines
    of ``values`` over the x-interval; see ``exact_chain_rank``."""
    pts = critical_xs(values, rows, interval)
    evals = np.concatenate([pts, (pts[:-1] + pts[1:]) / 2.0])
    return int(_min_ranks_at(values, rows, evals).max())


def exact_chain_rank(S, D: Dataset, interval: tuple[float, float] = (0.0, 1.0)) -> int:
    """Exact worst-case rank of the set S over the x-interval.

    Ranks are piecewise constant between crossings, so evaluating at the
    endpoints, at every crossing involving a member of S, and at the
    midpoints between consecutive critical points is exhaustive.  Peak
    working memory is O(``_BLOCK_CELLS``) scores plus the critical points.
    """
    if D.d != 2:
        raise ValueError("exact_chain_rank requires d = 2")
    return _worst_rank(D.values, _set_rows(S, D.n), interval)


def _skyline_by_slope(D: Dataset, space: RestrictedSpace | None) -> np.ndarray:
    """Rows of the restricted skyline in slope-ascending order: the legal
    chain building blocks."""
    slope = D.values[:, 0] - D.values[:, 1]
    sky_rows = np.asarray(restricted_skyline(D, space).indices) - 1
    sky_sorted = sky_rows[np.argsort(slope[sky_rows], kind="stable")]
    # strictly ascending slopes guarantee every DP transition extends a
    # convex chain; duplicates cannot both survive the skyline tie rule
    if len(sky_sorted) > 1 and not (np.diff(slope[sky_sorted]) > 0).all():
        raise AssertionError("skyline lines must have strictly ascending slopes")
    return sky_sorted


def _band(values: np.ndarray, sky_sorted: np.ndarray, interval: tuple[float, float],
          K: int) -> np.ndarray:
    """Ascending rows of the lines the sweep keeps for ranks up to K.

    That is the K-skyband (``skyline.skyband``) of every line's scores at
    both ends of the interval, computed as the rank evaluator computes
    them (``_line_scores``), joined with the skyline rows.  Any superset
    of the band is exact, and the skyline rows are the chain lines.

    An outranking that rests on a tie at an end holds in exact
    arithmetic only: crossings of lines that meet there come out within
    an ulp of the end, where their float scores can order either way.
    So a line also joins unless K band lines clear it by ``tol`` at both
    ends or duplicate it with a lower index; those lines stay above it
    at every x in the evaluator's float scores too.
    """
    ends = _line_scores(values, np.asarray(interval, dtype=float))(slice(None)).T
    tol = 1e-9 * float(np.abs(values).max())
    inside = skyband(ends, K)
    inside[sky_sorted] = True
    rows = np.flatnonzero(inside)
    out = np.flatnonzero(~inside)
    step = max(1, _BLOCK_CELLS // max(rows.size, 1))
    for start in range(0, out.size, step):
        t = out[start:start + step, None]
        clear = (ends[rows] > ends[t] + tol).all(axis=2)
        clear |= (values[rows] == values[t]).all(axis=2) & (rows < t)
        inside[t[clear.sum(axis=1) < K, 0]] = True
    return np.flatnonzero(inside)


def _sweep(values: np.ndarray, band: np.ndarray, sky_sorted: np.ndarray, r: int,
           interval: tuple[float, float], trace=None):
    """Dual sweep of the lines of ``band`` feeding the chain DP.

    ``band`` holds ascending 0-based rows and contains ``sky_sorted``.
    Lines are numbered by their position in ``band``, so ties between
    them follow the tuple index as over the whole dataset, and ranks are
    positions among the band's lines.  Returns ``(M_rank, chains,
    events)``: ``M_rank[o, h]`` is the least worst rank over the swept
    interval of a chain of at most h + 1 skyline lines ending in the
    line of slope ordinal o, ``chains[o][h]`` one such chain, and
    ``events`` the number of crossings processed.  Column h depends only
    on the columns to its left, so it is the same for every r > h.
    """
    lo, hi = interval
    m = band.size
    intercept = values[band, 1]
    slope = values[band, 0] - values[band, 1]
    s_count = len(sky_sorted)
    sky_lines = np.searchsorted(band, sky_sorted)
    ordinal_of_line = np.full(m, -1, dtype=np.int64)
    ordinal_of_line[sky_lines] = np.arange(s_count)

    # initial top-to-bottom order just after x = lo
    start = intercept + slope * lo
    order_arr = np.lexsort((np.arange(m), -slope, -start))
    pos_arr = np.empty(m, dtype=np.int64)
    pos_arr[order_arr] = np.arange(m)

    M_rank = np.tile((pos_arr[sky_lines] + 1)[:, None], (1, r)).astype(np.int64)
    chains: list[list[_ChainNode]] = [[_ChainNode(i, None)] * r for i in range(s_count)]
    # the event loop runs on Python lists: scalar reads of numpy arrays are slow
    order, pos = order_arr.tolist(), pos_arr.tolist()
    b_of, s_of = intercept.tolist(), slope.tolist()
    ordinal_of_line = ordinal_of_line.tolist()

    heap: list[tuple[float, int, int]] = []
    seen: set[tuple[int, int]] = set()

    def discover(a: int, b: int, x_min: float, inclusive: bool) -> None:
        key = (a, b) if a < b else (b, a)
        if key in seen:
            return
        x = _crossing(b_of[a], s_of[a], b_of[b], s_of[b])
        if x is None or x > hi:
            return
        if x > x_min or (inclusive and x == x_min):
            seen.add(key)
            heapq.heappush(heap, (x, key[0], key[1]))

    for p in range(m - 1):
        discover(order[p], order[p + 1], lo, False)

    pending: list[tuple[float, int, int]] = []
    processed = 0
    while heap:
        x, a, b = heapq.heappop(heap)
        pa, pb = pos[a], pos[b]
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
            discover(order[p_top - 1], rise, x, True)
        if p_bot < m - 1:
            discover(fall, order[p_bot + 1], x, True)

        oi = ordinal_of_line[fall]
        if oi >= 0:
            old_row = M_rank[oi].copy()
            np.maximum(old_row, p_bot + 1, out=M_rank[oi])
            oj = ordinal_of_line[rise]
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
                order=tuple(int(band[i]) + 1 for i in order),
                event=(int(band[fall]) + 1, int(band[rise]) + 1),
                chain_ranks=M_rank.copy(),
                events_processed=processed,
            ))
    if pending:
        raise AssertionError("sweep stalled on non-adjacent intersections")
    return M_rank, chains, processed


def _verified_chain(values: np.ndarray, band: np.ndarray, sky_sorted: np.ndarray,
                    M_rank: np.ndarray, chains, col: int,
                    interval: tuple[float, float]) -> tuple[tuple[int, ...], int]:
    """Best chain of DP column ``col`` as (sorted tuple indices, value).

    The chain is re-ranked among the band's lines over the closed
    interval, by the evaluator of ``exact_chain_rank``; at most K that is
    its rank among all lines.  The sweep's ranks are one-sided at exact
    score ties, so its value can differ there: that raises rather than
    returning a wrong value.
    """
    best_ord = int(np.argmin(M_rank[:, col]))
    value = int(M_rank[best_ord, col])
    rows = np.sort(sky_sorted[chains[best_ord][col].rows()])
    exact = _worst_rank(values[band], np.searchsorted(band, rows), interval)
    if exact != value:
        raise AssertionError(
            f"sweep value {value} differs from the re-ranked value {exact} of its "
            f"set; exact score ties break the sweep"
        )
    return tuple(int(row) + 1 for row in rows), value


def solve_rrm_2d(D: Dataset, r: int, space: RestrictedSpace | None = None,
                 trace=None) -> RegretResult:
    """Minimum worst-case rank-regret over subsets of size at most r.

    The search is confined to the restricted skyline and to the rendered
    x-interval of the space.  The sweep runs over the K-skyband of the
    dual lines only (see ``_band``), for K = 1, 2, 4, ...: at every x a
    line's rank among the band equals its rank among all lines whenever
    either is at most K, so the first K whose optimum is at most K gives
    the optimum over all lines.  The doubling also stops once the band
    holds every tuple.  With a ``trace`` callback the band is every tuple
    from the start, so the callback sees the whole arrangement.

    Exact on data without exact score ties.  On tied data (rounded or
    integer attributes, duplicate tuples) the sweep's ranks are one-sided
    at the tie points, so the returned set is re-ranked over the closed
    interval as ``exact_chain_rank`` ranks it, and ``AssertionError`` is
    raised when that differs from the sweep's value or when concurrent
    crossings stall the sweep: a returned value is always the exact
    worst rank of the returned set.  Returns the optimal value and one
    optimal subset (deterministic tie-breaking).
    """
    if D.d != 2:
        raise ValueError("solve_rrm_2d requires d = 2; use the HD solver otherwise")
    n = D.n
    if not 1 <= r <= n:
        raise ValueError(f"budget r must be in 1..{n}, got {r}")
    interval = render_scene(space)
    sky_sorted = _skyline_by_slope(D, space)

    K = 1 if trace is None else n
    events = 0
    while True:
        band = _band(D.values, sky_sorted, interval, K)
        M_rank, chains, processed = _sweep(D.values, band, sky_sorted, r, interval, trace)
        events += processed
        if int(M_rank[:, r - 1].min()) <= K or band.size == n:
            break
        K *= 2
    indices, value = _verified_chain(D.values, band, sky_sorted, M_rank, chains, r - 1,
                                     interval)
    params = {
        "algo": "2d",
        "r": r,
        "interval": list(interval),
        "skyline_size": len(sky_sorted),
        "band_k": K,
        "band_size": int(band.size),
        "events": events,
        "halfspaces": [list(h) for h in (space.halfspaces if space else ())],
    }
    return RegretResult(indices, len(indices), value, params)


def solve_rrr_2d(D: Dataset, k: int, space: RestrictedSpace | None = None) -> RegretResult:
    """Minimum-size subset with worst-case rank at most k.

    One sweep over the k-skyband (see ``_band``) with budget r =
    |skyline|: DP column h is the optimum for budget h + 1 and depends
    only on the columns to its left, and wherever it is at most k it is
    exact over all lines, so the first column whose minimum is at most k
    gives the minimum size.

    Exact on data without exact score ties.  On tied data the returned
    set is re-ranked as in ``solve_rrm_2d``, and ``AssertionError`` is
    raised when its value differs from the sweep's; a returned value is
    always the exact worst rank of the returned set, and it is at most k.
    """
    if D.d != 2:
        raise ValueError("solve_rrr_2d requires d = 2")
    if not 1 <= k <= D.n:
        raise ValueError(f"threshold k must be in 1..{D.n}, got {k}")
    interval = render_scene(space)
    sky_sorted = _skyline_by_slope(D, space)
    s = len(sky_sorted)
    band = _band(D.values, sky_sorted, interval, k)
    M_rank, chains, processed = _sweep(D.values, band, sky_sorted, s, interval)
    fits = np.flatnonzero(M_rank.min(axis=0) <= k)
    if fits.size == 0:
        # a skyline rank above k among the band's lines is above k among all
        sky_rows = np.searchsorted(band, np.sort(sky_sorted))
        if _worst_rank(D.values[band], sky_rows, interval) <= k:
            raise AssertionError(
                f"the sweep puts the whole skyline above rank {k}, re-ranking does "
                f"not; exact score ties break the sweep"
            )
        raise ValueError(
            f"no subset reaches worst-case rank {k}; the skyline's worst rank "
            f"exceeds {k}"
        )
    col = int(fits[0])
    indices, value = _verified_chain(D.values, band, sky_sorted, M_rank, chains, col,
                                     interval)
    params = {
        "algo": "2d-rrr",
        "r": col + 1,
        "interval": list(interval),
        "skyline_size": s,
        "band_k": k,
        "band_size": int(band.size),
        "events": processed,
        "halfspaces": [list(h) for h in (space.halfspaces if space else ())],
        "k": k,
    }
    return RegretResult(indices, len(indices), value, params)
