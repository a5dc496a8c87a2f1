"""Exact 2D rank-regret solver via a dual-space intersection sweep.

With sum-one normalized utilities u = (x, 1-x), every tuple t maps to
the dual line y = t[1]*x + t[2]*(1-x); a utility vector becomes the
vertical line at its x and ranks become positions in the top-to-bottom
order of the lines.  A candidate subset of the skyline corresponds to a
convex chain (slope-ascending sequence of skyline lines), and its
worst-case rank over an x-interval is minimized exactly by dynamic
programming over the chain end-line and chain size while a vertical
sweep line visits the intersections in x order.  Only the lines of the
K-skyband are swept: a line that K others stay above never takes part
in a rank of at most K.

Ranks are exact on the stored floats, each of which is a dyadic
rational.  At a point x the lines are ordered by their exact score,
then by the lower tuple index; in the open cell just right of x, by the
score at x, then by slope descending, then by index (the index is the
symbolic perturbation of Edelsbrunner and Muecke's simulation of
simplicity).  Lines are ranked exactly at the two ends of the interval
only, and these two orders decide which lines cross inside it.  A
line's rank changes only where it crosses another line, so it is carried
from lo through its crossings in exact order (Bentley-Ottmann), with no
float scoring and O(|S| * n) crossings of working memory for S of n.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property, cmp_to_key
from typing import NamedTuple

import numpy as np

from .core import Dataset, RegretResult, RestrictedSpace, _set_rows
from .skyline import restricted_skyline

_U = 2.0 ** -53  # unit roundoff of float64
_BAND_BLOCK = 256  # lines per numpy pre-test of _band's heap count


@dataclass(frozen=True)
class DualLine:
    """Dual image of one tuple: y = intercept + slope * x over x in [0, 1]."""

    tuple_index: int
    intercept: float  # utility at u = (0, 1), i.e. the second attribute
    slope: float      # first attribute minus second attribute
    skyline_ordinal: int | None  # 1-based position in slope-ascending skyline order


def render_scene(space: RestrictedSpace | None) -> tuple[float, float]:
    """Image of the cone under u -> u[1]/(u[1]+u[2]): the swept x-interval."""
    rays = (space or RestrictedSpace()).extreme_rays(2)
    cs = rays[:, 0] / rays.sum(axis=1)
    return (float(cs.min()), float(cs.max()))


class _Points(NamedTuple):
    """Critical points: float x, the crossing rows pm, pc (-1 for an
    exact float x), and the exact order: ``point[k]`` numbers point k
    among the distinct exact points in ascending order, and ``rep[g]`` is
    one point numbered g."""

    x: np.ndarray
    pm: np.ndarray
    pc: np.ndarray
    point: np.ndarray
    rep: np.ndarray


class _Form:
    """Exact dual form of a 2D table over the swept interval.

    Line i is y = b[i] + s[i] * x with b the second attribute and s the
    first minus the second.  On one power-of-two scale every intercept
    and slope is an exact integer (``B``, ``S``); ``b`` and ``s`` are
    their float copies.  ``sky`` holds the restricted skyline's rows in
    ascending slope when the form is built for a solve (``of``).

    Each row is ranked exactly once at each end of the interval
    (``ends``), which decides every crossing: lines of different slopes
    differ in score linearly in x, so they cross in the closed interval
    iff their difference does not keep one strict sign at both ends.
    """

    def __init__(self, values: np.ndarray, interval, sky_rows=None):
        self.values = values
        self.lo, self.hi = float(interval[0]), float(interval[1])
        if not 0.0 <= self.lo <= self.hi <= 1.0:
            raise ValueError(f"interval must satisfy 0 <= lo <= hi <= 1, got {tuple(interval)}")
        self.b = values[:, 1]
        self.s = values[:, 0] - values[:, 1]
        self._mag = float(np.abs(self.b).max()) + float(np.abs(self.s).max())
        # values = mant * 2**-den exactly, mant a 53-bit integer
        mant, expo = np.frexp(values)
        nonzero = values != 0
        den = np.where(nonzero, 53 - expo, np.iinfo(np.int64).min)
        ints = (mant * 2.0 ** 53).astype(np.int64).astype(object) \
            << np.where(nonzero, den.max() - den, 0).astype(object)
        self.B, self.S = ints[:, 1], ints[:, 0] - ints[:, 1]
        if sky_rows is not None:
            self.sky = np.array(sorted(sky_rows, key=self.S.__getitem__), dtype=np.int64)

    @classmethod
    def of(cls, D: Dataset, space: RestrictedSpace | None) -> "_Form":
        sky = [i - 1 for i in restricted_skyline(D, space)]
        return cls(D.values, render_scene(space), sky)

    def point(self, x: float, pm: int, pc: int) -> tuple[int, int]:
        """Exact x = num / den (den > 0) of the crossing of the rows pm and
        pc of different slopes, or of the float x when pm < 0."""
        if pm < 0:
            return x.as_integer_ratio()
        num, den = self.B[pc] - self.B[pm], self.S[pm] - self.S[pc]
        return (num, den) if den > 0 else (-num, -den)

    def tol(self, x):
        """Bound on the float error of a difference of scores b + s * x at
        the float x."""
        return 16.0 * _U * self._mag * (1.0 + np.abs(x))

    def order(self, x: float) -> tuple[np.ndarray, np.ndarray]:
        """Every row top to bottom at the point x (exact score, then row),
        and each row's key n * dense rank + row: rows of equal exact score
        share a dense rank, and keys order as the rows do."""
        n = self.values.shape[0]
        # at the ends of [0, 1] the scores are the attributes themselves
        if x in (0.0, 1.0):
            y, tol = self.values[:, 1 - int(x)], 0.0
        else:
            y, tol = self.b + self.s * x, float(self.tol(x))
        rows = np.argsort(-y, kind="stable")
        new = y[rows[:-1]] - y[rows[1:]] > tol  # the next row scores less
        if tol:
            p, q = x.as_integer_ratio()
            # scores within tol are ranked exactly, and only they can tie
            for a, z in _runs(np.flatnonzero(new) + 1, n):
                exact = sorted((-(self.B[r] * q + self.S[r] * p), r) for r in rows[a:z].tolist())
                rows[a:z] = [r for _, r in exact]
                new[a:z - 1] = [u[0] != v[0] for u, v in zip(exact, exact[1:])]
        key = np.empty(n, dtype=np.int64)
        key[rows] = n * np.concatenate([[0], np.cumsum(new)]) + rows
        return rows, key

    @cached_property
    def ends(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every row in its exact order at lo, and its keys (``order``) at
        lo and hi: the form's two exact sorts, which decide the crossings."""
        lo_order, lo_key = self.order(self.lo)
        return lo_order, lo_key, self.order(self.hi)[1]

    def points(self, lines: np.ndarray, members: np.ndarray) -> _Points:
        """The ends of the interval and every crossing inside it of a
        member's line with a line of ``lines`` (of two members once).
        A pair crosses there iff its exact slopes differ and its dense
        rank differences at lo and hi have a product of at most zero.
        Floats only place the crossings; a nearly parallel pair, or one
        whose error bound reaches past an end, goes to its exact point."""
        lo, hi, n = self.lo, self.hi, self.values.shape[0]
        dlo, dhi = (key // n for key in self.ends[1:])  # the dense ranks
        member = np.isin(lines, members)
        pair = (lines != members[:, None]) & ~(member & (lines < members[:, None]))
        pair &= (dlo[members, None] - dlo[lines]) * (dhi[members, None] - dhi[lines]) <= 0
        pm, pc = np.nonzero(pair)
        pm, pc = members[pm], lines[pc]
        # float slopes round monotonically, so only equal floats need S
        same = np.flatnonzero(self.s[pm] == self.s[pc])
        same = same[self.S[pm[same]] == self.S[pc[same]]]
        pm, pc = np.delete(pm, same), np.delete(pc, same)
        num, den = self.b[pc] - self.b[pm], self.s[pm] - self.s[pc]
        # the float den differs from the exact one by at most eta / 2
        eta = 2.0 * _U * (np.abs(self.s[pm]) + np.abs(self.s[pc]) + np.abs(den))
        with np.errstate(divide="ignore", invalid="ignore"):
            x = num / den
            err = np.abs(x) * (eta / np.abs(den) + 4.0 * _U) * 1.1
            inside = (np.abs(den) > 2.0 * eta) & (x - err >= lo) & (x + err <= hi)
        exact = np.flatnonzero(~inside)
        for k in exact.tolist():
            p, q = self.point(0.0, int(pm[k]), int(pc[k]))
            x[k] = p / q
        err[exact] = 2.0 * _U * np.abs(x[exact])
        keep = np.concatenate([np.flatnonzero(inside), exact])
        return self.number(np.concatenate([[lo, hi], x[keep]]),
                           np.concatenate([[0.0, 0.0], err[keep]]),
                           np.concatenate([[-1, -1], pm[keep]]),
                           np.concatenate([[-1, -1], pc[keep]]))

    def number(self, x, err, pm, pc) -> _Points:
        """The points in exact order, given bounds err on the floats x's
        distances to the exact points.  Float order decides wherever the
        error bounds part two points; inside each group of overlapping
        bounds the exact points' correctly rounded floats do, and their
        exact values only where those are equal."""
        idx = np.argsort(x, kind="stable")
        lower, upper = (x - err)[idx], (x + err)[idx]
        new = np.ones(idx.size, dtype=bool)
        new[1:] = lower[1:] > np.maximum.accumulate(upper)[:-1]
        group = np.cumsum(new)
        runs = np.flatnonzero(np.bincount(group)[group] > 1)
        if runs.size:
            k = idx[runs]
            num, den = np.empty(k.size, dtype=object), np.empty(k.size, dtype=object)
            num[:], den[:] = zip(*(self.point(float(x[i]), int(pm[i]), int(pc[i]))
                                   for i in k.tolist()))
            key = (num / den).astype(float)  # correctly rounded, so monotone
            o = np.lexsort((key, group[runs]))
            k, num, den, key = k[o], num[o], den[o], key[o]
            for a, z in _runs(np.flatnonzero(np.diff(key) != 0) + 1, k.size):
                # the sign of num[i] / den[i] - num[j] / den[j], as den > 0
                o = sorted(range(a, z), key=cmp_to_key(
                    lambda i, j: num[i] * den[j] - num[j] * den[i]))
                k[a:z], num[a:z], den[a:z] = k[o], num[o], den[o]
            idx[runs] = k
            new[runs[1:]] |= (num[1:] * den[:-1] != num[:-1] * den[1:]).astype(bool)
        point = np.empty(x.size, dtype=np.int64)
        point[idx] = np.cumsum(new) - 1
        return _Points(x, pm, pc, point, idx[np.flatnonzero(new)])


def _runs(starts: np.ndarray, size: int):
    """(start, end) of the runs of length two or more, given where runs
    start (0 is implied) over positions 0..size-1."""
    bounds = np.concatenate([[0], starts[starts > 0], [size]])
    long = np.flatnonzero(np.diff(bounds) > 1)
    return zip(bounds[long].tolist(), bounds[long + 1].tolist())


def _own_ranks(form: _Form, lines: np.ndarray, members: np.ndarray, P: _Points) -> dict:
    """Rank of each member row (ascending) among ``lines`` at each of its
    own distinct points of ``form.points`` (lo, hi and its crossings),
    and in the open cell just right of each: row -> (own point numbers,
    ranks at them, ranks right of them).  Right of hi, each member's last
    point, lies outside the interval, so that cell's rank is 0.

    The ranks at lo are exact, one plus the lines with a smaller key at lo
    (``_Form.ends``), and carried through every crossing, those at lo
    too: left of one the flatter line is above, at it the lower row,
    right of it the steeper line.
    """
    # (member, point, partner) per crossing and (member, end, member) per end
    k, ends = np.flatnonzero(P.pm >= 0), P.point[P.pm < 0]
    m, c = (np.concatenate([u[k], v[k], np.repeat(members, ends.size)])
            for u, v in ((P.pm, P.pc), (P.pc, P.pm)))
    g = np.concatenate([P.point[k], P.point[k], np.tile(ends, members.size)])
    mine = np.isin(m, members)
    m, c, g = m[mine], c[mine], g[mine]
    # float slopes round monotonically, so only equal floats need S
    steeper = form.s[c] > form.s[m]
    tie = np.flatnonzero(form.s[c] == form.s[m])
    steeper[tie] = form.S[c[tie]] > form.S[m[tie]]
    flatter = (c != m) & ~steeper
    # the rank changes summed per (member, point), ascending
    key, inv = np.unique(m * P.rep.size + g, return_inverse=True)
    d_at, d_right = (np.bincount(inv, w).astype(np.int64)
                     for w in ((c < m) * 1 - flatter, steeper * 1 - flatter))
    m, g = np.divmod(key, P.rep.size)
    first = np.searchsorted(m, members)  # each member's point 0
    run = np.cumsum(d_right)
    # the rank just left of lo is the rank at lo less point 0's changes
    lo_key = form.ends[1]
    left = np.searchsorted(np.sort(lo_key[lines]), lo_key[members]) + 1 - d_at[first]
    right = (left - run[first] + d_right[first])[np.searchsorted(members, m)] + run
    at = right - d_right + d_at
    cuts = np.searchsorted(m, members, side="right")
    right[cuts - 1] = 0
    return {int(row): (g[a:z], at[a:z], right[a:z])
            for row, a, z in zip(members, np.concatenate([[0], cuts[:-1]]), cuts)}


def _set_ranks(form: _Form, lines: np.ndarray, groups):
    """Rank of each member group among ``lines`` at every distinct point
    of ``form.points`` for the groups' members, and in the open cell just
    right of it.

    A point with pm >= 0 belongs to those of pm and pc that are members,
    one with pm < 0 to every member.  A member's rank changes only at its
    own points, so it is ranked there and carried to the points between;
    a group ranks as its best member, and 0 in the cell right of hi.
    Returns the points' floats and two (len(groups), points) arrays.
    """
    members = np.unique(np.concatenate(groups))
    P = form.points(lines, members)
    every = np.arange(P.rep.size)
    at = np.full((len(groups), every.size), lines.size + 1, dtype=np.int64)
    right = at.copy()
    ranked = _own_ranks(form, lines, members, P)
    for g, group in enumerate(groups):
        for m in np.asarray(group).tolist():
            own, m_at, m_right = ranked[m]
            last = np.searchsorted(own, every, side="right") - 1
            np.minimum(at[g], np.where(own[last] == every, m_at[last], m_right[last]), out=at[g])
            np.minimum(right[g], m_right[last], out=right[g])
    return P.x[P.rep], at, right


def _worst_rank(form: _Form, lines: np.ndarray, members: np.ndarray) -> int:
    """Exact worst rank of the (sorted) member rows among ``lines`` over
    the interval; see ``exact_chain_rank``."""
    _, at, right = _set_ranks(form, lines, [members])
    return int(max(at.max(), right.max()))


def exact_chain_rank(S, D: Dataset, interval: tuple[float, float] = (0.0, 1.0)) -> int:
    """Exact worst-case rank of the set S over the closed x-interval.

    The set's rank changes only where a member's line crosses another
    line, so it is taken exactly at the ends, at every such crossing
    inside the interval, and in the open cell just right of each of
    these points but hi (see the module docstring for the two orders).
    Ranks are carried from lo through the members' crossings; working
    memory is O(|S| * n) crossings.  Requires 0 <= lo <= hi <= 1.
    """
    if D.d != 2:
        raise ValueError("exact_chain_rank requires d = 2")
    return _worst_rank(_Form(D.values, interval), np.arange(D.n), _set_rows(S, D.n))


def dualize(D: Dataset, space: RestrictedSpace | None = None) -> list[DualLine]:
    """Dual lines of all tuples, listed in their exact top-to-bottom order
    at the start of the swept interval, ties to the lower index (for the
    full space: descending second attribute).  Skyline ordinals refer to
    the restricted skyline and are None off it."""
    if D.d != 2:
        raise ValueError("the dual transform requires d = 2")
    form = _Form.of(D, space)
    ordinal = {row: pos + 1 for pos, row in enumerate(form.sky.tolist())}
    return [DualLine(row + 1, float(form.b[row]), float(form.s[row]), ordinal.get(row))
            for row in form.ends[0].tolist()]


def _band(form: _Form, K: int) -> np.ndarray:
    """Ascending rows of the lines the sweep keeps for ranks up to K.

    That is the K-skyband (``skyline.skyband``) of every line's exact
    ranks at the two ends of the interval, joined with the skyline rows.
    A line that ranks above another at both ends ranks above it at every
    point and in every cell between, so a line that K lines outrank
    never ranks within K; and the skyline rows are the chain lines.  The
    lines before a line in the order at lo outrank it when they rank
    better at hi, which a heap of the K best keys at hi so far counts
    (keys order as ranks do).  The K-th best only falls, so a block of
    lines in lo order goes to the heap only where its keys at hi beat
    the K-th best before it.
    """
    lo_order, _, hi_key = form.ends
    if K >= lo_order.size:
        return np.arange(lo_order.size)
    inside = np.zeros(lo_order.size, dtype=bool)
    inside[form.sky] = True
    best: list[int] = []  # the K best keys at hi so far, negated
    for start in range(0, lo_order.size, _BAND_BLOCK):
        rows = lo_order[start:start + _BAND_BLOCK]
        keys = hi_key[rows]
        if len(best) == K:
            beat = keys < -best[0]
            rows, keys = rows[beat], keys[beat]
        for row, key in zip(rows.tolist(), keys.tolist()):
            if len(best) < K:
                heapq.heappush(best, -key)
            elif key < -best[0]:
                heapq.heapreplace(best, -key)
            else:
                continue
            inside[row] = True
    return np.flatnonzero(inside)


def _pass_point(M_rank, chains, ords, at, aft) -> None:
    """Chain DP step at one point through which the skyline lines of
    ordinals ``ords`` (ascending) pass, with their ranks at the point
    and in the cell right of it.

    A chain whose last line passes the point may keep that line, move on
    to a steeper line through it, or reach that steeper line through a
    line in between, which tops the set only at the point and costs one
    more set slot; at the point the set ranks as the best of the lines
    it meets there.
    """
    old = [M_rank[o] for o in ords]
    old_chains = [chains[o] for o in ords]
    for j, oj in enumerate(ords):
        top = max(at[j], aft[j])
        row = [v if v > top else top for v in old[j]]
        links = list(old_chains[j])
        for i in range(j):
            _relax(row, links, old[i], old_chains[i], (oj,),
                   max(min(at[i], at[j]), aft[j]))
            if j - i > 1:
                mid = min(range(i + 1, j), key=at.__getitem__)
                _relax(row, links, old[i], old_chains[i], (ords[mid], oj),
                       max(min(at[i], at[mid], at[j]), aft[j]))
        M_rank[oj] = row
        chains[oj] = links


def _relax(row, links, src, src_chains, tail: tuple, floor: int) -> None:
    """Lower the cells of ``row`` (chains ending in ``tail[-1]``) that a
    chain ending in ``src`` improves by moving on through the ordinals of
    ``tail`` at a point, one set slot per ordinal."""
    step = len(tail)
    for h in range(len(row) - step):
        v = src[h] if src[h] > floor else floor
        if v < row[h + step]:
            row[h + step] = v
            links[h + step] = src_chains[h] + tail


def _sweep(form: _Form, band: np.ndarray, r: int):
    """Dual sweep of the lines of ``band`` feeding the chain DP.

    ``band`` holds ascending rows and contains ``form.sky``; ranks are
    exact ranks among the band's lines.  Returns ``(M_rank, chains,
    events)``: ``M_rank[o, h]`` is the least worst rank over the swept
    interval of a chain of at most h + 1 skyline lines ending in the line
    of slope ordinal o, ``chains[o][h]`` one such chain as a tuple of
    ascending slope ordinals, and ``events`` the number of crossings
    processed.  Column h depends only on the columns to its left, so it
    is the same for every r > h.

    The events are the crossings of skyline lines with band lines, in
    exact order, and all crossings at one exact x are one batch.  A
    skyline line's rank changes only at its own crossings, through which
    ``_own_ranks`` carries its exact rank at lo, so the DP visits the
    points where skyline lines meet (``_pass_point``) and takes the worst
    of the ranks in between.  Working memory is O(|skyline| * |band|)
    crossings.
    """
    sky = form.sky.tolist()
    members = np.sort(form.sky)
    P = form.points(band, members)
    ranks = _own_ranks(form, band, members, P)
    own, at, cell = ([ranks[row][i].tolist() for row in sky] for i in range(3))
    ordinal = {row: o for o, row in enumerate(sky)}
    cross = np.flatnonzero(P.pm >= 0)
    meets: dict[int, dict[int, set[int]]] = {}  # point -> line -> lines meeting there
    for k in cross[np.isin(P.pc[cross], form.sky)].tolist():
        a, c = ordinal[int(P.pm[k])], ordinal[int(P.pc[k])]
        there = meets.setdefault(int(P.point[k]), {})
        there.setdefault(a, {a}).add(c)
        there.setdefault(c, {c}).add(a)
    # every chain starts at rank 0 and folds in its ranks from lo on
    M_rank = [[0] * r for _ in sky]
    chains = [[(o,)] * r for o in range(len(sky))]
    done = [0] * len(sky)  # own points already in M_rank

    def fold(o: int, stop: int) -> None:
        j = bisect_left(own[o], stop)
        if j > done[o]:
            v = max(max(at[o][done[o]:j]), max(cell[o][done[o]:j]))
            M_rank[o] = [h if h > v else v for h in M_rank[o]]
            done[o] = j

    for g in sorted(meets):
        # skyline lines through one point all cross there, so a line's
        # partners there are its whole block
        for block in {frozenset(v) for v in meets[g].values()}:
            ords = sorted(block)
            js = [bisect_left(own[o], g) for o in ords]
            for o in ords:
                fold(o, g)
            _pass_point(M_rank, chains, ords, [at[o][j] for o, j in zip(ords, js)],
                        [cell[o][j] for o, j in zip(ords, js)])
            for o, j in zip(ords, js):
                done[o] = j + 1
    for o in range(len(sky)):
        fold(o, P.rep.size)
    return np.array(M_rank, dtype=np.int64), chains, int(np.count_nonzero(P.point[cross]))


def _verified_chain(form: _Form, band: np.ndarray, M_rank: np.ndarray, chains,
                    col: int) -> tuple[tuple[int, ...], int]:
    """Best chain of DP column ``col`` as (sorted tuple indices, value).

    The chain is re-ranked among the band's lines over the closed
    interval by the evaluator of ``exact_chain_rank``; at most K that is
    its rank among all lines.  A difference from the sweep's value
    raises rather than returning a wrong value.
    """
    best_ord = int(np.argmin(M_rank[:, col]))
    value = int(M_rank[best_ord, col])
    rows = np.sort(form.sky[list(chains[best_ord][col])])
    exact = _worst_rank(form, band, rows)
    if exact != value:
        raise AssertionError(
            f"sweep value {value} differs from the re-ranked value {exact} of its set"
        )
    return tuple(int(row) + 1 for row in rows), value


def _params(form: _Form, space, **extra) -> dict:
    return {"interval": [form.lo, form.hi], "skyline_size": int(form.sky.size), **extra,
            "halfspaces": [list(h) for h in (space.halfspaces if space else ())]}


def solve_rrm_2d(D: Dataset, r: int, space: RestrictedSpace | None = None) -> RegretResult:
    """Minimum worst-case rank-regret over subsets of size at most r.

    The search is confined to the restricted skyline and to the rendered
    x-interval of the space, and ranks are exact (module docstring).
    The sweep runs over the K-skyband of the dual lines only (see
    ``_band``): at every x a line's rank among the band equals its rank
    among all lines whenever either is at most K, so the first K whose
    optimum over the band is at most K gives the optimum over all lines.
    A rank among the band never exceeds the rank among all lines, so a
    band optimum above K bounds the optimum from below, and the next
    round takes K = min(n, max(2K, twice that bound)).  Any K at or above
    the optimum returns the same set: a rank within K is the same among
    the band and among all lines and one above K stays above K, so every
    DP choice that leads to the optimum is made alike on both.  The
    rounds also stop once the band holds every tuple.
    The returned set is re-ranked as ``exact_chain_rank`` ranks it.
    Returns the optimal value and one optimal subset (deterministic
    tie-breaking).
    """
    if D.d != 2:
        raise ValueError("solve_rrm_2d requires d = 2; use the HD solver otherwise")
    n = D.n
    if not 1 <= r <= n:
        raise ValueError(f"budget r must be in 1..{n}, got {r}")
    form = _Form.of(D, space)
    K = 1
    events = 0
    while True:
        band = _band(form, K)
        M_rank, chains, processed = _sweep(form, band, r)
        events += processed
        value = int(M_rank[:, r - 1].min())
        if value <= K or band.size == n:
            break
        K = min(n, max(2 * K, 2 * value))
    indices, value = _verified_chain(form, band, M_rank, chains, r - 1)
    params = {"algo": "2d", "r": r, **_params(form, space, band_k=K, band_size=int(band.size),
                                              events=events)}
    return RegretResult(indices, len(indices), value, params)


def solve_rrr_2d(D: Dataset, k: int, space: RestrictedSpace | None = None) -> RegretResult:
    """Minimum-size subset with worst-case rank at most k.

    One sweep over the k-skyband (see ``_band``) with budget r =
    |skyline|: DP column h is the optimum for budget h + 1 and depends
    only on the columns to its left, and wherever it is at most k it is
    exact over all lines, so the first column whose minimum is at most k
    gives the minimum size.  The returned set is re-ranked as in
    ``solve_rrm_2d``; its value is at most k.
    """
    if D.d != 2:
        raise ValueError("solve_rrr_2d requires d = 2")
    if not 1 <= k <= D.n:
        raise ValueError(f"threshold k must be in 1..{D.n}, got {k}")
    form = _Form.of(D, space)
    band = _band(form, k)
    M_rank, chains, processed = _sweep(form, band, form.sky.size)
    fits = np.flatnonzero(M_rank.min(axis=0) <= k)
    if fits.size == 0:
        # a skyline rank above k among the band's lines is above k among all
        if _worst_rank(form, band, np.sort(form.sky)) <= k:
            raise AssertionError(
                f"the sweep puts the whole skyline above rank {k}, re-ranking does not"
            )
        raise ValueError(
            f"no subset reaches worst-case rank {k}; the skyline's worst rank "
            f"exceeds {k}"
        )
    col = int(fits[0])
    indices, value = _verified_chain(form, band, M_rank, chains, col)
    params = {"algo": "2d-rrr", "r": col + 1, **_params(
        form, space, band_k=k, band_size=int(band.size), events=processed), "k": k}
    return RegretResult(indices, len(indices), value, params)
