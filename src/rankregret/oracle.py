"""Independent brute-force references for the solvers.

Everything here trades time for simplicity: subsets are enumerated
outright and evaluated either exactly (d = 2, ranks at the critical
points and in the cells between them, carried through the crossings as
``exact_chain_rank`` carries them) or by a high-density vector sample
(d > 2, ranked on canonical scores as ``core.rank`` ranks; a lower bound
on the true worst case).  The 2D dense grid ranks its points directly.
A combinatorial guard keeps runs at desk scale.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb

import numpy as np

from .core import (Dataset, RestrictedSpace, _canonical, _min_rank_rows, _score_blocks,
                   _set_rows)
from .skyline import restricted_skyline
from .solver2d import _Form, _set_ranks, render_scene
from .solverhd import sample_sphere

ENUMERATION_GUARD = 10_000_000


class GuardExceededError(RuntimeError):
    """Requested enumeration is larger than the safety guard."""


@dataclass(frozen=True, eq=False)
class OracleReport:
    optimal_value: int
    optimal_sets: tuple[tuple[int, ...], ...]
    method: str  # "exhaustive-2d-exact" | "exhaustive-sampled" | "singleton-scan"
    work_bound: int
    candidate_mode: str = "skyline"
    samples: int | None = None
    seed: int | None = None

    def to_json_dict(self) -> dict:
        out = {
            "optimal_value": self.optimal_value,
            "optimal_sets": [list(s) for s in self.optimal_sets],
            "method": self.method,
            "work_bound": self.work_bound,
            "candidate_mode": self.candidate_mode,
        }
        if self.samples is not None:
            out["samples"] = self.samples
        if self.seed is not None:
            out["seed"] = self.seed
        return out


def arc_dataset(n: int) -> Dataset:
    """n 2-D tuples evenly spaced on the unit quarter circle.

    Every tuple is a skyline tuple and is top-1 for the utility direction
    pointing at it, which forces the optimal rank-regret of any small
    subset to grow linearly with n.
    """
    if n < 2:
        raise ValueError("arc dataset needs n >= 2")
    theta = np.linspace(0.0, np.pi / 2, n)
    values = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    return Dataset(values, ("A1", "A2"))


def dense_grid_chain_rank(S, D: Dataset, interval: tuple[float, float] = (0.0, 1.0),
                          points: int = 100_000) -> int:
    """Worst rank of S over a dense uniform x-grid (can only under-count).

    Each grid point is ranked directly, not by the solver's crossing
    walk: float scores decide outside ``_Form.tol``, exact integer scores
    inside it, then the lower row.  Peak working memory is
    O(``_BLOCK_CELLS``) scores plus the grid.
    """
    if D.d != 2 or points < 1:
        raise ValueError(f"the dense grid needs d = 2 and points >= 1, got {D.d}, {points}")
    rows = _set_rows(S, D.n)
    xs = np.linspace(interval[0], interval[1], points)
    form, best = _Form(D.values, interval), np.full(points, D.n)
    for sl, Y in _score_blocks(lambda sl: np.multiply.outer(xs[sl], form.s) + form.b,
                               points, D.n):
        tol = form.tol(xs[sl])[:, None]
        for m in rows.tolist():
            y = Y[:, m:m + 1]
            i, j = np.nonzero(np.abs(Y - y) <= tol)
            i, j = i[j != m], j[j != m]
            p, q = np.array([x.as_integer_ratio() for x in xs[sl][i].tolist()],
                            dtype=object).reshape(-1, 2).T
            diff = (form.B[j] - form.B[m]) * q + (form.S[j] - form.S[m]) * p
            up = i[(diff > 0) | ((diff == 0) & (j < m))]
            rank = np.count_nonzero(Y > y + tol, axis=1) + np.bincount(up, minlength=len(y)) + 1
            np.minimum(best[sl], rank, out=best[sl])
    return int(best.max())


def exact_rat_k_2d(S, D: Dataset, k: int, space: RestrictedSpace | None = None) -> float:
    """Exact fraction of utility directions (by arc measure) whose top-k
    intersects S, for d = 2.

    Ranks are constant on the open cell between consecutive critical
    points (``exact_chain_rank``'s points, in exact order), where they are
    the cell ranks right of the first; each cell is weighted by the angle
    swept by the normalized direction (c, 1-c).  Working memory is
    O(|S| * n) crossings.
    """
    if D.d != 2:
        raise ValueError("exact_rat_k_2d requires d = 2")
    rows = _set_rows(S, D.n)
    form = _Form(D.values, render_scene(space))
    lines = np.arange(D.n)
    x, at, right = _set_ranks(form, lines, [rows])
    if x.size < 2:
        # degenerate zero-width interval: a single direction
        return float(at[0, 0] <= k)
    angles = np.arctan2(x, 1.0 - x)
    weights = np.diff(angles)
    hit = weights[right[0, :-1] <= k].sum()
    return float(hit / weights.sum())


def _candidate_rows(D: Dataset, space, mode: str) -> np.ndarray:
    if mode == "all":
        return np.arange(D.n)
    if mode == "skyline":
        return np.asarray(restricted_skyline(D, space)) - 1
    raise ValueError(f"unknown candidate mode {mode!r}")


def _rank_profiles(D: Dataset, V: np.ndarray, cand: np.ndarray) -> np.ndarray:
    """Rank of every candidate at each utility row of V, one singleton-set
    kernel call per candidate and block of canonical scores."""
    out = np.empty((len(cand), len(V)), dtype=np.int32)
    for sl, block in _score_blocks(lambda sl: _canonical(V[sl], D.values), len(V), D.n):
        for i in range(len(cand)):
            out[i, sl] = _min_rank_rows(block, cand[i:i + 1])
    return out


def _min_over_subsets(R: np.ndarray, cand: np.ndarray, r: int,
                      sets_cap: int) -> tuple[int, list[tuple[int, ...]], int]:
    """Exact minimum over all subsets of size <= r of max-over-columns of
    the subset's best rank, with the first ``sets_cap`` subsets that reach
    it in enumeration order, in one pass.

    A lower bound on a small column subset comes first; a subset whose
    bound exceeds the incumbent can neither improve it nor tie it, and
    every other subset is fully evaluated.  The list restarts whenever
    the incumbent falls, so it ends holding optimal subsets only.
    """
    n_cand, n_cols = R.shape
    coarse_cols = np.unique(np.linspace(0, n_cols - 1, min(64, n_cols)).astype(int))
    Rc = np.ascontiguousarray(R[:, coarse_cols])
    work = 0
    best = np.inf
    optimal: list[tuple[int, ...]] = []
    for size in range(1, min(r, n_cand) + 1):
        for block in _combo_blocks(n_cand, size, 4096):
            work += len(block)
            lb = Rc[block].min(axis=1).max(axis=1)
            for rows in block[lb <= best]:
                v = int(R[rows].min(axis=0).max())
                if v < best:
                    best, optimal = v, []
                if v == best and len(optimal) < sets_cap:
                    optimal.append(tuple(sorted(int(cand[i]) + 1 for i in rows)))
    return int(best), optimal, work


def _combo_blocks(n: int, size: int, block: int):
    it = itertools.combinations(range(n), size)
    while True:
        chunk = list(itertools.islice(it, block))
        if not chunk:
            return
        yield np.asarray(chunk, dtype=np.int64)


def exhaustive_rrm(D: Dataset, r: int, space: RestrictedSpace | None = None,
                   mode: str = "skyline", *, sets_cap: int = 32,
                   samples: int = 100_000, seed: int = 0) -> OracleReport:
    """Reference optimum by subset enumeration.

    mode "skyline" enumerates restricted-skyline subsets, "all" every
    subset (useful to confirm the candidate reduction loses nothing).
    For d = 2 the evaluation is exact; for d > 2 it is the worst rank
    over a sampled vector set and therefore a lower bound.  Working memory
    is the output, each candidate's rank profile, plus O(candidates * n)
    crossings (d = 2) or O(``_BLOCK_CELLS``) scores (d > 2).
    """
    if not 1 <= r <= D.n:
        raise ValueError(f"budget r must be in 1..{D.n}, got {r}")
    cand = _candidate_rows(D, space, mode)
    total = sum(comb(len(cand), j) for j in range(1, min(r, len(cand)) + 1))
    if total > ENUMERATION_GUARD:
        raise GuardExceededError(
            f"enumerating {total} subsets exceeds the guard {ENUMERATION_GUARD}"
        )
    if D.d == 2:
        # each candidate's exact ranks at the critical points of all
        # candidates and in the cells right of them (0 where no cell is)
        form = _Form(D.values, render_scene(space))
        lines = np.arange(D.n)
        _, at, right = _set_ranks(form, lines, [cand[i:i + 1] for i in range(len(cand))])
        R = np.concatenate([at, right], axis=1).astype(np.int32)
        method = "exhaustive-2d-exact"
        rep_samples = rep_seed = None
    else:
        V = sample_sphere(D.d, samples, seed, space)
        R = _rank_profiles(D, V, cand)
        method = "exhaustive-sampled"
        rep_samples, rep_seed = samples, seed
    value, optimal, work = _min_over_subsets(R, cand, r, sets_cap)
    if r == 1:
        method = "singleton-scan"
    return OracleReport(
        optimal_value=value,
        optimal_sets=tuple(optimal),
        method=method,
        work_bound=work,
        candidate_mode=mode,
        samples=rep_samples,
        seed=rep_seed,
    )


def exhaustive_min_cover_size(universe: np.ndarray, sets: dict[int, np.ndarray]) -> int:
    """Smallest number of sets covering the universe, by direct enumeration."""
    uni = set(int(x) for x in universe)
    if not uni:
        return 0
    keys = sorted(sets)
    members = {k: uni.intersection(int(x) for x in sets[k]) for k in keys}
    if len(keys) > 30 or len(uni) > 40:
        raise GuardExceededError("min-cover enumeration limited to 30 sets / 40 items")
    missing = uni.difference(*members.values())
    if missing:
        raise ValueError(f"no set covers the universe items {sorted(missing)}")
    for size in range(1, len(keys) + 1):
        for combo in itertools.combinations(keys, size):
            merged: set[int] = set()
            for k in combo:
                merged |= members[k]
            if merged == uni:
                return size
