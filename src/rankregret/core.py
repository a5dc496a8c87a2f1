"""Dataset and utility-vector primitives shared by every solver.

A dataset is an immutable table of n tuples with d numeric attributes.
A linear utility vector u assigns each tuple the score ``u . t``; the
rank of a tuple is its 1-based position in the descending score order,
and the rank-regret of a subset is the best (minimum) rank among its
members.  Score ties are broken deterministically: the tuple with the
lower index ranks better, which makes ranks a bijection onto 1..n.

A score is the canonical float value of u . t (``_canonical``): the d
products rounded one by one and summed left to right, with no BLAS and
no fused multiply-add, so it is the same number however many vectors or
tuples a call holds.  Every rank in the library follows it.  Batched
kernels use BLAS products only as keys: a key lies within a bound of the
canonical score (``_key_slack``), keys farther apart than that order as
the scores do, and only keys within it of the score that decides a rank
are re-scored canonically.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Iterable, Sequence

import numpy as np

NORMALIZATION_TOL = 1e-9

_NORMALIZATION_TAGS = ("sum-one", "unit-norm", "raw")


def _as_readonly(values: np.ndarray) -> np.ndarray:
    out = np.array(values, dtype=np.float64, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class Dataset:
    """Immutable n x d tuple table.

    Tuple indices are stable 1-based identifiers; every result in this
    package refers to tuples by these indices.  A normalized dataset has
    all values in [0, 1] and, on each attribute, at least one tuple
    attaining 1 (a boundary tuple).
    """

    values: np.ndarray
    attribute_names: tuple[str, ...] = ()
    normalized: bool = True

    def __post_init__(self) -> None:
        vals = _as_readonly(np.atleast_2d(self.values))
        object.__setattr__(self, "values", vals)
        if vals.ndim != 2:
            raise ValueError("dataset values must form a 2-D table")
        n, d = vals.shape
        if n < 1 or d < 2:
            raise ValueError(f"dataset needs n >= 1 and d >= 2, got n={n}, d={d}")
        if not np.isfinite(vals).all():
            raise ValueError("dataset values must be finite")
        names = tuple(self.attribute_names) or tuple(f"A{i}" for i in range(1, d + 1))
        if len(names) != d:
            raise ValueError(f"expected {d} attribute names, got {len(names)}")
        object.__setattr__(self, "attribute_names", names)
        if self.normalized:
            if vals.min() < -NORMALIZATION_TOL or vals.max() > 1 + NORMALIZATION_TOL:
                raise ValueError("normalized dataset must have values in [0, 1]")
            col_max = vals.max(axis=0)
            if (col_max < 1 - NORMALIZATION_TOL).any():
                bad = int(np.argmax(col_max < 1 - NORMALIZATION_TOL))
                raise ValueError(
                    f"attribute {names[bad]!r} has no boundary tuple reaching 1; "
                    "dataset does not look normalized"
                )

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.values.shape[1]

    @cached_property
    def basis_indices(self) -> tuple[int, ...]:
        """Each attribute's top tuple (lowest index among the column's maxima,
        on a normalized table its boundary tuple), defined for every table:
        a shift keeps it unless its rounding ties two values of a column."""
        return tuple(sorted({int(i) + 1 for i in np.argmax(self.values, axis=0)}))

    def record(self, index: int) -> np.ndarray:
        """Attribute values of the tuple with the given 1-based index."""
        if not 1 <= index <= self.n:
            raise IndexError(f"tuple index {index} outside 1..{self.n}")
        return self.values[index - 1]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tag = "normalized" if self.normalized else "raw"
        return f"Dataset(n={self.n}, d={self.d}, {tag})"


@dataclass(frozen=True)
class UtilityVector:
    """Nonnegative d-vector of attribute weights.

    The normalization tag records which convention the weights follow:
    ``sum-one`` (components add to 1, used by the 2D dual transform),
    ``unit-norm`` (L2 norm 1, used on the utility sphere) or ``raw``.
    """

    weights: tuple[float, ...]
    normalization: str = "raw"

    def __post_init__(self) -> None:
        w = tuple(float(x) for x in self.weights)
        object.__setattr__(self, "weights", w)
        if len(w) < 2:
            raise ValueError("utility vector needs at least 2 components")
        if any(x < 0 for x in w):
            raise ValueError("utility weights must be nonnegative")
        if self.normalization not in _NORMALIZATION_TAGS:
            raise ValueError(f"unknown normalization tag {self.normalization!r}")
        if self.normalization == "sum-one" and abs(sum(w) - 1.0) > NORMALIZATION_TOL:
            raise ValueError("sum-one vector must have components adding to 1")
        if self.normalization == "unit-norm":
            if abs(float(np.linalg.norm(w)) - 1.0) > NORMALIZATION_TOL:
                raise ValueError("unit-norm vector must have L2 norm 1")

    @classmethod
    def sum_one(cls, weights: Sequence[float]) -> "UtilityVector":
        w = np.asarray(weights, dtype=float)
        total = w.sum()
        if total <= 0:
            raise ValueError("cannot scale a nonpositive vector to sum 1")
        return cls(tuple(w / total), "sum-one")

    @classmethod
    def unit(cls, weights: Sequence[float]) -> "UtilityVector":
        w = np.asarray(weights, dtype=float)
        norm = float(np.linalg.norm(w))
        if norm <= 0:
            raise ValueError("cannot scale the zero vector to unit norm")
        return cls(tuple(w / norm), "unit-norm")

    @property
    def d(self) -> int:
        return len(self.weights)

    @property
    def array(self) -> np.ndarray:
        return np.asarray(self.weights, dtype=float)


def as_weight_array(u, d: int | None = None) -> np.ndarray:
    """Coerce a UtilityVector or plain sequence to a float weight array."""
    w = u.array if isinstance(u, UtilityVector) else np.asarray(u, dtype=float)
    if w.ndim != 1:
        raise ValueError("utility vector must be one-dimensional")
    if d is not None and w.shape[0] != d:
        raise ValueError(f"utility vector has {w.shape[0]} components, expected {d}")
    return w


@dataclass(frozen=True, eq=False)
class RestrictedSpace:
    """Convex cone of admissible utility vectors.

    The cone is the set of nonnegative vectors satisfying ``h . u >= 0``
    for every stored halfspace h.  An empty halfspace list denotes the
    full nonnegative orthant.  Construction validates that the cone
    contains at least one strictly positive direction.
    """

    halfspaces: tuple[tuple[float, ...], ...] = ()
    description: str = ""

    def __post_init__(self) -> None:
        hs = tuple(tuple(float(x) for x in h) for h in self.halfspaces)
        object.__setattr__(self, "halfspaces", hs)
        if hs:
            d = len(hs[0])
            if d < 2 or any(len(h) != d for h in hs):
                raise ValueError("halfspaces must share one dimension d >= 2")
            rays = self.extreme_rays(d)
            if rays.shape[0] == 0 or not (rays.sum(axis=0) > 0).all():
                raise ValueError(
                    "restricted space is degenerate: the cone has no strictly "
                    "positive direction"
                )

    @classmethod
    def full(cls, description: str = "") -> "RestrictedSpace":
        return cls((), description)

    @classmethod
    def weak_ranking(cls, d: int, levels: int | None = None) -> "RestrictedSpace":
        """Cone with u[1] >= u[2] >= ... over the first ``levels``+1 attributes."""
        levels = d - 1 if levels is None else levels
        if not 1 <= levels <= d - 1:
            raise ValueError("levels must be in 1..d-1")
        hs = []
        for i in range(levels):
            h = [0.0] * d
            h[i], h[i + 1] = 1.0, -1.0
            hs.append(tuple(h))
        return cls(tuple(hs), f"weak ranking over first {levels + 1} attributes")

    @property
    def is_full(self) -> bool:
        return not self.halfspaces

    def halfspace_matrix(self, d: int) -> np.ndarray:
        if self.halfspaces and len(self.halfspaces[0]) != d:
            raise ValueError(f"space is {len(self.halfspaces[0])}-dimensional, not {d}")
        return np.asarray(self.halfspaces, dtype=float).reshape(len(self.halfspaces), d)

    def membership_mask(self, vectors: np.ndarray) -> np.ndarray:
        """Exact cone-membership test for each row of ``vectors``."""
        V = np.atleast_2d(np.asarray(vectors, dtype=float))
        ok = (V >= 0).all(axis=1)
        if self.halfspaces:
            H = self.halfspace_matrix(V.shape[1])
            ok &= (V @ H.T >= 0).all(axis=1)
        return ok

    def contains(self, u) -> bool:
        return bool(self.membership_mask(as_weight_array(u)[None, :])[0])

    def extreme_rays(self, d: int | None = None) -> np.ndarray:
        """Extreme rays of the cone, scaled to max component 1, sorted rows.

        Membership of a vector is scale invariant, so any positive scaling
        of a ray is equivalent; the max-1 scaling keeps rays of rational
        constraint systems exact.  The rays are computed once per
        (halfspaces, d) and returned read-only.
        """
        if d is None:
            if self.is_full:
                raise ValueError("dimension required for the full space")
            d = len(self.halfspaces[0])
        self.halfspace_matrix(d)  # rejects a d that does not match
        return _extreme_rays(self.halfspaces, d)


@lru_cache(maxsize=64)
def _extreme_rays(halfspaces: tuple[tuple[float, ...], ...], d: int) -> np.ndarray:
    """``RestrictedSpace.extreme_rays`` of the cone of these halfspaces in
    dimension d, read-only."""
    if not halfspaces:
        return _as_readonly(np.eye(d))
    A = np.vstack([np.eye(d), np.asarray(halfspaces, dtype=float).reshape(-1, d)])
    rays: list[np.ndarray] = []
    keys: set[tuple] = set()
    for rows in itertools.combinations(range(A.shape[0]), d - 1):
        sub = A[list(rows)]
        if np.linalg.matrix_rank(sub, tol=1e-10) != d - 1:
            continue
        # one-dimensional null space of the active constraints
        _, _, vh = np.linalg.svd(sub)
        v = vh[-1]
        for cand in (v, -v):
            if (A @ cand >= -1e-10).all():
                ray = np.where(np.abs(cand) < 1e-12, 0.0, cand)
                # rounding after max-1 scaling keeps rational cones exact
                ray = np.round(ray / ray.max(), 12)
                key = tuple(ray)
                if key not in keys:
                    keys.add(key)
                    rays.append(ray)
    rays.sort(key=lambda r: tuple(r))
    return _as_readonly(np.asarray(rays).reshape(len(rays), d))


@dataclass(frozen=True, eq=False)
class RegretResult:
    """Outcome of a rank-regret solver run."""

    selected_indices: tuple[int, ...]
    size: int
    rank_regret: int
    solver_params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        idx = tuple(int(i) for i in self.selected_indices)
        object.__setattr__(self, "selected_indices", idx)
        if self.size != len(idx):
            raise ValueError("size must equal the number of selected indices")
        if self.rank_regret < 1:
            raise ValueError("rank_regret is a 1-based rank")

    def to_json_dict(self) -> dict:
        """Result as a plain dict following the on-disk schema."""
        return {
            "indices": list(self.selected_indices),
            "size": self.size,
            "rank_regret": self.rank_regret,
            "params": self.solver_params,
        }


def scores(D: Dataset, u) -> np.ndarray:
    """Canonical scores of all tuples under u, indexed 0..n-1."""
    return _canonical(as_weight_array(u, D.d)[None, :], D.values)[0]


def score(u, record) -> float:
    """Canonical score u . t of one tuple record, bit for bit the value
    ``scores`` gives that tuple."""
    w = as_weight_array(u)
    t = np.asarray(record, dtype=float)
    if t.shape != w.shape:
        raise ValueError(f"record has shape {t.shape}, utility vector {w.shape}")
    return float(_canonical(w[None, :], t[None, :])[0, 0])


def rank(u, t_index: int, D: Dataset) -> int:
    """Rank of the tuple in the descending score order of D (ties by index)."""
    if not 1 <= t_index <= D.n:
        raise IndexError(f"tuple index {t_index} outside 1..{D.n}")
    return rank_regret_of_set(u, (t_index,), D)


def rank_regret_of_set(u, S: Iterable[int], D: Dataset) -> int:
    """Best (minimum) rank among the members of S under u."""
    rows = _set_rows(S, D.n)
    return int(_min_rank_rows(scores(D, u)[None, :], rows)[0])


def top_k(u, k: int, D: Dataset) -> list[int]:
    """The k best tuple indices under u, in rank order."""
    if not 1 <= k <= D.n:
        raise ValueError(f"k must be in 1..{D.n}, got {k}")
    order = np.argsort(-scores(D, u), kind="stable")  # stable sort = index tie rule
    return [int(i) + 1 for i in order[:k]]


def shift(D: Dataset, lam) -> Dataset:
    """Dataset with lam added to every tuple, marked un-normalized.

    Adding a fixed nonnegative vector adds the same constant to every
    exact score under any u, so exact ranks are preserved.  Ranks follow
    the float scores, and the rounded sums ``D.values + lam`` can make or
    break a score tie between rows that hold different values, so the
    rank of such a row can move.
    """
    lam = np.asarray(lam, dtype=float)
    if lam.shape != (D.d,):
        raise ValueError(f"shift vector must have {D.d} components")
    if (lam < 0).any():
        raise ValueError("shift vector must be nonnegative")
    return Dataset(D.values + lam, D.attribute_names, normalized=False)


def _set_rows(S: Iterable[int], n: int) -> np.ndarray:
    rows = np.unique(np.asarray(list(S), dtype=int))
    if rows.size == 0:
        raise ValueError("tuple set must be nonempty")
    if rows.min() < 1 or rows.max() > n:
        raise IndexError(f"tuple indices must lie in 1..{n}")
    return rows - 1


def _min_rank_rows(score_block: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Minimum rank of the tuple set over each utility row of a score block.

    This is the tie rule on a dense block of canonical scores;
    ``min_ranks_for_vectors`` applies the same rule to the few keys it
    re-scores.  The set's best rank is the rank of its best-scoring
    member; among equal scores the member with the lowest index wins,
    which ``rows`` being sorted guarantees via the first argmax.
    """
    sub = score_block[:, rows]
    pick = rows[np.argmax(sub, axis=1)]
    best = sub.max(axis=1)[:, None]
    ranks = np.count_nonzero(score_block > best, axis=1).astype(np.int64) + 1
    # exact ties with the best member are rare; add the lower-index ones
    # only on the utility rows that have any
    tied = score_block == best
    some = np.flatnonzero(np.count_nonzero(tied, axis=1) > 1)
    if some.size:
        lower = np.arange(score_block.shape[1])[None, :] < pick[some, None]
        ranks[some] += np.count_nonzero(tied[some] & lower, axis=1)
    return ranks


# Scores held at once by a blocked rank or score pass (16 MiB of float64).
_BLOCK_CELLS = 1 << 21

# Keys a direction cell aims at, and the most a block of cells joined
# under one pivot may hold.
_CELL_KEYS = 1 << 16

# Unit roundoff of float64.
_UNIT_ROUNDOFF = 2.0 ** -53


def _score_blocks(block_scores, count: int, n: int):
    """Yield ``(sl, scores)`` for consecutive slices ``sl`` of ``count``
    utility rows, where ``block_scores(sl)`` is that slice's score block
    over the n tuples.

    A block holds at most ``_BLOCK_CELLS`` scores (one row when n alone
    exceeds it), so memory stays fixed whatever ``count`` is.
    """
    step = max(1, _BLOCK_CELLS // n)
    for lo in range(0, count, step):
        sl = slice(lo, min(lo + step, count))
        yield sl, block_scores(sl)


def _canonical_at(V: np.ndarray, X: np.ndarray, i, t) -> np.ndarray:
    """Canonical scores ``V[i] . X[t]`` for index arrays i and t that
    broadcast against each other.

    This is the library's definition of a score: the d products are
    rounded one by one and summed left to right, by separate numpy
    ufuncs, so no BLAS kernel and no fused multiply-add is involved and
    the result does not depend on the shape of the call.
    """
    out = V[i, 0] * X[t, 0]
    for j in range(1, X.shape[1]):
        out += V[i, j] * X[t, j]
    return out


def _canonical(V: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Canonical scores of every row of V against every row of X (m x n)."""
    return _canonical_at(V, X, np.arange(V.shape[0])[:, None], np.arange(X.shape[0])[None, :])


def _gamma(k: int) -> float:
    """Higham's gamma_k = k u / (1 - k u), the relative error bound of a
    k-term float dot product in any summation order."""
    return k * _UNIT_ROUNDOFF / (1 - k * _UNIT_ROUNDOFF)


def _key_slack(V: np.ndarray, X: np.ndarray, ulps: int = 0) -> np.ndarray:
    """Per utility row u of V, a bound W(u) such that every float
    evaluation of u . t (a BLAS key: any summation order, fused or not)
    lies within W(u) of the canonical score of every tuple t of X.

    Both differ from the exact u . t by at most gamma_d sum_j |u_j t_j|,
    so 2 gamma_d sum_j |u_j| max_t |t_j| bounds their distance; using
    gamma_{d+4} also absorbs the rounding of this bound and of a key
    plus or minus it, and the last term absorbs underflow.  A key read
    back up to ``ulps`` steps of its last place away (a truncated key)
    moves by at most ulps (2 u |key| + the least subnormal); gamma_{d+4+2
    ulps} and ``ulps`` more subnormals absorb that too.
    """
    d = X.shape[1]
    scale = np.abs(V) @ np.abs(X).max(axis=0)
    tiny = np.finfo(float).smallest_subnormal
    return 2 * _gamma(d + 4 + 2 * ulps) * scale + (4 * d + ulps) * tiny


def _direction_cells(V: np.ndarray, n: int) -> np.ndarray:
    """A cell label for every utility row of V, grouping nearby directions.

    Each row's polar angles theta_i = atan2(|u_{i+1..d}|, u_i) are binned
    into equal slices of their range.  A cell costs a fixed overhead plus
    one bound per tuple, so it gets at least 64 rows and, against n
    tuples, at least ``_CELL_KEYS`` keys: its bounds then cost about 2d/64
    of keying its rows.  ``_cell_candidates`` keys cells that share a
    pivot together up to the same figure, so the overhead stays small
    against the keys.  Any labelling is correct: cells only decide how
    many tuples the bounds of ``_cell_candidates`` can drop.  Labels come
    in the smallest unsigned type that holds them, which numpy sorts
    stably by radix.
    """
    N, d = V.shape
    cells = N / max(64, _CELL_KEYS / n)
    per_angle = max(1, int(round(cells ** (1 / (d - 1)))))
    VT = np.ascontiguousarray(V.T)
    tails = np.sqrt(np.cumsum(VT[::-1] ** 2, axis=0)[::-1])
    theta = np.arctan2(tails[1:], VT[:-1])
    lo, hi = theta.min(axis=1, keepdims=True), theta.max(axis=1, keepdims=True)
    bins = np.floor((theta - lo) / np.maximum(hi - lo, 1e-300) * per_angle).astype(np.int64)
    label = np.ravel_multi_index(np.minimum(bins, per_angle - 1), (per_angle,) * (d - 1))
    return label.astype(np.min_scalar_type(per_angle ** (d - 1) - 1))


def _set_best(D: Dataset, V: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per utility row, the set's best canonical score and the 0-based
    member reaching it (the lowest such index, as ``rows`` is sorted)."""
    set_scores = _canonical(V, D.values[rows])
    at = np.argmax(set_scores, axis=1)
    return set_scores[np.arange(V.shape[0]), at], rows[at]


def _cell_pivots(order: np.ndarray, sizes: np.ndarray, pick: np.ndarray) -> np.ndarray:
    """Per cell, whose utility rows are the consecutive runs of ``sizes``
    rows of ``order``, the tuple of ``pick`` (one 0-based tuple per row)
    that most of its rows pick; ties go to the lower tuple."""
    cell = np.repeat(np.arange(sizes.size), sizes)
    base = int(pick.max()) + 1
    keys, counts = np.unique(cell * base + pick[order], return_counts=True)
    # keys ascend by (cell, tuple) and lexsort is stable: within a cell the
    # most picked tuple comes first, the lower one among equal counts
    by_count = np.lexsort((-counts, keys // base))
    head = by_count[np.flatnonzero(np.diff(keys[by_count] // base, prepend=-1))]
    return keys[head] % base


def _cell_candidates(V: np.ndarray, X: np.ndarray, keep=None, pick=None, K=None):
    """Yield ``(ids, cand)`` for blocks of direction cells
    (``_direction_cells``) of the utility rows of V: the block's rows
    ``ids`` and the sorted 0-based tuples ``cand`` of X that they may need.

    Over a cell with componentwise max hi and min lo, every row u has
    u . a <= hi . a+ - lo . a- for any vector a (the box bound), and
    u . t >= lo . t+ - hi . t-.  Two tests drop a tuple t:

    - Pivot.  ``keep`` are the sorted 0-based tuples a caller measures its
      rows against: at a row it needs no tuple that scores below every
      tuple of ``keep`` there.  ``pick`` holds the best tuple of ``keep``
      at each row, and a cell's pivot p is the one most of its rows pick
      (``_cell_pivots``; any tuple of ``keep`` is valid).  t is dropped
      when the box bound of t - p is below -slack: t then scores strictly
      below p at every row of the cell, canonically and by key.
    - Floor.  With K given, t is dropped when its box bound is below the
      cell's K-th largest lower bound less the slack: K tuples then
      outscore it at every row of the cell, so it is in no row's top K.
      Any K tuples will do, so the lower bounds are taken only over the
      tuples that pass the pivot test in some cell of the step, and only
      those are bounded; with fewer than K of them there is no floor.

    Slack.  Let M_j = max_t |t_j|, m_j = max(|hi_j|, |lo_j|) and
    reach = sum_j m_j M_j, and let u be any row of the cell.  The pivot
    test forms fl(t - p), whose entries are within the unit roundoff of
    t - p, bounded by 2 M_j: u . fl(t - p) is within 2 u reach of
    u . (t - p).  Its 2d-term bound is within 2 gamma_{2d} (1 + u) reach
    of its exact value.  A canonical score or a key of t or p is within
    gamma_d sum_j |u_j t_j| of u . t, so the two scores add
    2 gamma_d reach.  The sum is at most 4 gamma_{2d+1} reach.  The floor
    test has two 2d-term bounds and two scores, at most 4 gamma_{2d}
    reach.  The slack 4 gamma_{2d+4} reach also absorbs its own rounding
    and the comparison, and the last term absorbs underflow.

    Consecutive cells that share a pivot form one block with the union of
    their candidates while its rows times that union stay within
    ``_CELL_KEYS``, and, with K given, within twice the keys of its cells
    keyed alone, since every key of the prefix is sorted; a cell that does
    not fit starts the next block.  A tuple outside the union is dropped
    in every member cell, so it scores below the shared pivot at every row
    of the block (with K, it is in no row's top K), and a member cell's
    extra tuples score below it at that cell's rows, which only costs
    keys.  The tuples of ``keep`` are always yielded.

    Cells are bounded pivot by pivot, so each pivot's signed differences
    are formed once, in steps of at most ``_BLOCK_CELLS // 8`` bounds.
    Without K, a pivot that owns several cells first runs its pivot test
    once over the box of all of them, with that box's own slack: a tuple
    it drops scores below the pivot at every row of the group, so the cell
    bounds see only the survivors (and the tuples of ``keep``).
    """
    n, d = X.shape
    if not V.shape[0]:
        return
    label = _direction_cells(V, n)
    order = np.argsort(label, kind="stable")
    sizes = np.bincount(label)
    sizes = sizes[sizes > 0]
    ends = np.cumsum(sizes)
    starts = ends - sizes
    by_cell = V[order]
    hi = np.maximum.reduceat(by_cell, starts)
    lo = np.minimum.reduceat(by_cell, starts)
    x_max = np.abs(X).max(axis=0)

    def box_slack(hi, lo):
        reach = np.maximum(np.abs(hi), np.abs(lo)) @ x_max
        return 4 * _gamma(2 * d + 4) * reach + 8 * d * np.finfo(float).smallest_subnormal

    slack = box_slack(hi, lo)
    upper = np.hstack([hi, -lo])

    by_attr = np.ascontiguousarray(X.T)

    def signed_T(A_T):
        # the positive and negative parts of a d x n matrix as one 2d x n
        # array, with no temporary of its size
        out = np.empty((2 * d, A_T.shape[1]))
        np.maximum(A_T, 0.0, out=out[:d])
        np.minimum(A_T, 0.0, out=out[d:])
        np.subtract(0.0, out[d:], out=out[d:])
        return out

    def rows_of(cells):
        return np.concatenate([order[starts[i]:ends[i]] for i in cells])

    if K is not None:
        lower, X_T = np.hstack([lo, -hi]), signed_T(by_attr)
    pivots = np.full(sizes.size, -1) if pick is None else _cell_pivots(order, sizes, pick)
    by_pivot = np.argsort(pivots, kind="stable")
    step = max(1, _BLOCK_CELLS // 8 // n)
    every = np.arange(n)
    for cells in np.split(by_pivot, np.flatnonzero(np.diff(pivots[by_pivot])) + 1):
        p, live = pivots[cells[0]], every
        diff_T = None if p < 0 else signed_T(by_attr - by_attr[:, p, None])
        if diff_T is not None and K is None and cells.size > 1:
            # the group's box holds every row of its cells
            g_hi, g_lo = hi[cells].max(axis=0), lo[cells].min(axis=0)
            live = np.flatnonzero(np.hstack([g_hi, -g_lo]) @ diff_T >= -box_slack(g_hi, g_lo))
            if keep is not None:
                live = np.union1d(live, keep)
            diff_T = diff_T[:, live]
        kept = None if keep is None else np.searchsorted(live, keep)
        for at in range(0, cells.size, step):
            c = cells[at:at + step]
            ok = np.ones((c.size, live.size), dtype=bool)
            if diff_T is not None:
                ok &= upper[c] @ diff_T >= -slack[c, None]
            if K is not None:
                # the floor is bounded over the pivot test's survivors only
                cols = np.flatnonzero(ok.any(axis=0))
                if cols.size >= K:
                    X_live = X_T[:, cols]
                    low = lower[c] @ X_live
                    low.partition(cols.size - K, axis=1)
                    floor = low[:, cols.size - K] - slack[c]
                    ok[:, cols] &= upper[c] @ X_live >= floor[:, None]
            if kept is not None:
                ok[:, kept] = True
            # a block holds at most _CELL_KEYS keys and, with K, at most
            # twice the keys of its cells keyed alone
            alone = sizes[c] * (_CELL_KEYS if K is None else np.count_nonzero(ok, axis=1))
            first, union, count, own = 0, ok[0], sizes[c[0]], alone[0]
            for j in range(1, c.size):
                joined = union | ok[j]
                keys = (count + sizes[c[j]]) * np.count_nonzero(joined)
                if keys <= min(_CELL_KEYS, 2 * (own + alone[j])):
                    union, count, own = joined, count + sizes[c[j]], own + alone[j]
                    continue
                yield rows_of(c[first:j]), live[np.flatnonzero(union)]
                first, union, count, own = j, ok[j], sizes[c[j]], alone[j]
            yield rows_of(c[first:]), live[np.flatnonzero(union)]


def _candidate_blocks(D: Dataset, V: np.ndarray, rows, pick, K=None):
    """Yield ``(ids, cand, keys)``: utility rows ``ids`` of V, the sorted
    0-based tuples ``cand`` that ``_cell_candidates`` keeps for their block
    of direction cells, and their BLAS keys ``V[ids] @ X[cand].T``.

    ``rows``, ``pick`` and K go to ``_cell_candidates`` as its stop set,
    each row's best stop tuple and its floor.  Against a set ``rows`` with
    ``pick`` each row's best member, a tuple a row's cell drops scores
    strictly below the cell's pivot member, so below the set's best, at
    that row, canonically and by key, whether or not another cell of the
    block keeps it; the rows of the set are always kept.

    A block of keys is cut by ``_score_blocks`` at ``_BLOCK_CELLS`` cells
    (one row when a row alone exceeds it).  Without K a row is its |cand|
    keys.  With K it is |cand| + 3 min(K, |cand|) cells: a caller that
    selects the top K packs and partitions a row's keys in place (8 bytes
    per key) and then holds at most five K-wide arrays (40K bytes: the
    sorted top, its keys, their gaps, the positions and masks), so a block's peak
    stays below 16 * ``_BLOCK_CELLS`` bytes for every K and the memory of a
    solve does not depend on how deep its thresholds go.
    """
    X = D.values
    for ids, cand in _cell_candidates(V, X, rows, pick, K):
        XcT = X[cand].T
        width = cand.size if K is None else cand.size + 3 * min(K, cand.size)
        for sl, keys in _score_blocks(lambda sl: V[ids[sl]] @ XcT, ids.size, width):
            yield ids[sl], cand, keys


def min_ranks_for_vectors(D: Dataset, vectors: np.ndarray, S: Iterable[int]) -> np.ndarray:
    """Rank-regret of the set S for every utility row of ``vectors``.

    Ranks follow the canonical score.  Keys farther than ``_key_slack``
    above the set's best canonical score outrank it; only keys within
    that slack of it are re-scored canonically and ranked under the index
    tie rule.  A tuple that outranks S at a row scores at least every
    member there, so tuples that score strictly below a direction cell's
    pivot member at all of its rows are never keyed there
    (``_candidate_blocks`` over the cell bounds of ``_cell_candidates``,
    which the HD order prefix shares).  Cells that share a pivot are keyed
    in blocks against the union of their candidates; a tuple keyed only
    for another cell of the block scores below the pivot, so it never
    counts.  Peak working memory is O(``_BLOCK_CELLS``) keys plus
    the set's N x |S| canonical scores and the output.
    """
    rows = _set_rows(S, D.n)
    V = np.atleast_2d(np.asarray(vectors, dtype=float))
    best, pick = _set_best(D, V, rows)
    slack = _key_slack(V, D.values)
    out = np.empty(V.shape[0], dtype=np.int64)
    for ids, cand, keys in _candidate_blocks(D, V, rows, pick):
        b, w = best[ids, None], slack[ids, None]
        above = np.count_nonzero(keys > b + w, axis=1)
        out[ids] = 1 + above
        # the set's own best member is always within the slack of its
        # score; rows with any other key there are re-ranked canonically
        some = np.flatnonzero(np.count_nonzero(keys >= b - w, axis=1) - above > 1)
        if some.size:
            sub = keys[some]
            i, j = np.nonzero((sub >= b[some] - w[some]) & (sub <= b[some] + w[some]))
            at, t = ids[some[i]], cand[j]
            c = _canonical_at(V, D.values, at, t)
            beats = (c > best[at]) | ((c == best[at]) & (t < pick[at]))
            out[ids[some]] += np.bincount(i[beats], minlength=some.size)
    return out
