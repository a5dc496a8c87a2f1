"""Candidate-set reduction: skyline and restricted skyline.

On a table without score ties any subset can be replaced by a subset of
the (restricted) skyline without increasing its worst-case rank-regret,
so the solvers only ever search skyline tuples.  Under the index tie rule
that fails on tied tables, and the skyline can miss the optimum there: a
row that a higher-indexed row weakly dominates still ranks first where
the two tie.  Dominance with respect to a restricted space is decided at
the cone's extreme rays: the score difference of two tuples is linear in
u, so its sign over a polyhedral cone is determined by the rays alone.
For the top K the K-skyband (``skyband``) is the candidate set: a tuple
that K others outrank on every ray never reaches a top K anywhere in the
cone.
"""

from __future__ import annotations

import numpy as np

from .core import Dataset, RestrictedSpace


# rows per step of the sort-filter: rows kept before a chunk are
# compared with the whole chunk in one array operation
_CHUNK = 64


def _presort(M: np.ndarray) -> np.ndarray:
    """Rows in descending lexicographic order of their columns, index last."""
    n = M.shape[0]
    return np.lexsort((np.arange(n),) + tuple(-M[:, j] for j in reversed(range(M.shape[1]))))


def _sort_filter(M: np.ndarray, K: int, beats) -> np.ndarray:
    """Rows that fewer than K kept rows beat, visiting rows in descending
    lexicographic order of their columns, index last.

    ``beats(A, a_rows, B, b_rows)`` is the len(B) x len(A) boolean matrix
    of "row a beats row b".  Rows go through in chunks: the count of rows
    kept before a chunk is taken for the whole chunk at once, and only the
    rows it leaves under K are checked one by one against the rows the
    chunk has kept so far, so the result is that of the row-by-row loop.
    """
    M = np.asarray(M, dtype=float)
    n = M.shape[0]
    order = _presort(M)
    keep = np.zeros(n, dtype=bool)
    kept = np.empty_like(M)
    kept_row = np.empty(n, dtype=np.int64)
    count = 0
    for start in range(0, n, _CHUNK):
        chunk = order[start:start + _CHUNK]
        beaten = beats(kept[:count], kept_row[:count], M[chunk], chunk).sum(axis=1)
        first = count
        for i, before in zip(chunk[beaten < K], beaten[beaten < K]):
            inside = beats(kept[first:count], kept_row[first:count], M[i:i + 1], [i]).sum()
            if before + inside < K:
                keep[i] = True
                kept[count] = M[i]
                kept_row[count] = i
                count += 1
    return keep


def _covers(A, a_rows, B, b_rows) -> np.ndarray:
    return (A[None, :, :] >= B[:, None, :]).all(axis=2)


def _outranks(A, a_rows, B, b_rows) -> np.ndarray:
    ge = (A[None, :, :] >= B[:, None, :]).all(axis=2)
    gt = (A[None, :, :] > B[:, None, :]).all(axis=2)
    return ge & (gt | (a_rows[None, :] < np.asarray(b_rows)[:, None]))


def frontier_mask(M: np.ndarray) -> np.ndarray:
    """Rows not dominated in the componentwise order.

    A row dominates another when it is >= everywhere and > somewhere;
    rows that are exactly equal keep only the lowest index.  Sort-filter
    skyline: rows are visited in descending lexicographic order (index
    last), so every dominator and every lower-index duplicate of a row
    comes before it, and a row is kept iff no kept row is >= it on every
    column.  With two columns every earlier row is >= it on the first, so
    it is kept iff its second column beats all earlier ones strictly: one
    sort and a running maximum (Kung, Luccio & Preparata, 1975).
    """
    M = np.asarray(M, dtype=float)
    if M.shape[1] != 2:
        return _sort_filter(M, 1, _covers)
    order = _presort(M)
    second = M[order, 1]
    keep = np.zeros(M.shape[0], dtype=bool)
    keep[order[:1]] = True
    keep[order[1:]] = second[1:] > np.maximum.accumulate(second)[:-1]
    return keep


def skyband(M: np.ndarray, K: int) -> np.ndarray:
    """Rows that fewer than K other rows outrank: the K-skyband.

    Row a outranks row t when ``M[a] > M[t]`` on every column, or
    ``M[a] >= M[t]`` on every column and a has the lower index.  When
    the columns are scores at a cone's extreme rays, every score in the
    cone is a nonnegative combination of them, so a then ranks above t
    at every utility vector of the cone under the index tie rule, and a
    row that K rows outrank is never in a top K.  Pareto dominance would
    not do: a dominator that ties t on one ray ranks below t there when
    its index is higher, so the band is not a count of dominators.

    Outranking is transitive and the presort of ``frontier_mask`` visits
    every outranker of a row before the row, so a row that K rows
    outrank has K kept outrankers, and counting kept rows only is exact.
    A row of ``frontier_mask(M)`` has no outranker, so it lies inside
    every band.
    """
    n = np.shape(M)[0]
    if K >= n:
        return np.ones(n, dtype=bool)
    return _sort_filter(M, K, _outranks)


def skyline(D: Dataset) -> tuple[int, ...]:
    """Sorted 1-based indices of the tuples of D not Pareto-dominated by
    any other tuple."""
    return tuple((np.flatnonzero(frontier_mask(D.values)) + 1).tolist())


def restricted_skyline(D: Dataset, space: RestrictedSpace | None) -> tuple[int, ...]:
    """Sorted 1-based indices of the tuples not dominated with respect to
    every vector of the cone (None: the full space).

    Scores at the cone's extreme rays fully determine dominance over the
    cone, so the restricted skyline is the frontier of the n x (#rays)
    ray-score matrix.  The full space is the cone of the unit rays, whose
    ray scores are the attributes themselves, exactly.
    """
    rays = (space or RestrictedSpace()).extreme_rays(D.d)
    return tuple((np.flatnonzero(frontier_mask(D.values @ rays.T)) + 1).tolist())
