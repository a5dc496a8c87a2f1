"""Candidate-set reduction: skyline, restricted skyline, and basis.

Any subset of the dataset can be replaced by a subset of the (restricted)
skyline without increasing its worst-case rank-regret, so the solvers
only ever search skyline tuples.  Dominance with respect to a restricted
space is decided at the cone's extreme rays: the score difference of two
tuples is linear in u, so its sign over a polyhedral cone is determined
by the rays alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Dataset, RestrictedSpace


@dataclass(frozen=True)
class CandidateSet:
    indices: tuple[int, ...]
    kind: str  # "skyline" | "restricted-skyline" | "basis"

    def __post_init__(self) -> None:
        object.__setattr__(self, "indices", tuple(int(i) for i in self.indices))
        if self.kind not in ("skyline", "restricted-skyline", "basis"):
            raise ValueError(f"unknown candidate-set kind {self.kind!r}")

    def __len__(self) -> int:
        return len(self.indices)

    def __iter__(self):
        return iter(self.indices)


def frontier_mask(M: np.ndarray) -> np.ndarray:
    """Rows not dominated in the componentwise order.

    A row dominates another when it is >= everywhere and > somewhere;
    rows that are exactly equal keep only the lowest index.  Sort-filter
    skyline: rows are visited in descending lexicographic order (index
    last), so every dominator and every lower-index duplicate of a row
    comes before it, and a row is kept iff no kept row is >= it on every
    column.
    """
    M = np.asarray(M, dtype=float)
    n = M.shape[0]
    order = np.lexsort((np.arange(n),) + tuple(-M[:, j] for j in reversed(range(M.shape[1]))))
    keep = np.zeros(n, dtype=bool)
    kept = np.empty_like(M)
    count = 0
    for i in order:
        if not (kept[:count] >= M[i]).all(axis=1).any():
            keep[i] = True
            kept[count] = M[i]
            count += 1
    return keep


def skyline(D: Dataset) -> CandidateSet:
    """Tuples of D not Pareto-dominated by any other tuple."""
    mask = frontier_mask(D.values)
    return CandidateSet(tuple(np.flatnonzero(mask) + 1), "skyline")


def restricted_skyline(D: Dataset, space: RestrictedSpace | None) -> CandidateSet:
    """Tuples not dominated with respect to every vector of the cone.

    Scores at the cone's extreme rays fully determine dominance over the
    cone, so the restricted skyline is the frontier of the n x (#rays)
    ray-score matrix.  With the full space the rays are the coordinate
    axes and this reduces to the plain skyline.
    """
    if space is None or space.is_full:
        return CandidateSet(skyline(D).indices, "restricted-skyline")
    rays = space.extreme_rays(D.d)
    mask = frontier_mask(D.values @ rays.T)
    return CandidateSet(tuple(np.flatnonzero(mask) + 1), "restricted-skyline")


def basis(D: Dataset) -> CandidateSet:
    """One boundary tuple per attribute (value 1 after normalization)."""
    return CandidateSet(D.basis_indices, "basis")
