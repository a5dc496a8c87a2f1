"""Monte-Carlo quality metrics for representative sets.

The rank-regret estimate is the worst sampled rank and can never exceed
the true worst case; rat_k is the sampled fraction of directions whose
top-k intersects the set.  The regret-ratio metric of score-based
selection is included for contrast only.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .core import (Dataset, RestrictedSpace, _candidate_blocks, _set_best, _set_rows,
                   min_ranks_for_vectors)
from .solverhd import sample_sphere


@dataclass(frozen=True, eq=False)
class EvalReport:
    estimated_rank_regret: int
    rat_k: dict[int, float] = field(default_factory=dict)
    samples: int = 0
    seed: int = 0


def estimate_rank_regret(S, D: Dataset, samples: int, seed: int,
                         space: RestrictedSpace | None = None,
                         ks=()) -> EvalReport:
    """Sampled worst-case rank-regret of S, plus rat_k for requested thresholds.

    Peak working memory is O(``_BLOCK_CELLS``) scores plus the samples.
    """
    if samples < 1:
        raise ValueError("samples must be at least 1")
    V = sample_sphere(D.d, samples, seed, space)
    min_ranks = min_ranks_for_vectors(D, V, S)
    rat = {int(k): float(np.mean(min_ranks <= int(k))) for k in ks}
    return EvalReport(
        estimated_rank_regret=int(min_ranks.max()),
        rat_k=rat,
        samples=samples,
        seed=seed,
    )


def max_regret_ratio(S, D: Dataset, samples: int, seed: int,
                     space: RestrictedSpace | None = None) -> float:
    """Sampled maximum of (best score in D minus best score in S) / best score.

    Directions where the dataset's best score is not positive carry no
    ratio and are skipped with a warning.  Scores are BLAS keys over the
    blocks of direction cells of ``core._candidate_blocks``.  A tuple a
    row's cell drops has a key below that cell's pivot member's, so the
    tuple with the top key is always a candidate, and a tuple keyed only
    for another cell of the block never holds the top key.  Peak working
    memory is O(``_BLOCK_CELLS``) keys plus the samples.
    """
    if samples < 1:
        raise ValueError("samples must be at least 1")
    rows = _set_rows(S, D.n)
    V = sample_sphere(D.d, samples, seed, space)
    _, pick = _set_best(D, V, rows)
    worst = 0.0
    skipped = 0
    for _, cand, keys in _candidate_blocks(D, V, rows, pick):
        top = keys.max(axis=1)
        ok = top > 0
        skipped += int((~ok).sum())
        if ok.any():
            best_s = keys[np.ix_(ok, np.searchsorted(cand, rows))].max(axis=1)
            ratios = (top[ok] - best_s) / top[ok]
            worst = max(worst, float(ratios.max()))
    if skipped:
        warnings.warn(
            f"{skipped} of {samples} sampled directions had no positive score "
            "and were skipped", RuntimeWarning,
        )
    return worst
