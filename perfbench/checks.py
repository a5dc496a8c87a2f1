"""Output checks applied to every operation of a benchmark run.

Each check takes one operation's output and returns a list of problems
(empty when the output is right).  The checks call the library only for
reference values that do not come from the code path under test: the
2D worst rank is recomputed here, independently of the sweep.
"""

from __future__ import annotations

import numpy as np

import rankregret as rr

# Sampled quality estimate of every returned set: sample count and seed
# are fixed by the benchmark, independent of the solver's discretization.
EST_SAMPLES = 20_000
EST_SEED = 20_211_116


def worst_rank_2d(values: np.ndarray, S, interval: tuple[float, float],
                  max_cells: int = 1 << 21) -> int:
    """Exact worst-case rank of the set S over the x-interval, for d = 2.

    Same definition as ``solver2d.exact_chain_rank`` (ranks at every
    crossing of a member's dual line with any line, at the endpoints and
    at the midpoints between them, ties to the lower index), but each
    block of evaluation points is reduced to counts at once, so memory
    stays at ``max_cells`` scores whatever the number of points.
    """
    n = values.shape[0]
    intercept = values[:, 1]
    slope = values[:, 0] - values[:, 1]
    rows = np.unique(np.asarray(list(S), dtype=np.int64)) - 1
    lo, hi = interval
    parts = [np.array([lo, hi], dtype=float)]
    with np.errstate(divide="ignore", invalid="ignore"):
        for r in rows:
            cand = (intercept - intercept[r]) / (slope[r] - slope)
            cand = cand[np.isfinite(cand)]
            parts.append(cand[(cand >= lo) & (cand <= hi)])
    pts = np.unique(np.concatenate(parts))
    xs = np.concatenate([pts, (pts[:-1] + pts[1:]) / 2.0])
    col = np.arange(n)[:, None]
    block = max(1, max_cells // n)
    worst = 0
    for start in range(0, xs.size, block):
        x = xs[start:start + block]
        Y = intercept[:, None] + slope[:, None] * x[None, :]
        sub = Y[rows]
        best = sub.max(axis=0)
        pick = rows[np.argmax(sub, axis=0)]
        above = (Y > best).sum(axis=0)
        tied_lower = ((Y == best) & (col < pick)).sum(axis=0)
        worst = max(worst, int((above + tied_lower).max()) + 1)
    return worst


def _index_problems(result, n: int) -> list[str]:
    idx = result.selected_indices
    if not idx:
        return ["empty set returned"]
    if len(set(idx)) != len(idx) or min(idx) < 1 or max(idx) > n:
        return [f"invalid tuple indices {idx}"]
    return []


def _rebuilt_discrete_regret(result, D, space) -> int:
    p = result.solver_params
    disc = rr.build_discretization(D.d, p["gamma"], p["m"], p["seed"], space)
    return rr.discrete_rank_regret(result.selected_indices, D, disc)


def estimate(S, D, space) -> int:
    """Sampled worst rank of S with the benchmark's fixed sample and seed."""
    return rr.estimate_rank_regret(S, D, EST_SAMPLES, EST_SEED, space).estimated_rank_regret


def check_rrm_2d(result, D, r: int, interval) -> list[str]:
    problems = _index_problems(result, D.n)
    if problems:
        return problems
    if result.size > r:
        problems.append(f"size {result.size} exceeds budget {r}")
    exact = worst_rank_2d(D.values, result.selected_indices, interval)
    if exact != result.rank_regret:
        problems.append(f"reported rank-regret {result.rank_regret}, exact {exact}")
    return problems


def check_rrm_hd(result, D, r: int, space) -> list[str]:
    problems = _index_problems(result, D.n)
    if problems:
        return problems
    if result.size > r:
        problems.append(f"size {result.size} exceeds budget {r}")
    discrete = _rebuilt_discrete_regret(result, D, space)
    if discrete > result.rank_regret:
        problems.append(f"discrete rank-regret {discrete} exceeds reported {result.rank_regret}")
    return problems


def check_rrr_2d(result, D, k: int, interval) -> list[str]:
    problems = _index_problems(result, D.n)
    if problems:
        return problems
    exact = worst_rank_2d(D.values, result.selected_indices, interval)
    if exact > k:
        problems.append(f"exact worst rank {exact} misses threshold {k}")
    if exact != result.rank_regret:
        problems.append(f"reported rank-regret {result.rank_regret}, exact {exact}")
    return problems


def check_rrr_hd(result, D, k: int, space) -> list[str]:
    problems = _index_problems(result, D.n)
    if problems:
        return problems
    if result.rank_regret > k:
        problems.append(f"reported rank-regret {result.rank_regret} misses threshold {k}")
    discrete = _rebuilt_discrete_regret(result, D, space)
    if discrete > k:
        problems.append(f"discrete rank-regret {discrete} misses threshold {k}")
    return problems


def check_eval(report, ratio: float, S, D, samples: int, seed: int, ks,
               subsample: int = 128) -> list[str]:
    """Ranges and consistency of one evaluator pair, plus agreement with
    ``rank_regret_of_set`` and a direct score ratio on a subsample of the
    same sampled directions."""
    problems = []
    est = report.estimated_rank_regret
    if not 1 <= est <= D.n:
        problems.append(f"estimate {est} outside 1..{D.n}")
    rat = [report.rat_k.get(int(k), -1.0) for k in sorted(ks)]
    if any(not 0.0 <= v <= 1.0 for v in rat) or any(a > b for a, b in zip(rat, rat[1:])):
        problems.append(f"rat_k {report.rat_k} not monotone fractions")
    for k, v in zip(sorted(ks), rat):
        if (v == 1.0) != (k >= est):
            problems.append(f"rat_{k} = {v} inconsistent with estimate {est}")
    if not 0.0 <= ratio <= 1.0:
        problems.append(f"max regret ratio {ratio} outside [0, 1]")
    V = rr.sample_sphere(D.d, samples, seed)
    pick = np.random.default_rng(seed).choice(samples, size=min(subsample, samples), replace=False)
    rows = np.asarray(sorted(S)) - 1
    for u in V[pick]:
        rank = rr.rank_regret_of_set(u, S, D)
        if rank > est:
            problems.append(f"sampled direction has rank {rank} above estimate {est}")
            break
        sc = D.values @ u
        if (sc.max() - sc[rows].max()) / sc.max() > ratio + 1e-12:
            problems.append(f"sampled direction has regret ratio above {ratio}")
            break
    return problems
