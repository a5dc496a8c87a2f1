"""The benchmark's workloads: inputs made from the seed, one operation per
instance, and the check and quality figures of each operation's output.

``build(seed, scale, out_dir)`` is the set-up: it generates every
dataset (and writes and reloads a rounded CSV) and returns the fixed list
of instances that one pass runs in order.  ``scale`` is "full" for the
measured passes, "reference" for the quality pass and "smoke" for the
benchmark's own tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

import rankregret as rr

import calibrate
import checks

FULL_INTERVAL = (0.0, 1.0)
WEAK_INTERVAL = (0.5, 1.0)  # u1 >= u2 maps to x = u1 / (u1 + u2) in [0.5, 1]

# n of the 2D solves, the 2D RRR dataset, the HD solves, the HD RRR
# dataset and the evaluators; evaluator samples; HD sample size (None is
# the solver's default m).
SIZES = {
    "full": {"n2": 1000, "n2_rrr": 500, "nhd": 1000, "nhd_rrr": 1000, "n_eval": 20_000,
             "eval_samples": 20_000, "m": None},
    "reference": {"n2": 300, "n2_rrr": 200, "nhd": 300, "nhd_rrr": 300, "n_eval": 2000,
                  "eval_samples": 20_000, "m": None},
    "smoke": {"n2": 60, "n2_rrr": 60, "nhd": 120, "nhd_rrr": 120, "n_eval": 400,
              "eval_samples": 500, "m": 400},
}


@dataclass
class Instance:
    """One operation of a pass.

    ``run`` performs the timed library calls; ``check`` maps their
    output to (problems, quality) where quality holds the rank-regret
    the library reported, the benchmark's sampled estimate and the set
    size; ``signature`` identifies an output so an identical repeat is
    not checked twice.
    """

    key: str
    run: Callable[[], object]
    check: Callable[[object], tuple[list[str], dict]]
    signature: Callable[[object], tuple]


def sub_seed(seed: int, *path: int) -> int:
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0])


def _result_signature(result) -> tuple:
    return (result.selected_indices, result.rank_regret)


def _quality(result, est: int) -> dict:
    return {"rank_regret": result.rank_regret, "est_rank_regret": est, "size": result.size}


def _rrm2d(key, D, r, space, interval) -> Instance:
    def run():
        return rr.solve_rrm_2d(D, r, space)

    def check(result):
        problems = checks.check_rrm_2d(result, D, r, interval)
        return problems, _quality(result, checks.estimate(result.selected_indices, D, space))

    return Instance(key, run, check, _result_signature)


def _rrr2d(key, D, k) -> Instance:
    def run():
        return rr.solve_rrr_2d(D, k)

    def check(result):
        problems = checks.check_rrr_2d(result, D, k, FULL_INTERVAL)
        return problems, _quality(result, checks.estimate(result.selected_indices, D, None))

    return Instance(key, run, check, _result_signature)


def build_exact2d(seed: int, scale: str, out_dir) -> list[Instance]:
    """Exact 2D solves: fixed budgets on independent and anti-correlated
    draws over the full space and a weak-ranking cone, the same draws
    rounded to two decimals and read back through ``load_csv``, and
    inverse queries at two thresholds on one shared dataset."""
    size = SIZES[scale]
    n = size["n2"]
    weak = rr.RestrictedSpace.weak_ranking(2)
    cells = [
        ("independent", None, 1),
        ("independent", weak, 5),
        ("anti-correlated", None, 10),
        ("anti-correlated", weak, 1),
    ]
    instances = []
    for i, (family, space, r) in enumerate(cells):
        D = rr.generate(rr.GenSpec(family, n, 2, seed=sub_seed(seed, 1, i)))
        interval = FULL_INTERVAL if space is None else WEAK_INTERVAL
        tag = "full" if space is None else "weak"
        instances.append(_rrm2d(f"rrm2d-{family}-{tag}-r{r}", D, r, space, interval))
        if i == 0:
            path = out_dir / f"rounded-{scale}-{seed}.csv"
            rr.save_csv(rr.Dataset(np.round(D.values, 2)), path)
            rounded = rr.load_csv(path)
    instances.append(_rrm2d("rrm2d-rounded-csv-full-r5", rounded, 5, None, FULL_INTERVAL))
    n_rrr = size["n2_rrr"]
    D = rr.generate(rr.GenSpec("independent", n_rrr, 2, seed=sub_seed(seed, 1, 9)))
    for k in (max(n_rrr // 100, 1), n_rrr // 20):
        instances.append(_rrr2d(f"rrr2d-k{k}", D, k))
    return instances


def _rrmhd(key, D, params, space) -> Instance:
    def run():
        result = rr.solve_rrm_hd(D, params, space)
        report = rr.estimate_rank_regret(result.selected_indices, D, checks.EST_SAMPLES,
                                         checks.EST_SEED, space)
        return result, report

    def check(out):
        result, report = out
        problems = checks.check_rrm_hd(result, D, params.r, space)
        return problems, _quality(result, report.estimated_rank_regret)

    return Instance(key, run, check,
                    lambda o: _result_signature(o[0]) + (o[1].estimated_rank_regret,))


def _rrrhd(key, D, k, params) -> Instance:
    def run():
        return rr.solve_rrr_hd(D, k, params)

    def check(result):
        problems = checks.check_rrr_hd(result, D, k, None)
        return problems, _quality(result, checks.estimate(result.selected_indices, D, None))

    return Instance(key, run, check, _result_signature)


def _evaluators(key, D, S, samples, seed, ks) -> Instance:
    def run():
        report = rr.estimate_rank_regret(S, D, samples, seed, None, ks)
        return report, rr.max_regret_ratio(S, D, samples, seed)

    def check(out):
        report, ratio = out
        problems = checks.check_eval(report, ratio, S, D, samples, seed, ks)
        est = report.estimated_rank_regret
        return problems, {"rank_regret": est, "est_rank_regret": est, "size": len(S)}

    return Instance(key, run, check,
                    lambda o: (o[0].estimated_rank_regret, tuple(sorted(o[0].rat_k.items())), o[1]))


def build_hd_eval(seed: int, scale: str, out_dir) -> list[Instance]:
    """HD solves with the default sample size, each followed by a sampled
    estimate of the returned set; inverse HD queries at three thresholds on
    one shared dataset; and the evaluators on given sets (the basis plus
    the top tuple of a few random directions) of a large dataset."""
    size = SIZES[scale]
    n = size["nhd"]
    cells = [
        (3, "independent", None, 4),
        (4, "anti-correlated", None, 6),
        (4, "correlated", rr.RestrictedSpace.weak_ranking(4, 1), 5),
        (5, "independent", None, 6),
    ]
    instances = []
    for i, (d, family, space, r) in enumerate(cells):
        D = rr.generate(rr.GenSpec(family, n, d, seed=sub_seed(seed, 2, i)))
        params = rr.HdParams(r=r, seed=sub_seed(seed, 2, i, 1), m=size["m"])
        tag = "full" if space is None else "cone"
        instances.append(_rrmhd(f"rrmhd-d{d}-{family}-{tag}-r{r}", D, params, space))
    n_rrr = size["nhd_rrr"]
    D = rr.generate(rr.GenSpec("anti-correlated", n_rrr, 3, seed=sub_seed(seed, 3, 1)))
    params = rr.HdParams(r=3, seed=sub_seed(seed, 3, 2), m=size["m"])
    for k in (max(n_rrr // 100, 1), n_rrr // 30, n_rrr // 10):
        instances.append(_rrrhd(f"rrrhd-k{k}", D, k, params))
    n_eval, samples = size["n_eval"], size["eval_samples"]
    for i, (d, family) in enumerate(((3, "independent"), (4, "anti-correlated"))):
        D = rr.generate(rr.GenSpec(family, n_eval, d, seed=sub_seed(seed, 4, i)))
        dirs = rr.sample_sphere(d, 4, sub_seed(seed, 4, i, 1))
        S = tuple(sorted(set(D.basis_indices) | {rr.top_k(u, 1, D)[0] for u in dirs}))
        instances.append(_evaluators(f"eval-d{d}-{family}", D, S, samples,
                                     sub_seed(seed, 4, i, 2), (1, 10, 100)))
    return instances


# name -> (set-up, calibration kernel of the same character as the operations)
WORKLOADS = {
    "exact2d": (build_exact2d, calibrate.sweep),
    "hd_eval": (build_hd_eval, calibrate.arrays),
}
