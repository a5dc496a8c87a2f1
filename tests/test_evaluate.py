import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rankregret as rr

from conftest import (block_budgets, cell_labels, hd_tables, kernel_layout, pivot_seeds,
                      random_dataset, random_pivots)


class TestEstimateRankRegret:
    def test_full_set(self, demo7):
        rep = rr.estimate_rank_regret(range(1, 8), demo7, 2_000, seed=1, ks=[1])
        assert rep.estimated_rank_regret == 1
        assert rep.rat_k[1] == 1.0

    def test_demo_singleton_matches_exact(self, demo7):
        rep = rr.estimate_rank_regret([3], demo7, 100_000, seed=2)
        assert rep.estimated_rank_regret == rr.exact_chain_rank([3], demo7) == 3

    def test_never_exceeds_exact_and_usually_equals(self):
        hits = 0
        trials = 20
        for seed in range(trials):
            D = random_dataset(25, 2, seed=90 + seed)
            S = list(np.random.default_rng(seed).choice(25, 3, replace=False) + 1)
            exact = rr.exact_chain_rank(S, D)
            est = rr.estimate_rank_regret(S, D, 100_000, seed=seed).estimated_rank_regret
            assert est <= exact
            hits += est == exact
        assert hits >= 0.95 * trials

    def test_rat_k_monotone_and_rat_n_one(self, demo7):
        rep = rr.estimate_rank_regret([5], demo7, 5_000, seed=3, ks=range(1, 8))
        vals = [rep.rat_k[k] for k in range(1, 8)]
        assert vals == sorted(vals)
        assert rep.rat_k[7] == 1.0

    def test_rat_k_unbiased_against_exact_area(self):
        D = random_dataset(15, 2, seed=95)
        S, k, m = [2, 9], 3, 2_000
        exact = rr.exact_rat_k_2d(S, D, k)
        draws = [rr.estimate_rank_regret(S, D, m, seed=s, ks=[k]).rat_k[k]
                 for s in range(50)]
        mean = float(np.mean(draws))
        se = float(np.std(draws, ddof=1) / np.sqrt(len(draws)))
        assert abs(mean - exact) <= 3 * max(se, 1e-6)

    def test_rat_boundary_around_exact_value(self):
        # rat is 1 at the exact worst rank and below 1 just under it
        for seed in range(5):
            D = random_dataset(20, 2, seed=120 + seed)
            S = list(np.random.default_rng(seed).choice(20, 2, replace=False) + 1)
            exact = rr.exact_chain_rank(S, D)
            rep = rr.estimate_rank_regret(S, D, 100_000, seed=seed,
                                          ks=[exact - 1, exact] if exact > 1 else [exact])
            assert rep.rat_k[exact] == 1.0
            if exact > 1:
                assert rep.rat_k[exact - 1] < 1.0

    def test_deterministic(self, demo7):
        a = rr.estimate_rank_regret([2, 4], demo7, 10_000, seed=7, ks=[2])
        b = rr.estimate_rank_regret([2, 4], demo7, 10_000, seed=7, ks=[2])
        assert a == b or (a.estimated_rank_regret, a.rat_k) == (b.estimated_rank_regret, b.rat_k)

    def test_restricted_space(self, demo7):
        space = rr.RestrictedSpace(((1.0, -1.0),))
        rep = rr.estimate_rank_regret([4], demo7, 20_000, seed=8, space=space)
        exact = rr.exact_chain_rank([4], demo7, rr.render_scene(space))
        assert rep.estimated_rank_regret <= exact

    def test_validation(self, demo7):
        with pytest.raises(ValueError):
            rr.estimate_rank_regret([], demo7, 100, seed=0)
        with pytest.raises(ValueError):
            rr.estimate_rank_regret([1], demo7, 0, seed=0)


class TestMaxRegretRatio:
    def test_demo_values(self, demo7):
        assert rr.max_regret_ratio([4], demo7, 100_000, seed=4) == pytest.approx(0.40, abs=0.01)
        assert rr.max_regret_ratio([3], demo7, 100_000, seed=4) == pytest.approx(0.43, abs=0.01)

    def test_full_set_zero(self, demo7):
        assert rr.max_regret_ratio(range(1, 8), demo7, 5_000, seed=5) == 0.0

    def test_within_unit_interval(self):
        D = random_dataset(30, 3, seed=130)
        val = rr.max_regret_ratio([1], D, 5_000, seed=6)
        assert 0.0 <= val <= 1.0

    def test_shift_contrast_narrative(self, demo7):
        # after shifting the second attribute, score-based regret prefers
        # the tuple that rank-regret ranks worst
        shifted = rr.shift(demo7, [0.0, 4.0])
        ratio_t7 = rr.max_regret_ratio([7], shifted, 100_000, seed=9)
        ratio_t3 = rr.max_regret_ratio([3], shifted, 100_000, seed=9)
        assert ratio_t7 < ratio_t3
        assert rr.exact_chain_rank([3], shifted) < rr.exact_chain_rank([7], shifted)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), cells=block_budgets)
def test_max_regret_ratio_matches_full_scores(data, cells):
    # the top-scoring tuple is always a candidate, whichever member bounds
    # each cell, so pruning leaves the ratio of a full scoring pass, up to
    # the rounding of its keys
    d = data.draw(st.integers(2, 5))
    table = data.draw(hd_tables(d).filter(lambda t: t.max() > 0))
    D = rr.Dataset(table, normalized=False)
    S = data.draw(st.sets(st.integers(1, D.n), min_size=1, max_size=3))
    rows = np.asarray(sorted(S)) - 1
    samples, seed = data.draw(st.integers(1, 60)), data.draw(st.integers(0, 99))
    with kernel_layout(cells, data.draw(cell_labels(samples))), \
            random_pivots(rows, data.draw(pivot_seeds)):
        got = rr.max_regret_ratio(S, D, samples, seed)
    sc = rr.sample_sphere(d, samples, seed) @ D.values.T
    top = sc.max(axis=1)
    want = ((top - sc[:, rows].max(axis=1)) / top).max()
    assert abs(got - want) <= 1e-12
