import itertools

import numpy as np
import pytest

import rankregret as rr

from conftest import dual_order, random_dataset, traced_peak


class TestArcDataset:
    def test_endpoints(self):
        D = rr.arc_dataset(2)
        assert np.allclose(D.values, [[1, 0], [0, 1]], atol=1e-12)

    def test_midpoint_angle(self):
        D = rr.arc_dataset(5)
        assert np.allclose(D.record(3), [np.cos(np.pi / 4), np.sin(np.pi / 4)])

    def test_all_tuples_are_skyline_and_top1_somewhere(self):
        D = rr.arc_dataset(40)
        assert len(rr.skyline(D)) == 40
        xs = np.linspace(0, 1, 20001)
        top = set(dual_order(D.values, xs)[0].tolist())
        assert len(top) == 40

    def test_requires_two(self):
        with pytest.raises(ValueError):
            rr.arc_dataset(1)


class TestExhaustiveRrm:
    def test_demo_r1(self, demo7):
        rep = rr.exhaustive_rrm(demo7, 1)
        assert rep.optimal_value == 3
        assert rep.optimal_sets == ((3,),)
        assert rep.method == "singleton-scan"

    def test_budget_covers_skyline(self, demo7):
        rep = rr.exhaustive_rrm(demo7, 5)
        assert rep.optimal_value == 1

    def test_skyline_vs_all_enumeration(self):
        for seed in range(4):
            D = random_dataset(20, 2, seed=50 + seed)
            sky = rr.exhaustive_rrm(D, 3, mode="skyline")
            full = rr.exhaustive_rrm(D, 3, mode="all")
            assert sky.optimal_value == full.optimal_value

    def test_reported_sets_attain_value(self):
        D = random_dataset(18, 2, seed=60)
        rep = rr.exhaustive_rrm(D, 2)
        assert rep.optimal_sets
        for S in rep.optimal_sets:
            assert rr.exact_chain_rank(S, D) == rep.optimal_value

    def test_monotone_in_budget(self):
        D = random_dataset(20, 2, seed=61)
        values = [rr.exhaustive_rrm(D, r).optimal_value for r in (1, 2, 3, 4)]
        assert values == sorted(values, reverse=True)

    def test_sampled_mode_hd(self):
        D = random_dataset(12, 3, seed=62)
        rep = rr.exhaustive_rrm(D, 2, samples=5_000, seed=3)
        assert rep.method == "exhaustive-sampled"
        assert 1 <= rep.optimal_value <= 12
        for S in rep.optimal_sets:
            est = rr.estimate_rank_regret(S, D, 5_000, 3).estimated_rank_regret
            assert est == rep.optimal_value

    def test_guard(self):
        D = rr.arc_dataset(300)
        with pytest.raises(rr.GuardExceededError):
            rr.exhaustive_rrm(D, 5)

    def test_sets_cap(self):
        D = random_dataset(15, 2, seed=63)
        rep = rr.exhaustive_rrm(D, 3, sets_cap=2)
        assert len(rep.optimal_sets) <= 2

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("mode", ["skyline", "all"])
    def test_matches_unpruned_enumeration(self, d, mode):
        # quarter-step rows tie many subsets at the optimum; here every
        # subset is evaluated outright, in the oracle's enumeration order
        many = False
        for seed in range(3):
            D = rr.generate(rr.GenSpec("independent", 12, d, seed=70 + seed))
            D = rr.Dataset(np.round(D.values * 4) / 4, normalized=False)
            cand = range(1, D.n + 1) if mode == "all" else rr.restricted_skyline(D, None)
            subsets = [S for size in (1, 2) for S in itertools.combinations(cand, size)]
            values = [rr.exact_chain_rank(S, D) if d == 2 else
                      rr.estimate_rank_regret(S, D, 2_000, seed).estimated_rank_regret
                      for S in subsets]
            optimal = [S for S, v in zip(subsets, values) if v == min(values)]
            many |= len(optimal) > 1
            for cap in (1, 32):
                rep = rr.exhaustive_rrm(D, 2, mode=mode, sets_cap=cap, samples=2_000, seed=seed)
                assert rep.optimal_value == min(values)
                assert list(rep.optimal_sets) == optimal[:cap]
                assert rep.work_bound == len(subsets)
        assert many


class TestArcLowerBound:
    def test_n100_r3_optimum(self):
        rep = rr.exhaustive_rrm(rr.arc_dataset(100), 3)
        assert rep.optimal_value >= 12

    def test_doubling_n_doubles_optimum(self):
        v100 = rr.exhaustive_rrm(rr.arc_dataset(100), 3).optimal_value
        v200 = rr.exhaustive_rrm(rr.arc_dataset(200), 3).optimal_value
        assert 1.6 <= v200 / v100 <= 2.4


class TestDenseGridAgreement:
    @pytest.mark.parametrize("seed", range(5))
    def test_exact_equals_dense_grid(self, seed):
        D = random_dataset(15, 2, seed=70 + seed)
        S = list(np.random.default_rng(seed).choice(15, 3, replace=False) + 1)
        assert rr.exact_chain_rank(S, D) == rr.dense_grid_chain_rank(S, D)

    def test_demo_singletons(self, demo7):
        # the dense grid agrees with exact_chain_rank's column for the
        # worked example (TestExactChainRank.test_demo_singletons)
        got = [rr.dense_grid_chain_rank([i], demo7) for i in range(1, 8)]
        assert got == [7, 4, 3, 4, 7, 7, 7]

    def test_requires_2d(self):
        with pytest.raises(ValueError):
            rr.dense_grid_chain_rank([1, 2], random_dataset(30, 3, seed=71))

    @pytest.mark.parametrize("points", [0, -3])
    def test_requires_a_point(self, points):
        with pytest.raises(ValueError):
            rr.dense_grid_chain_rank([1, 2], random_dataset(30, 2, seed=71), points=points)

    def test_peak_memory_is_bounded(self):
        # 20k grid points over 2000 lines: a full rank matrix would hold
        # 40M cells; score blocks keep the peak far lower
        D = rr.generate(rr.GenSpec("independent", 2000, 2, seed=4))
        peak = traced_peak(lambda: rr.dense_grid_chain_rank(D.basis_indices, D, points=20_000))
        assert peak < 96 * 2**20


class TestSampledLowerBound:
    def test_refinement_is_monotone(self):
        D = random_dataset(25, 3, seed=80)
        S = [1, 5, 9]
        V = rr.sample_sphere(3, 8_000, seed=81)
        ranks = rr.min_ranks_for_vectors(D, V, S)
        estimates = [int(ranks[:m].max()) for m in (500, 1000, 2000, 4000, 8000)]
        assert estimates == sorted(estimates)

    def test_never_exceeds_exact_2d(self):
        D = random_dataset(20, 2, seed=82)
        S = [2, 7]
        exact = rr.exact_chain_rank(S, D)
        assert rr.estimate_rank_regret(S, D, 20_000, 83).estimated_rank_regret <= exact


class TestExactRatK2d:
    def test_covered_iff_rat_is_one(self, demo7):
        # worst-case rank <= k exactly when the covered fraction is 1
        for S in ([3], [2, 4], [1, 4, 7]):
            exact = rr.exact_chain_rank(S, demo7)
            assert rr.exact_rat_k_2d(S, demo7, exact) == 1.0
            assert rr.exact_rat_k_2d(S, demo7, exact - 1) < 1.0 if exact > 1 else True

    def test_one_ray_cone_is_the_rank_at_its_ray(self, demo7):
        # u1 = u2 leaves the single direction x = 0.5, where tuples 1 and 7
        # tie; the fraction is 1 or 0 as the exact rank there reaches k
        ray = rr.RestrictedSpace(((1, -1), (-1, 1)))
        for S in ([1], [3], [6], [7], [2, 6]):
            at = rr.exact_chain_rank(S, demo7, (0.5, 0.5))
            for k in range(1, demo7.n + 1):
                assert rr.exact_rat_k_2d(S, demo7, k, ray) == float(at <= k)

    def test_matches_sampled_fraction(self, demo7):
        rep = rr.estimate_rank_regret([2, 4], demo7, 200_000, seed=84, ks=[1, 2])
        for k in (1, 2):
            assert abs(rr.exact_rat_k_2d([2, 4], demo7, k) - rep.rat_k[k]) < 0.01


class TestMinCoverOracle:
    def test_known_instance(self):
        universe = np.arange(5)
        sets = {1: np.array([0, 1]), 2: np.array([2, 3]), 3: np.array([4]),
                4: np.array([0, 1, 2, 3, 4])}
        assert rr.exhaustive_min_cover_size(universe, sets) == 1

    def test_needs_two(self):
        universe = np.arange(4)
        sets = {1: np.array([0, 1]), 2: np.array([2, 3]), 3: np.array([1, 2])}
        assert rr.exhaustive_min_cover_size(universe, sets) == 2

    def test_empty_universe_needs_no_set(self):
        assert rr.exhaustive_min_cover_size(np.arange(0), {1: np.array([0])}) == 0

    def test_uncoverable_universe_is_a_value_error(self):
        sets = {1: np.array([0]), 2: np.array([1])}
        with pytest.raises(ValueError, match=r"items \[2\]"):
            rr.exhaustive_min_cover_size(np.arange(3), sets)

    def test_guard(self):
        many_sets = {i: np.array([0]) for i in range(1, 32)}
        with pytest.raises(rr.GuardExceededError, match="30 sets / 40 items"):
            rr.exhaustive_min_cover_size(np.arange(1), many_sets)
        with pytest.raises(rr.GuardExceededError, match="30 sets / 40 items"):
            rr.exhaustive_min_cover_size(np.arange(41), {1: np.arange(41)})


@pytest.mark.parametrize("r", [0, 8], ids=["r-0", "r-n+1"])
def test_exhaustive_rejects_a_budget_outside_1_to_n(demo7, r):
    with pytest.raises(ValueError, match=rf"budget r must be in 1\.\.7, got {r}"):
        rr.exhaustive_rrm(demo7, r)
