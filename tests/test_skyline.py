import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rankregret as rr
from rankregret.skyline import _covers, _sort_filter, frontier_mask, skyband

from conftest import random_dataset


def pairwise_dominance_skyline(values: np.ndarray) -> set[int]:
    """All-pairs dominance filter, the O(n^2) reference."""
    n = len(values)
    out = set()
    for i in range(n):
        dominated = False
        for j in range(n):
            if j == i:
                continue
            ge = (values[j] >= values[i]).all()
            gt = (values[j] > values[i]).any()
            dup = (values[j] == values[i]).all() and j < i
            if ge and (gt or dup):
                dominated = True
                break
        if not dominated:
            out.add(i + 1)
    return out


def sampled_dominance_skyline(D, space, extra_rays, samples=10_000, seed=0) -> set[int]:
    """Brute-force restricted-dominance filter on sampled cone vectors."""
    rng = np.random.default_rng(seed)
    raw = rng.random((samples, D.d))
    inside = raw[space.membership_mask(raw)]
    V = np.vstack([inside, np.asarray(extra_rays, dtype=float)])
    S = D.values @ V.T  # (n, vectors)
    out = set()
    for i in range(D.n):
        dominated = False
        for j in range(D.n):
            if j == i:
                continue
            ge = (S[j] >= S[i]).all()
            gt = (S[j] > S[i]).any()
            dup = (S[j] == S[i]).all() and j < i
            if ge and (gt or dup):
                dominated = True
                break
        if not dominated:
            out.add(i + 1)
    return out


class TestSkyline:
    def test_demo_skyline(self, demo7):
        assert rr.skyline(demo7) == (1, 2, 3, 4, 7)

    def test_singleton(self):
        D = rr.Dataset([[1.0, 1.0]])
        assert rr.skyline(D) == (1,)

    def test_matches_pairwise_oracle_2d(self):
        D = random_dataset(30, 2, seed=3)
        assert set(rr.skyline(D)) == pairwise_dominance_skyline(D.values)

    @pytest.mark.parametrize("d", [3, 4])
    def test_matches_pairwise_oracle_hd(self, d):
        D = random_dataset(25, d, seed=d)
        assert set(rr.skyline(D)) == pairwise_dominance_skyline(D.values)

    def test_duplicates_keep_lowest_index(self):
        D = rr.Dataset([[0.5, 0.5], [0.5, 0.5], [0.2, 0.1]], normalized=False)
        assert rr.skyline(D) == (1,)

    def test_idempotent(self):
        D = random_dataset(40, 2, seed=9)
        first = rr.skyline(D)
        restricted = rr.Dataset(D.values[np.asarray(first) - 1],
                                normalized=False)
        again = rr.skyline(restricted)
        assert len(again) == len(first)
        assert np.array_equal(
            restricted.values[np.asarray(again) - 1],
            D.values[np.asarray(first) - 1],
        )


class TestRestrictedSkyline:
    def test_full_space_equals_skyline(self, demo7):
        full = rr.restricted_skyline(demo7, rr.RestrictedSpace.full())
        assert full == rr.skyline(demo7) == (1, 2, 3, 4, 7)
        assert rr.restricted_skyline(demo7, None) == full

    def test_demo_halfplane_matches_sampled_oracle(self, demo7):
        space = rr.RestrictedSpace(((1.0, -1.0),))
        got = set(rr.restricted_skyline(demo7, space))
        want = sampled_dominance_skyline(demo7, space, [(1.0, 0.0), (1.0, 1.0)])
        assert got == want

    def test_weak_ranking_3d_matches_sampled_oracle(self):
        D = random_dataset(20, 3, seed=17)
        space = rr.RestrictedSpace.weak_ranking(3)
        got = set(rr.restricted_skyline(D, space))
        want = sampled_dominance_skyline(D, space, space.extreme_rays())
        assert got == want

    def test_subset_of_skyline(self):
        space = rr.RestrictedSpace(((1.0, -2.0),))
        for seed in range(5):
            D = random_dataset(25, 2, seed=seed)
            assert set(rr.restricted_skyline(D, space)) <= set(
                rr.skyline(D))


    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_full_space_is_an_ordinary_cone(self, d):
        # u1 >= 0 is redundant, so this one-halfspace cone is the full
        # space, and each layer must answer for it as for None
        D = rr.generate(rr.GenSpec("anti-correlated", 80, d, seed=d))
        D = rr.Dataset(np.round(D.values, 1))
        cone = rr.RestrictedSpace(((1.0,) + (0.0,) * (d - 1),))
        assert rr.restricted_skyline(D, None) == rr.restricted_skyline(D, cone)
        G = rr.polar_grid(d, 4)
        assert np.array_equal(rr.filter_grid(G, None), rr.filter_grid(G, cone))
        if d == 2:
            assert rr.render_scene(None) == rr.render_scene(cone) == (0.0, 1.0)
            pair = [rr.solve_rrm_2d(D, 3, space) for space in (None, cone)]
        else:
            params = rr.HdParams(r=d + 1, m=200, seed=3)
            pair = [rr.solve_rrm_hd(D, params, space) for space in (None, cone)]
        full, coned = (dict(res.to_json_dict(), params={
            k: v for k, v in res.solver_params.items() if k != "halfspaces"}) for res in pair)
        assert full == coned


class TestCandidateReduction:
    """Replacing any subset by skyline members never hurts the optimum."""

    @pytest.mark.parametrize("seed", range(4))
    def test_skyline_restriction_preserves_optimum(self, seed):
        D = random_dataset(16, 2, seed=100 + seed)
        for r in (1, 2):
            sky = rr.exhaustive_rrm(D, r, mode="skyline")
            all_ = rr.exhaustive_rrm(D, r, mode="all")
            assert sky.optimal_value == all_.optimal_value

    def test_restricted_candidates_preserve_optimum(self):
        space = rr.RestrictedSpace(((1.0, -1.0),))
        for seed in range(3):
            D = random_dataset(14, 2, seed=200 + seed)
            sky = rr.exhaustive_rrm(D, 2, space, mode="skyline")
            all_ = rr.exhaustive_rrm(D, 2, space, mode="all")
            assert sky.optimal_value == all_.optimal_value

    def test_sky_subset_replacement_exists(self):
        # for every small set there is a no-worse skyline subset
        D = random_dataset(12, 2, seed=300)
        sky = set(rr.skyline(D))
        best_by_size = {}
        for r in (1, 2):
            rep = rr.exhaustive_rrm(D, r, mode="skyline")
            best_by_size[r] = rep.optimal_value
        for S in itertools.combinations(range(1, 13), 2):
            v = rr.exact_chain_rank(S, D)
            assert best_by_size[2] <= v


@settings(max_examples=100, deadline=None)
@given(data=st.data(), d=st.integers(2, 4))
def test_frontiers_match_pairwise_dominance_with_duplicates(data, d):
    rows = data.draw(st.lists(st.lists(st.integers(0, 3), min_size=d, max_size=d),
                              min_size=1, max_size=15))
    dup = data.draw(st.lists(st.sampled_from(rows), max_size=5))
    vals = np.asarray(data.draw(st.permutations(rows + dup)), dtype=float)
    D = rr.Dataset(vals, normalized=False)
    assert set(rr.skyline(D)) == pairwise_dominance_skyline(vals)
    # the weak-ranking cone u1 >= ... >= ud >= 0 is spanned by the prefix
    # indicator vectors, so restricted dominance is dominance of their scores
    rays = np.tril(np.ones((d, d)))
    got = rr.restricted_skyline(D, rr.RestrictedSpace.weak_ranking(d))
    assert set(got) == pairwise_dominance_skyline(vals @ rays.T)


def outrank_counts(M: np.ndarray) -> list[int]:
    """Rows outranking each row: > on every column, or >= on every column
    with the lower index; the O(n^2) reference for ``skyband``."""
    n = len(M)
    return [sum(1 for a in range(n) if a != t and (
        (M[a] > M[t]).all() or ((M[a] >= M[t]).all() and a < t))) for t in range(n)]


@settings(max_examples=100, deadline=None)
@given(data=st.data(), d=st.integers(2, 4), K=st.integers(1, 6), weak=st.booleans())
def test_skyband_matches_outrank_count(data, d, K, weak):
    rows = data.draw(st.lists(st.lists(st.integers(0, 3), min_size=d, max_size=d),
                              min_size=1, max_size=15))
    dup = data.draw(st.lists(st.sampled_from(rows), max_size=5))
    vals = np.asarray(data.draw(st.permutations(rows + dup)), dtype=float)
    # scores at the rays of the full space or of the weak-ranking cone;
    # small integers make ties on single rays common
    rays = np.tril(np.ones((d, d))) if weak else np.eye(d)
    M = vals @ rays.T
    band = skyband(M, K)
    assert set(np.flatnonzero(band)) == {t for t, c in enumerate(outrank_counts(M)) if c < K}
    assert not (frontier_mask(M) & ~skyband(M, 1)).any()
    # every top-K tuple at a grid of cone vectors lies in the band
    D = rr.Dataset(vals, normalized=False)
    for w in itertools.product(range(3), repeat=d):
        if any(w):
            u = np.asarray(w, dtype=float) @ rays
            top = [i for i in range(1, D.n + 1) if rr.rank(u, i, D) <= K]
            assert band[np.asarray(top) - 1].all()


def test_skyband_is_not_dominator_count():
    # row 1 dominates row 0 but ties it on the first column with the
    # higher index, so row 0 ranks first at u = (1, 0): it has no outranker
    M = np.array([[1.0, 0.0], [1.0, 1.0]])
    assert frontier_mask(M).tolist() == [False, True]
    assert skyband(M, 1).tolist() == [True, True]


@settings(max_examples=300, deadline=None)
@given(data=st.data(), scale=st.sampled_from([3, 10]))
def test_two_column_frontier_matches_sort_filter(data, scale):
    # the running maximum against the sort-filter reference on integer
    # grids and one-decimal values with duplicate rows, -0.0 beside 0.0,
    # and tables of 0 and 1 rows
    rows = data.draw(st.lists(st.tuples(st.integers(0, scale), st.integers(0, scale)),
                              max_size=12))
    dup = data.draw(st.lists(st.sampled_from(rows), max_size=4)) if rows else []
    M = np.asarray(data.draw(st.permutations(rows + dup)), dtype=float).reshape(-1, 2)
    if scale == 10:
        M /= 10.0
    flip = np.asarray(data.draw(st.lists(st.booleans(), min_size=M.size, max_size=M.size)),
                      dtype=bool).reshape(M.shape)
    M[flip & (M == 0.0)] = -0.0
    assert frontier_mask(M).tolist() == _sort_filter(M, 1, _covers).tolist()
