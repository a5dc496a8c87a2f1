from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rankregret as rr
from rankregret import core
from rankregret.core import NORMALIZATION_TOL
from rankregret.datagen import GenSpec, normalize_columns

from conftest import (block_budgets, cell_labels, grid_tables, hd_tables, kernel_layout,
                      pivot_seeds, random_dataset, random_pivots, signed_tables, utility_rows)


class TestDataset:
    def test_shape_and_names(self, demo7):
        assert (demo7.n, demo7.d) == (7, 2)
        assert demo7.attribute_names == ("A1", "A2")

    def test_basis_indices(self, demo7):
        assert demo7.basis_indices == (1, 7)

    def test_rejects_missing_boundary(self):
        with pytest.raises(ValueError, match="boundary"):
            rr.Dataset([[0.2, 0.8], [0.3, 1.0]])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            rr.Dataset([[1.5, 1.0], [1.0, 0.2]])

    def test_rejects_too_small(self):
        with pytest.raises(ValueError):
            rr.Dataset(np.ones((0, 2)))
        with pytest.raises(ValueError):
            rr.Dataset(np.ones((3, 1)))

    def test_immutable(self, demo7):
        with pytest.raises(ValueError):
            demo7.values[0, 0] = 0.5

    def test_unnormalized_basis_is_each_columns_lowest_top_tuple(self):
        # the basis is defined on every table: column 1's top tuple is row
        # 2, and column 2 ties, so the lower index, row 1, wins
        D = rr.Dataset([[2.0, 5.0], [4.0, 5.0]], normalized=False)
        assert D.basis_indices == (1, 2)

    def test_all_ones_tuple_listed_once(self):
        D = rr.Dataset([[1.0, 1.0, 1.0]])
        assert D.basis_indices == (1,)

    def test_every_attribute_attains_one(self):
        vals = np.random.default_rng(5).random((40, 3))
        D = rr.Dataset(normalize_columns(vals))
        b = D.basis_indices
        col_max_rows = {int(np.argmax(D.values[:, j])) + 1 for j in range(3)}
        assert set(b) == col_max_rows
        for j in range(3):
            assert any(D.values[i - 1, j] >= 1 - 1e-9 for i in b)


class TestUtilityVector:
    def test_tags_validated(self):
        rr.UtilityVector((0.25, 0.75), "sum-one")
        rr.UtilityVector((1.0, 0.0), "unit-norm")
        with pytest.raises(ValueError):
            rr.UtilityVector((0.5, 0.75), "sum-one")
        with pytest.raises(ValueError):
            rr.UtilityVector((0.5, 0.75), "unit-norm")
        with pytest.raises(ValueError):
            rr.UtilityVector((0.5, 0.5), "weird")

    def test_nonnegative(self):
        with pytest.raises(ValueError):
            rr.UtilityVector((-0.1, 1.1))

    def test_constructors_normalize(self):
        u = rr.UtilityVector.sum_one((2, 6))
        assert u.weights == (0.25, 0.75)
        v = rr.UtilityVector.unit((3, 4))
        assert abs(np.linalg.norm(v.weights) - 1) < NORMALIZATION_TOL


class TestScore:
    def test_demo_value(self):
        u = rr.UtilityVector((0.25, 0.75), "sum-one")
        assert rr.score(u, (0.0, 1.0)) == pytest.approx(0.75)

    def test_zero_vector(self):
        assert rr.score((0.0, 0.0, 0.0), (0.3, 0.5, 0.9)) == 0.0

    def test_matches_termwise_accumulation(self):
        gen = np.random.default_rng(7)
        u, t = gen.random(5), gen.random(5)
        acc = 0.0
        for i in range(5):
            acc += u[i] * t[i]
        assert rr.score(u, t) == pytest.approx(acc, rel=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            rr.score((0.5, 0.5), (1.0, 2.0, 3.0))

    def test_linearity_on_records(self, rng):
        u = rng.random(4)
        t1, t2 = rng.random(4), rng.random(4)
        assert rr.score(u, t1) + rr.score(u, t2) == pytest.approx(rr.score(u, t1 + t2))


class TestRank:
    def test_demo_value(self, demo7):
        u = rr.UtilityVector((0.25, 0.75), "sum-one")
        assert rr.rank(u, 1, demo7) == 2

    def test_singleton(self):
        D = rr.Dataset([[1.0, 1.0]])
        assert rr.rank((0.3, 0.7), 1, D) == 1

    def test_matches_full_sort(self):
        D = random_dataset(10, 3, seed=5)
        u = np.random.default_rng(6).random(3)
        sc = rr.scores(D, u)
        order = sorted(range(10), key=lambda i: (-sc[i], i))
        for pos, row in enumerate(order, start=1):
            assert rr.rank(u, row + 1, D) == pos

    def test_bijection_with_ties(self):
        # integer-valued attributes force score ties; ranks must still be 1..n
        vals = np.random.default_rng(3).integers(0, 3, size=(12, 2)).astype(float)
        D = rr.Dataset(vals, normalized=False)
        for u in ([1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [2.0, 3.0]):
            ranks = sorted(rr.rank(u, i, D) for i in range(1, 13))
            assert ranks == list(range(1, 13))

    def test_index_validity(self, demo7):
        with pytest.raises(IndexError):
            rr.rank((1.0, 0.0), 0, demo7)
        with pytest.raises(IndexError):
            rr.rank((1.0, 0.0), 8, demo7)


class TestRankRegretOfSet:
    def test_full_set_is_one(self, demo7):
        assert rr.rank_regret_of_set((0.4, 0.6), range(1, 8), demo7) == 1

    def test_singleton_reduction(self, demo7):
        u = rr.UtilityVector((0.5, 0.5), "sum-one")
        assert rr.rank_regret_of_set(u, [3], demo7) == rr.rank(u, 3, demo7)

    def test_matches_min_of_member_ranks(self, demo7):
        u = rr.UtilityVector((0.25, 0.75), "sum-one")
        expect = min(rr.rank(u, 2, demo7), rr.rank(u, 4, demo7))
        assert rr.rank_regret_of_set(u, [2, 4], demo7) == expect

    def test_empty_rejected(self, demo7):
        with pytest.raises(ValueError):
            rr.rank_regret_of_set((1.0, 0.0), [], demo7)

    def test_monotone_in_set_growth(self):
        D = random_dataset(15, 2, seed=11)
        gen = np.random.default_rng(12)
        for _ in range(20):
            u = gen.random(2)
            S = list(gen.choice(15, size=5, replace=False) + 1)
            R = S[:2]
            assert rr.rank_regret_of_set(u, R, D) >= rr.rank_regret_of_set(u, S, D)


class TestTopK:
    def test_k_equals_n(self, demo7):
        assert sorted(rr.top_k((0.3, 0.7), 7, demo7)) == list(range(1, 8))

    def test_demo_top2(self, demo7):
        assert set(rr.top_k((1.0, 0.0), 2, demo7)) == {7, 4}

    def test_matches_sort_prefix(self):
        D = random_dataset(50, 2, seed=21)
        u = np.random.default_rng(22).random(2)
        sc = rr.scores(D, u)
        order = sorted(range(50), key=lambda i: (-sc[i], i))
        assert rr.top_k(u, 7, D) == [i + 1 for i in order[:7]]

    def test_nesting(self):
        D = random_dataset(20, 3, seed=31)
        u = np.random.default_rng(32).random(3)
        for k in range(1, 20):
            assert set(rr.top_k(u, k, D)) < set(rr.top_k(u, k + 1, D))

    def test_k_out_of_range(self, demo7):
        with pytest.raises(ValueError):
            rr.top_k((1.0, 0.0), 0, demo7)
        with pytest.raises(ValueError):
            rr.top_k((1.0, 0.0), 8, demo7)


class TestShift:
    def test_zero_shift_identity(self, demo7):
        assert np.array_equal(rr.shift(demo7, [0.0, 0.0]).values, demo7.values)

    def test_demo_shift_preserves_ranks(self, demo7):
        shifted = rr.shift(demo7, [0.0, 4.0])
        assert not shifted.normalized
        gen = np.random.default_rng(8)
        for _ in range(100):
            u = gen.random(2)
            for t in range(1, 8):
                assert rr.rank(u, t, demo7) == rr.rank(u, t, shifted)

    def test_random_shift_preserves_ranks(self):
        D = random_dataset(12, 3, seed=41)
        lam = np.random.default_rng(42).random(3) * 5
        shifted = rr.shift(D, lam)
        gen = np.random.default_rng(43)
        for _ in range(1000):
            u = gen.random(3)
            t = int(gen.integers(1, 13))
            assert rr.rank(u, t, D) == rr.rank(u, t, shifted)

    def test_negative_rejected(self, demo7):
        with pytest.raises(ValueError):
            rr.shift(demo7, [-0.1, 0.0])


class TestRestrictedSpace:
    def test_full_space_rays(self):
        sp = rr.RestrictedSpace.full()
        assert np.array_equal(sp.extreme_rays(3), np.eye(3))
        assert sp.contains((0.2, 0.0, 0.8))

    def test_halfspace_membership(self):
        sp = rr.RestrictedSpace(((1.0, -1.0),))
        assert sp.contains((0.7, 0.3))
        assert not sp.contains((0.3, 0.7))
        assert not sp.contains((-1.0, -2.0))

    def test_weak_ranking_rays(self):
        sp = rr.RestrictedSpace.weak_ranking(3)
        rays = sp.extreme_rays()
        expect = np.array([[1, 0, 0], [1, 1, 0], [1, 1, 1]], dtype=float)
        assert np.allclose(sorted(map(tuple, rays)), sorted(map(tuple, expect)))

    def test_degenerate_cone_rejected(self):
        # u1 <= 0 with u1 >= 0 pins the first coordinate to zero
        with pytest.raises(ValueError, match="degenerate"):
            rr.RestrictedSpace(((-1.0, 0.0),))

    def test_empty_halfspaces_is_full(self):
        assert rr.RestrictedSpace(()).is_full


# Property tests over arbitrary small instances, ties included.
values_strategy = st.lists(
    st.lists(st.integers(0, 4).map(float), min_size=2, max_size=2),
    min_size=2, max_size=10,
)
weights_strategy = st.tuples(st.integers(0, 5), st.integers(0, 5)).filter(
    lambda w: w != (0, 0)
)


@settings(max_examples=60, deadline=None)
@given(values=values_strategy, w=weights_strategy)
def test_rank_is_bijection(values, w):
    D = rr.Dataset(np.asarray(values), normalized=False)
    ranks = sorted(rr.rank(np.asarray(w, float), i, D) for i in range(1, D.n + 1))
    assert ranks == list(range(1, D.n + 1))


@settings(max_examples=60, deadline=None)
@given(values=values_strategy, w=weights_strategy, lam=st.tuples(
    st.integers(0, 3), st.integers(0, 3)))
def test_shift_never_changes_ranks(values, w, lam):
    D = rr.Dataset(np.asarray(values), normalized=False)
    shifted = rr.shift(D, np.asarray(lam, float))
    u = np.asarray(w, float)
    for i in range(1, D.n + 1):
        assert rr.rank(u, i, D) == rr.rank(u, i, shifted)


@settings(max_examples=60, deadline=None)
@given(values=values_strategy, w=weights_strategy, k=st.integers(1, 5))
def test_top_k_size_and_nesting(values, w, k):
    D = rr.Dataset(np.asarray(values), normalized=False)
    k = min(k, D.n)
    u = np.asarray(w, float)
    top = rr.top_k(u, k, D)
    assert len(top) == len(set(top)) == k
    if k < D.n:
        assert set(top) < set(rr.top_k(u, k + 1, D))


# Integer utility vectors and dyadic x keep every score of the integer-grid
# tables exact, so the sort reference sees exactly the kernel's ties.
def reference_min_rank(table_scores, S) -> int:
    """Best rank among the 1-based members of S, by a Python sort on (-score, index)."""
    order = sorted(range(len(table_scores)), key=lambda i: (-table_scores[i], i))
    return min(order.index(t - 1) + 1 for t in S)


@settings(max_examples=80, deadline=None)
@given(data=st.data(), cells=block_budgets)
def test_min_rank_kernel_matches_sort_reference_hd(data, cells):
    table = data.draw(grid_tables(3))
    D = rr.Dataset(np.asarray(table, float), normalized=False)
    vectors = data.draw(st.lists(
        st.lists(st.integers(0, 3), min_size=3, max_size=3).filter(any),
        min_size=1, max_size=8))
    S = data.draw(st.sets(st.integers(1, D.n), min_size=1, max_size=3))
    want = [reference_min_rank([sum(a * b for a, b in zip(v, t)) for t in table], S)
            for v in vectors]
    with mock.patch.object(core, "_BLOCK_CELLS", cells):
        got = rr.min_ranks_for_vectors(D, np.asarray(vectors, float), S)
        assert got.tolist() == want
        for v, w in zip(vectors, want):
            assert rr.rank_regret_of_set(np.asarray(v, float), S, D) == w
            if len(S) == 1:
                assert rr.rank(np.asarray(v, float), min(S), D) == w


@settings(max_examples=80, deadline=None)
@given(data=st.data(), cells=block_budgets)
def test_min_rank_kernel_matches_sort_reference_2d(data, cells):
    table = data.draw(grid_tables(2))
    D = rr.Dataset(np.asarray(table, float), normalized=False)
    S = data.draw(st.sets(st.integers(1, D.n), min_size=1, max_size=3))
    xs = [k / 8 for k in range(9)]
    want = [reference_min_rank([t[1] + (t[0] - t[1]) * x for t in table], S) for x in xs]
    with mock.patch.object(core, "_BLOCK_CELLS", cells):
        for x, w in zip(xs, want):
            assert rr.exact_chain_rank(S, D, (x, x)) == w
        # np.linspace(0, 1, 9) is exactly the grid k / 8
        assert rr.dense_grid_chain_rank(S, D, (0.0, 1.0), points=9) == max(want)


# Near ties: BLAS keys may order these tables unlike the canonical score
# (any summation order, fused or not); the kernels must rank by the score,
# whichever member bounds each direction cell.
@settings(max_examples=120, deadline=None)
@given(data=st.data(), cells=block_budgets)
def test_min_ranks_match_canonical_brute_force(data, cells):
    d = data.draw(st.integers(2, 5))
    D = rr.Dataset(data.draw(signed_tables(d)), normalized=False)
    V = data.draw(utility_rows(d))
    S = data.draw(st.sets(st.integers(1, D.n), min_size=1, max_size=4))
    rows = np.asarray(sorted(S)) - 1
    with kernel_layout(cells, data.draw(cell_labels(len(V)))), \
            random_pivots(rows, data.draw(pivot_seeds)):
        got = rr.min_ranks_for_vectors(D, V, S)
    assert got.tolist() == core._min_rank_rows(core._canonical(V, D.values), rows).tolist()


# Every tuple the pivot test drops scores strictly below the cell's pivot
# at every row of the cell, canonically; the pivot is a tuple of keep and
# the tuples of keep are always yielded.
@settings(max_examples=150, deadline=None)
@given(data=st.data(), cells=block_budgets)
def test_cell_candidates_drop_only_tuples_below_the_pivot(data, cells):
    d = data.draw(st.integers(2, 5))
    X = data.draw(signed_tables(d))
    V = data.draw(utility_rows(d))
    keep = np.asarray(sorted(data.draw(st.sets(st.integers(0, len(X) - 1), min_size=1,
                                               max_size=4))))
    scores = core._canonical(V, X)
    pick = keep[np.argmax(scores[:, keep], axis=1)]
    pivot_of = np.full(len(V), -1)
    real = core._cell_pivots

    def recording(order, sizes, pick):
        pivots = real(order, sizes, pick)
        pivot_of[order] = np.repeat(pivots, sizes)
        return pivots

    with kernel_layout(cells, data.draw(cell_labels(len(V)))), \
            mock.patch.object(core, "_cell_pivots", recording):
        yielded = list(core._cell_candidates(V, X, keep, pick))
    assert np.array_equal(np.sort(np.concatenate([ids for ids, _ in yielded])),
                          np.arange(len(V)))
    assert np.isin(pivot_of, keep).all()
    for ids, cand in yielded:
        assert np.isin(keep, cand).all() and (np.diff(cand) > 0).all()
        dropped = np.setdiff1d(np.arange(len(X)), cand)
        below = scores[np.ix_(ids, dropped)] < scores[ids, pivot_of[ids]][:, None]
        assert below.all()


def test_rank_kernel_keys_cells_of_one_pivot_together():
    # without a floor, cells that share a pivot are keyed as one block of
    # at most _CELL_KEYS keys; the ranks stay those of the canonical scores
    D = rr.generate(GenSpec("independent", 1000, 3, seed=1))
    V = rr.sample_sphere(3, 20_000, seed=3)
    labels = core._direction_cells(V, D.n)
    real = core._candidate_blocks
    blocks = []

    def counting(*args):
        for ids, cand, keys in real(*args):
            blocks.append((np.unique(labels[ids]).size, ids.size * cand.size))
            yield ids, cand, keys

    with mock.patch.object(core, "_candidate_blocks", counting):
        got = rr.min_ranks_for_vectors(D, V, D.basis_indices)
    assert 5 * len(blocks) < np.unique(labels).size
    assert all(keys <= 2 ** 16 for cells, keys in blocks if cells > 1)
    rows = np.asarray(D.basis_indices) - 1
    want = [core._min_rank_rows(core._canonical(V[lo:lo + 2000], D.values), rows)
            for lo in range(0, len(V), 2000)]
    assert np.array_equal(got, np.concatenate(want))


# One pivot, or two, owning many cells: the pivot test runs once over each
# pivot group's box before the cell bounds, and ranks and ratios stay those
# of full scores.  Copies of the set's rows a few ulps lower come first, so
# they win canonical ties with the pivot by index; the all-ones row keeps
# every sampled top score >= 1.
@settings(max_examples=100, deadline=None)
@given(data=st.data(), cells=block_budgets)
def test_pivot_group_prebound_keeps_ranks_and_ratio(data, cells):
    d = data.draw(st.integers(2, 5))
    T = data.draw(signed_tables(d))
    members = np.asarray(sorted(data.draw(st.sets(st.integers(0, len(T) - 1), min_size=1,
                                                    max_size=4))))
    lower = T[members]
    for _ in range(data.draw(st.integers(1, 3))):
        lower = np.nextafter(lower, -np.inf)
    X = np.vstack([lower, T, np.ones(d)])
    D = rr.Dataset(X, normalized=False)
    rows = members + len(members)
    S = set((rows + 1).tolist())
    samples, seed = data.draw(st.integers(1, 60)), data.draw(st.integers(0, 99))
    V = rr.sample_sphere(d, samples, seed)
    labels = np.asarray(data.draw(st.lists(st.integers(0, 15), min_size=samples,
                                           max_size=samples)))
    owners = data.draw(st.lists(st.sampled_from(rows.tolist()), min_size=1, max_size=2))
    pivots = data.draw(st.integers(0, 2 ** 32 - 1))
    with kernel_layout(cells, labels):
        with random_pivots(owners, pivots):
            ranks = rr.min_ranks_for_vectors(D, V, S)
        with random_pivots(owners, pivots):
            ratio = rr.max_regret_ratio(S, D, samples, seed)
    assert ranks.tolist() == core._min_rank_rows(core._canonical(V, X), rows).tolist()
    sc = V @ X.T
    top = sc.max(axis=1)
    assert abs(ratio - ((top - sc[:, rows].max(axis=1)) / top).max()) <= 1e-12


def test_order_prefix_joins_cells_within_twice_their_own_keys():
    # with a floor K, cells that share a pivot are keyed as one block only
    # while it holds at most _CELL_KEYS keys and at most twice the keys of
    # its cells keyed one by one
    D = rr.generate(GenSpec("independent", 1000, 3, seed=1))
    V = rr.sample_sphere(3, 20_000, seed=3)
    keep = np.asarray(D.basis_indices) - 1
    pick = core._set_best(D, V, keep)[1]
    labels = core._direction_cells(V, D.n)
    with kernel_layout(core._BLOCK_CELLS, labels):
        with mock.patch.object(core, "_CELL_KEYS", 0):
            alone = {int(labels[ids[0]]): ids.size * cand.size
                     for ids, cand in core._cell_candidates(V, D.values, keep, pick, 64)}
        blocks = list(core._cell_candidates(V, D.values, keep, pick, 64))
    assert len(alone) == np.unique(labels).size > 2 * len(blocks)
    for ids, cand in blocks:
        cells = np.unique(labels[ids])
        if cells.size > 1:
            keys = ids.size * cand.size
            assert keys <= core._CELL_KEYS and keys <= 2 * sum(alone[c] for c in cells)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_single_vector_ranks_follow_canonical_order(data):
    d = data.draw(st.integers(2, 5))
    D = rr.Dataset(data.draw(hd_tables(d)), normalized=False)
    for u in data.draw(utility_rows(d))[:4]:
        order = rr.top_k(u, D.n, D)
        want = np.argsort(-core._canonical(u[None, :], D.values)[0], kind="stable") + 1
        assert order == want.tolist()
        assert [rr.rank(u, t, D) for t in order] == list(range(1, D.n + 1))


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_score_of_one_record_is_its_canonical_score(data):
    d = data.draw(st.integers(2, 8))
    D = rr.Dataset(data.draw(hd_tables(d)), normalized=False)
    V = data.draw(utility_rows(d))
    for u in V[data.draw(st.lists(st.integers(0, len(V) - 1), min_size=1, max_size=4))]:
        got = np.array([rr.score(u, D.record(i)) for i in range(1, D.n + 1)])
        assert np.array_equal(got.view(np.int64), rr.scores(D, u).view(np.int64))


@pytest.mark.parametrize("call,error,match", [
    (lambda D: rr.Dataset([[0.0, np.nan], [1.0, 1.0]], normalized=False), ValueError, "finite"),
    (lambda D: rr.Dataset([[0.0, np.inf], [1.0, 1.0]], normalized=False), ValueError, "finite"),
    (lambda D: rr.Dataset(D.values, ("A1",)), ValueError, "expected 2 attribute names, got 1"),
    (lambda D: rr.Dataset(D.values, ("a", "b", "c")), ValueError, "expected 2 attribute names"),
    (lambda D: rr.rank_regret_of_set((0.5, 0.5), [0], D), IndexError, r"1\.\.7"),
    (lambda D: rr.rank_regret_of_set((0.5, 0.5), [2, 8], D), IndexError, r"1\.\.7"),
    (lambda D: rr.shift(D, [0.1, 0.1, 0.1]), ValueError, "2 components"),
    (lambda D: rr.shift(D, [[0.1, 0.1]]), ValueError, "2 components"),
    (lambda D: rr.RestrictedSpace(((1.0, -1.0), (1.0, -1.0, 0.0))), ValueError, "one dimension"),
    (lambda D: rr.RestrictedSpace.weak_ranking(3, 0), ValueError, "levels"),
    (lambda D: rr.RestrictedSpace.weak_ranking(3, 3), ValueError, "levels"),
], ids=["nan", "inf", "too-few-names", "too-many-names", "index-0", "index-n+1",
        "shift-length", "shift-2d", "mixed-halfspaces", "levels-0", "levels-d"])
def test_input_checks(demo7, call, error, match):
    with pytest.raises(error, match=match):
        call(demo7)
