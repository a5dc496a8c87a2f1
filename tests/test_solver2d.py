import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rankregret as rr
from rankregret.solver2d import (_band, _Form, _set_ranks, _sweep, _verified_chain,
                                  _worst_rank)

from conftest import dual_order, random_dataset, traced_peak


class TestDualize:
    def test_demo_order_and_flags(self, demo7):
        lines = rr.dualize(demo7)
        assert [l.tuple_index for l in lines] == [1, 2, 3, 4, 5, 6, 7]
        ordinals = {l.skyline_ordinal: l.tuple_index for l in lines
                    if l.skyline_ordinal is not None}
        assert set(ordinals.values()) == {1, 2, 3, 4, 7}
        # the fifth skyline line (slope order) is the line of t7
        assert ordinals[5] == 7

    def test_skyline_slopes_strictly_ascend(self, demo7):
        lines = [l for l in rr.dualize(demo7) if l.skyline_ordinal is not None]
        lines.sort(key=lambda l: l.skyline_ordinal)
        slopes = [l.slope for l in lines]
        assert all(a < b for a, b in zip(slopes, slopes[1:]))

    def test_demo_rank_at_quarter(self, demo7):
        # one line lies above line 1 at x = 0.25, so its rank there is 2
        assert rr.exact_chain_rank([1], demo7, (0.25, 0.25)) == 2

    def test_single_tuple(self):
        D = rr.Dataset([[1.0, 1.0]])
        lines = rr.dualize(D)
        assert len(lines) == 1 and lines[0].skyline_ordinal == 1
        assert rr.exact_chain_rank([1], D) == 1

    def test_requires_2d(self):
        with pytest.raises(ValueError):
            rr.dualize(random_dataset(5, 3, seed=1))


class TestExactChainRank:
    def test_demo_singletons(self, demo7):
        # worst-case ranks of each single tuple over the full range,
        # cross-checked against the dense-grid oracle in test_oracle.py
        # (TestDenseGridAgreement.test_demo_singletons)
        got = [rr.exact_chain_rank([i], demo7) for i in range(1, 8)]
        assert got == [7, 4, 3, 4, 7, 7, 7]

    def test_demo_chain_137(self, demo7):
        assert rr.exact_chain_rank([1, 3, 7], demo7) == 3
        assert rr.exact_chain_rank([1, 3, 7], demo7, (0.25, 0.25)) == 2

    def test_whole_dataset_is_one(self, demo7):
        assert rr.exact_chain_rank(range(1, 8), demo7) == 1

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_dense_grid(self, seed):
        D = random_dataset(15, 2, seed=400 + seed)
        S = list(np.random.default_rng(seed).choice(15, 3, replace=False) + 1)
        assert rr.exact_chain_rank(S, D) == rr.dense_grid_chain_rank(S, D, points=100_000)

    def test_empty_set_rejected(self, demo7):
        with pytest.raises(ValueError):
            rr.exact_chain_rank([], demo7)

    @pytest.mark.parametrize("interval", [(0.8, 0.2), (-0.5, 1.5), (0.0, 1.5), (-0.1, 0.0)])
    def test_interval_outside_unit_or_reversed_rejected(self, interval):
        D = random_dataset(30, 2, seed=5)
        with pytest.raises(ValueError):
            rr.exact_chain_rank([1, 2], D, interval)

    @pytest.mark.parametrize("kind, n, seed, solved", [
        ("independent", 3000, 3, False),
        ("anti-correlated", 50_000, 1, True),
    ], ids=["basis-3000", "optimum-50000"])
    def test_peak_memory_is_bounded(self, kind, n, seed, solved):
        # working memory is O(crossings of the set): about |S| * n entries
        # (the r=5 optimum at n=50k peaks near 47 MiB), not points x lines
        D = rr.generate(rr.GenSpec(kind, n, 2, seed=seed))
        S = rr.solve_rrm_2d(D, 5).selected_indices if solved else D.basis_indices
        peak = traced_peak(lambda: rr.exact_chain_rank(S, D))
        assert peak < 96 * 2**20


class TestRenderScene:
    def test_full_space(self):
        assert rr.render_scene(None) == (0.0, 1.0)
        assert rr.render_scene(rr.RestrictedSpace.full()) == (0.0, 1.0)

    def test_halfplane(self):
        assert rr.render_scene(rr.RestrictedSpace(((1.0, -1.0),))) == (0.5, 1.0)

    def test_two_ray_cone(self):
        # cone spanned by (1,3) and (2,1)
        space = rr.RestrictedSpace(((3.0, -1.0), (-1.0, 2.0)))
        lo, hi = rr.render_scene(space)
        assert lo == pytest.approx(0.25, abs=1e-12)
        assert hi == pytest.approx(2 / 3, abs=1e-12)


class TestSolveRrm2d:
    def test_demo_r1(self, demo7):
        res = rr.solve_rrm_2d(demo7, 1)
        assert res.selected_indices == (3,)
        assert res.rank_regret == 3

    def test_demo_r7(self, demo7):
        assert rr.solve_rrm_2d(demo7, 7).rank_regret == 1

    def test_three_tuple_trace_instance(self, demo7):
        sub = rr.Dataset(demo7.values[:3], normalized=False)
        res = rr.solve_rrm_2d(sub, 2)
        assert res.rank_regret == 2
        assert res.selected_indices in ((1, 2), (1, 3))

    def test_selection_is_skyline_subset(self, demo7):
        res = rr.solve_rrm_2d(demo7, 2)
        assert set(res.selected_indices) <= set(rr.skyline(demo7))
        assert res.size <= 2

    def test_value_attained_by_selection(self):
        for seed in range(8):
            D = random_dataset(20, 2, seed=500 + seed)
            res = rr.solve_rrm_2d(D, 3)
            assert rr.exact_chain_rank(res.selected_indices, D) == res.rank_regret

    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_optimal_vs_exhaustive(self, r):
        for seed in range(6):
            D = random_dataset(25, 2, seed=600 + seed)
            res = rr.solve_rrm_2d(D, r)
            ref = rr.exhaustive_rrm(D, r)
            assert res.rank_regret == ref.optimal_value

    @pytest.mark.parametrize("r", [2, 3])
    def test_optimal_vs_exhaustive_restricted(self, r):
        space = rr.RestrictedSpace(((1.0, -1.0),))
        for seed in range(4):
            D = random_dataset(25, 2, seed=700 + seed)
            res = rr.solve_rrm_2d(D, r, space)
            ref = rr.exhaustive_rrm(D, r, space)
            assert res.rank_regret == ref.optimal_value

    def test_shift_invariance_of_optimum(self):
        for seed in range(5):
            D = random_dataset(18, 2, seed=800 + seed)
            lam = np.random.default_rng(seed).random(2) * 4
            shifted = rr.shift(D, lam)
            a, b = rr.solve_rrm_2d(D, 3), rr.solve_rrm_2d(shifted, 3)
            assert a.rank_regret == b.rank_regret
            assert (rr.exact_chain_rank(a.selected_indices, D)
                    == rr.exact_chain_rank(a.selected_indices, shifted))

    def test_narrowing_interval_never_increases_value(self):
        wide = rr.RestrictedSpace(((1.0, -1.0),))    # x in [1/2, 1]
        narrow = rr.RestrictedSpace(((1.0, -2.0),))  # x in [2/3, 1]
        assert rr.render_scene(narrow)[0] > rr.render_scene(wide)[0]
        for seed in range(5):
            D = random_dataset(22, 2, seed=900 + seed)
            v_narrow = rr.solve_rrm_2d(D, 2, narrow).rank_regret
            v_wide = rr.solve_rrm_2d(D, 2, wide).rank_regret
            assert v_narrow <= v_wide

    def test_degenerate_single_direction(self):
        # both rays identical: zero-width interval, best tuple is the top-1
        space = rr.RestrictedSpace(((1.0, -1.0), (-1.0, 1.0)))
        D = random_dataset(12, 2, seed=950)
        res = rr.solve_rrm_2d(D, 1, space)
        u = rr.UtilityVector((0.5, 0.5), "sum-one")
        assert res.rank_regret == min(rr.rank(u, i, D) for i in res.selected_indices)
        assert res.rank_regret == 1

    def test_parameter_validation(self, demo7):
        with pytest.raises(ValueError):
            rr.solve_rrm_2d(demo7, 0)
        with pytest.raises(ValueError):
            rr.solve_rrm_2d(demo7, 8)
        with pytest.raises(ValueError):
            rr.solve_rrm_2d(random_dataset(5, 3, seed=0), 2)


class TestSolveRrr2d:
    def test_demo_k3(self, demo7):
        res = rr.solve_rrr_2d(demo7, 3)
        assert res.size == 1 and res.selected_indices == (3,)

    def test_k_equals_n(self, demo7):
        assert rr.solve_rrr_2d(demo7, 7).size == 1

    def test_k1_counts_top_contour(self, demo7):
        # minimum size at k=1 is the number of distinct top-1 tuples over x
        xs = np.linspace(0, 1, 20001)
        contour = {int(i) + 1 for i in dual_order(demo7.values, xs)[0]}
        res = rr.solve_rrr_2d(demo7, 1)
        assert res.size == len(contour)
        assert rr.exact_chain_rank(res.selected_indices, demo7) == 1

    def test_sizes_minimal_vs_exhaustive(self):
        for seed in range(4):
            D = random_dataset(16, 2, seed=1000 + seed)
            for k in (1, 2, 4):
                res = rr.solve_rrr_2d(D, k)
                assert res.rank_regret <= k
                if res.size > 1:
                    smaller = rr.exhaustive_rrm(D, res.size - 1)
                    assert smaller.optimal_value > k

    def test_k_out_of_range(self, demo7):
        with pytest.raises(ValueError):
            rr.solve_rrr_2d(demo7, 0)


class TestSweepInternals:
    """The sweep's event count and its batches of concurrent crossings."""

    @pytest.mark.parametrize("space", [None, rr.RestrictedSpace(((1.0, -1.0),))],
                             ids=["full", "halfplane"])
    def test_events_count_skyline_crossings(self, space):
        # the events are the crossings inside (lo, hi] of a skyline line
        # with any line, each counted once, in exact arithmetic
        lo, hi = (Fraction(x) for x in rr.render_scene(space))
        for seed in range(1100, 1104):
            D = random_dataset(14, 2, seed=seed)
            sky = {i - 1 for i in rr.restricted_skyline(D, space)}
            lines = [(Fraction(v1), Fraction(v0) - Fraction(v1))
                     for v0, v1 in D.values.tolist()]
            want = sum(1 for (i, (bi, si)), (j, (bj, sj))
                       in itertools.combinations(enumerate(lines), 2)
                       if (i in sky or j in sky) and si != sj
                       and lo < (bj - bi) / (si - sj) <= hi)
            assert want > 0
            assert _full_sweep(D, 2, space)[1] == want

    def test_duplicate_tuples_no_events(self):
        # the two copies never cross each other; each crosses tuple 3 once
        vals = np.array([[0.4, 0.6], [0.4, 0.6], [0.8, 0.2]])
        D = rr.Dataset(vals, normalized=False)
        for r in (1, 2):
            (indices, value), events = _full_sweep(D, r)
            assert events == 2
            assert value == rr.exact_chain_rank(indices, D) == rr.exhaustive_rrm(D, r).optimal_value

    def test_concurrent_crossings_decompose(self):
        # three lines through one exact point (x = 0.5, y = 0.5): their
        # three crossings are three events in one batch
        vals = np.array([[0.75, 0.25], [0.5, 0.5], [1.0, 0.0]])
        D = rr.Dataset(vals, normalized=False)
        (indices, value), events = _full_sweep(D, 2)
        assert events == 3
        assert value == rr.exact_chain_rank(indices, D) == rr.exhaustive_rrm(D, 2).optimal_value == 2

    @pytest.mark.parametrize("lo", [0.25, 0.5])
    def test_chains_through_a_crossing_at_lo(self, lo):
        # one-decimal and quarter-step lines often meet exactly at lo,
        # where every chain starts at rank 0 and passes the point like any
        # later one; each row is a chain line, so rows of equal slope are
        # dropped
        rng = np.random.default_rng(19)
        met = 0
        for step in (10, 4) * 20:
            vals = np.round(rng.random((int(rng.integers(4, 9)), 2)) * step) / step
            _, first = np.unique(np.round(vals[:, 0] - vals[:, 1], 6), return_index=True)
            rows = np.arange(first.size)
            form = _Form(vals[np.sort(first)], (lo, 1.0), sky_rows=rows)
            P = form.points(rows, rows)
            met += bool(np.any((P.pm >= 0) & (P.point == 0)))
            # the optimum for each budget h + 1 up to 3, by enumeration
            want = np.minimum.accumulate([
                min(_worst_rank(form, rows, np.array(S))
                    for S in itertools.combinations(rows.tolist(), size))
                for size in range(1, min(3, rows.size) + 1)])
            assert _sweep(form, rows, want.size)[0].min(axis=0).tolist() == want.tolist()
        assert met > 0


def _full_sweep(D, r, space=None):
    """((set, value), events) of the sweep over every line, with no band."""
    form = _Form.of(D, space)
    band = np.arange(D.n)
    M_rank, chains, events = _sweep(form, band, r)
    return _verified_chain(form, band, M_rank, chains, r - 1), events


class TestSkybandSweep:
    """The sweep over the K-skyband against the sweep over every line."""

    SPACES = (None, rr.RestrictedSpace(((1.0, -1.0),)))

    @pytest.mark.parametrize("family", ["independent", "anti-correlated"])
    def test_rrm_matches_full_sweep(self, family):
        pruned = 0
        for seed in range(3):
            D = rr.generate(rr.GenSpec(family, 60, 2, seed=1500 + seed))
            for space in self.SPACES:
                for r in (1, 2, 4):
                    res = rr.solve_rrm_2d(D, r, space)
                    assert (res.selected_indices, res.rank_regret) == _full_sweep(D, r, space)[0]
                    pruned += res.solver_params["band_size"] < D.n
        assert pruned > 0

    @pytest.mark.parametrize("family", ["independent", "anti-correlated"])
    def test_rrr_matches_smallest_full_sweep_budget(self, family):
        for seed in range(3):
            D = rr.generate(rr.GenSpec(family, 60, 2, seed=1600 + seed))
            for space in self.SPACES:
                for k in (1, 3, 6):
                    res = rr.solve_rrr_2d(D, k, space)
                    r, ref = next((r, out) for r in range(1, D.n + 1)
                                  for out in [_full_sweep(D, r, space)[0]] if out[1] <= k)
                    assert (res.selected_indices, res.rank_regret) == ref
                    assert res.solver_params["r"] == r
                    assert res.solver_params["band_k"] == k

    @pytest.mark.parametrize("family", ["independent", "anti-correlated"])
    def test_events_scale_with_the_band(self, family):
        # the whole arrangement has about 2e8 crossings; the band's are few
        D = rr.generate(rr.GenSpec(family, 20_000, 2, seed=1700))
        res = rr.solve_rrm_2d(D, 5)
        assert res.solver_params["events"] < 20_000
        assert res.solver_params["band_size"] < 1000
        assert res.rank_regret <= res.solver_params["band_k"]

    def test_band_keeps_lines_tied_at_an_end(self):
        # the lines meet exactly at x = 1, where tuple 1 wins the tie by
        # index; so it outranks tuple 2 at both ends, the exact band drops
        # tuple 2, and tuple 1 ranks first at every x
        D = rr.Dataset([[1.0, 0.3], [1.0, 0.0]], normalized=False)
        res = rr.solve_rrm_2d(D, 1)
        assert (res.selected_indices, res.rank_regret) == ((1,), 1)
        assert res.solver_params["band_size"] == 1
        assert rr.exact_chain_rank([1], D) == 1


def _tied_values(data):
    """Integer-grid or one-decimal 2D tables with duplicate rows."""
    scale = data.draw(st.sampled_from([4, 10]))
    rows = data.draw(st.lists(st.tuples(st.integers(0, scale), st.integers(0, scale)),
                              min_size=1, max_size=8))
    dup = data.draw(st.lists(st.sampled_from(rows), max_size=4))
    vals = np.asarray(data.draw(st.permutations(rows + dup)), dtype=float)
    return vals / 10.0 if scale == 10 else vals


@settings(max_examples=150, deadline=None)
@given(data=st.data(), weak=st.booleans())
def test_tied_data_returns_verified_values_or_raises(data, weak):
    D = rr.Dataset(_tied_values(data), normalized=False)
    space = rr.RestrictedSpace.weak_ranking(2) if weak else None
    interval = rr.render_scene(space)
    r = data.draw(st.integers(1, min(3, D.n)))
    res = rr.solve_rrm_2d(D, r, space)
    assert res.size <= r
    assert res.rank_regret == rr.exact_chain_rank(res.selected_indices, D, interval)
    k = data.draw(st.integers(1, D.n))
    try:
        res = rr.solve_rrr_2d(D, k, space)
    except ValueError:
        sky = rr.restricted_skyline(D, space)
        assert rr.exact_chain_rank(sky, D, interval) > k
    else:
        assert res.rank_regret == rr.exact_chain_rank(res.selected_indices, D, interval)
        assert res.rank_regret <= k


@settings(max_examples=60, deadline=None)
@given(data=st.data(), weak=st.booleans(), K=st.integers(1, 6))
def test_band_is_the_skyband_of_the_exact_end_ranks(data, weak, K):
    # the heap count in _band against skyline.skyband of the two columns
    # of exact end ranks, joined with the skyline rows
    from rankregret.skyline import skyband

    D = rr.Dataset(_tied_values(data), normalized=False)
    form = _Form.of(D, rr.RestrictedSpace.weak_ranking(2) if weak else None)
    lo_order, _, hi_key = form.ends
    ranks = np.empty((D.n, 2))
    ranks[lo_order, 0] = np.arange(D.n)
    ranks[np.argsort(hi_key), 1] = np.arange(D.n)
    inside = skyband(-ranks, K)
    inside[form.sky] = True
    assert _band(form, K).tolist() == np.flatnonzero(inside).tolist()


@settings(max_examples=150, deadline=None)
@given(data=st.data(), weak=st.booleans())
def test_band_at_or_above_the_optimum_returns_the_same_set(data, weak):
    # solve_rrm_2d may stop at any K at or above the optimum, so the
    # sweep over the K-band must give the same set and value at each
    D = rr.Dataset(_tied_values(data), normalized=False)
    space = rr.RestrictedSpace.weak_ranking(2) if weak else None
    r = data.draw(st.integers(1, min(3, D.n)))
    res = rr.solve_rrm_2d(D, r, space)
    opt = res.rank_regret
    form = _Form.of(D, space)
    for K in (opt, 2 * opt + 1, D.n):
        band = _band(form, K)
        M_rank, chains, _ = _sweep(form, band, r)
        assert _verified_chain(form, band, M_rank, chains, r - 1) == \
            (res.selected_indices, opt)


def test_band_k_never_exceeds_n():
    # the band at K = 1 bounds the optimum below by 5, and twice that
    # asks for a 10-band of 9 lines
    D = rr.Dataset([[0.621, 0.628], [0.034, 0.069], [0.958, 0.075], [0.556, 0.777],
                    [0.522, 0.894], [0.508, 1.0], [1.0, 0.267], [0.284, 0.924],
                    [0.669, 0.591]], normalized=False)
    res = rr.solve_rrm_2d(D, 1)
    assert (res.selected_indices, res.rank_regret) == ((9,), 6)
    assert res.solver_params["band_k"] == res.solver_params["band_size"] == D.n


def _fraction_profiles(values, rows, interval):
    """Rank of each of ``rows`` at every crossing of their lines inside
    the interval, at its ends and at the midpoint between consecutive
    points, all in Fraction arithmetic with ties to the lower index: an
    exact reference apart from the library's float keys."""
    lines = [(Fraction(v1), Fraction(v0) - Fraction(v1)) for v0, v1 in values.tolist()]
    lo, hi = Fraction(interval[0]), Fraction(interval[1])
    pts = {lo, hi}
    for m in rows:
        bm, sm = lines[m]
        pts.update(x for x in ((b - bm) / (sm - s) for b, s in lines if s != sm)
                   if lo <= x <= hi)
    pts = sorted(pts)
    pts += [(a + b) / 2 for a, b in zip(pts, pts[1:])]
    out = {m: [] for m in rows}
    for x in pts:
        y = [b + s * x for b, s in lines]
        for m in rows:
            out[m].append(1 + sum(1 for c, yc in enumerate(y)
                                  if yc > y[m] or (yc == y[m] and c < m)))
    return out


@settings(max_examples=60, deadline=None)
@given(data=st.data(), weak=st.booleans())
def test_tied_data_matches_fraction_oracle(data, weak):
    D = rr.Dataset(_tied_values(data), normalized=False)
    space = rr.RestrictedSpace.weak_ranking(2) if weak else None
    interval = rr.render_scene(space)
    sky = [i - 1 for i in rr.restricted_skyline(D, space)]
    S = data.draw(st.lists(st.integers(0, D.n - 1), min_size=1, max_size=3, unique=True))
    prof = _fraction_profiles(D.values, sorted(set(sky) | set(S)), interval)

    def worst(rows, profile=prof):
        return max(min(ranks) for ranks in zip(*(profile[m] for m in rows)))

    def subsets(size):
        return itertools.combinations(sky, size)

    assert rr.exact_chain_rank([i + 1 for i in S], D, interval) == worst(S)
    # any quarter-step interval, zero width included: parallel lines,
    # duplicates and interior cones; the grid can only under-count
    lo, hi = sorted(data.draw(st.lists(st.integers(0, 4), min_size=2, max_size=2)))
    extra = (lo / 4, hi / 4)
    want = worst(S, _fraction_profiles(D.values, S, extra))
    assert rr.exact_chain_rank([i + 1 for i in S], D, extra) == want
    assert rr.dense_grid_chain_rank([i + 1 for i in S], D, extra, points=2001) <= want
    r = data.draw(st.integers(1, min(3, D.n)))
    best = min(worst(c) for size in range(1, min(r, len(sky)) + 1) for c in subsets(size))
    res = rr.solve_rrm_2d(D, r, space)
    assert res.rank_regret == best == worst([i - 1 for i in res.selected_indices])
    assert rr.exhaustive_rrm(D, r, space).optimal_value == best
    k = data.draw(st.integers(1, D.n))
    size = next((size for size in range(1, len(sky) + 1)
                 if any(worst(c) <= k for c in subsets(size))), None)
    if size is None:
        with pytest.raises(ValueError):
            rr.solve_rrr_2d(D, k, space)
    else:
        res = rr.solve_rrr_2d(D, k, space)
        assert res.size == size
        assert res.rank_regret == worst([i - 1 for i in res.selected_indices]) <= k


@settings(max_examples=60, deadline=None)
@given(data=st.data(), lo=st.integers(0, 2))
def test_carried_ranks_match_fraction_oracle_point_by_point(data, lo):
    # tied lines often meet exactly at lo in {0, 1/4, 1/2}, where the rank
    # at lo is carried through the crossing like any later one; each row
    # alone, at each of its points and then in the cell right of each
    D = rr.Dataset(_tied_values(data), normalized=False)
    interval = (lo / 4, data.draw(st.integers(lo, 4)) / 4)
    form = _Form(D.values, interval)
    for m in range(D.n):
        _, at, right = _set_ranks(form, np.arange(D.n), [np.array([m])])
        want = _fraction_profiles(D.values, [m], interval)[m]
        assert at[0].tolist() + right[0, :-1].tolist() == want
        assert right[0, -1] == 0  # right of hi lies outside the interval


@settings(max_examples=80, deadline=None)
@given(rows=st.lists(st.tuples(st.integers(0, 10), st.integers(0, 10)),
                     min_size=1, max_size=12))
def test_dualize_lists_the_exact_order_at_lo(rows):
    # one-decimal lines tie often at x = 0, where the lower index goes first
    D = rr.Dataset(np.asarray(rows, dtype=float) / 10.0, normalized=False)
    lines = rr.dualize(D)
    assert [l.tuple_index for l in lines] == rr.top_k((0.0, 1.0), D.n, D)
    sky = sorted((l for l in lines if l.skyline_ordinal is not None),
                 key=lambda l: l.skyline_ordinal)
    assert sorted(l.tuple_index for l in sky) == list(rr.restricted_skyline(D, None))
    assert [l.skyline_ordinal for l in sky] == list(range(1, len(sky) + 1))
    assert all(a.slope < b.slope for a, b in zip(sky, sky[1:]))


def test_middle_line_of_a_concurrent_point():
    # tuples 1-3 meet at x = 0.5, where tuple 1 ranks first by index; only
    # a set through tuple 1, whose line tops the set at that point alone,
    # ranks first everywhere
    D = rr.Dataset([[0.5, 0.5], [0.0, 1.0], [1.0, 0.0], [0.3, 0.3]])
    res = rr.solve_rrm_2d(D, 3)
    assert (res.selected_indices, res.rank_regret) == ((1, 2, 3), 1)
    assert rr.solve_rrm_2d(D, 2).rank_regret == 2
    assert rr.solve_rrr_2d(D, 1).selected_indices == (1, 2, 3)


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_end_orders_decide_the_crossings(data):
    # tied rows and rows one or two ulps apart, over quarter-step, float and
    # zero-width intervals: the keys of _Form.order against Fraction
    # scores, and the pairs of _Form.points against every exact crossing
    vals = _tied_values(data)
    if data.draw(st.booleans()):
        ulps = data.draw(st.lists(st.integers(-2, 2), min_size=vals.size, max_size=vals.size))
        vals = vals + np.reshape(ulps, vals.shape) * np.spacing(vals)
    lo = data.draw(st.sampled_from([0.0, 0.25, 0.5]) | st.floats(0.0, 1.0))
    hi = data.draw(st.sampled_from([lo, 1.0]) | st.floats(lo, 1.0))
    form, n = _Form(vals, (lo, hi)), vals.shape[0]
    lines = [(Fraction(v1), Fraction(v0) - Fraction(v1)) for v0, v1 in vals.tolist()]
    for x in (lo, hi):
        y = [b + s * Fraction(x) for b, s in lines]
        rows, key = form.order(x)
        assert rows.tolist() == sorted(range(n), key=lambda i: (-y[i], i))
        assert sorted(range(n), key=key.__getitem__) == rows.tolist()
        assert all((key[i] // n == key[j] // n) == (y[i] == y[j])
                   for i in range(n) for j in range(n))
    want = {}
    for a, (ba, sa) in enumerate(lines):
        for c, (bc, sc) in enumerate(lines[a + 1:], start=a + 1):
            if sa != sc and Fraction(lo) <= (bc - ba) / (sa - sc) <= Fraction(hi):
                want[a, c] = (bc - ba) / (sa - sc)
    P = form.points(np.arange(n), np.arange(n))
    got = {(int(m), int(c)): int(g) for m, c, g in zip(P.pm, P.pc, P.point) if m >= 0}
    assert sorted(got) == sorted(want)
    # the point numbers order the crossings as their exact x do
    assert all((got[p] < got[q]) == (want[p] < want[q]) for p in got for q in got)


@pytest.mark.parametrize("call", [lambda D: rr.exact_chain_rank([1], D),
                                  lambda D: rr.solve_rrr_2d(D, 1)],
                         ids=["exact_chain_rank", "solve_rrr_2d"])
def test_2d_entry_points_reject_d3(call):
    with pytest.raises(ValueError, match="requires d = 2"):
        call(rr.Dataset(np.eye(3)))
