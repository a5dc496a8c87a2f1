import tracemalloc
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import strategies as st

from rankregret import Dataset, core, polar_grid, sample_sphere

# Worked 7-tuple example used throughout: two attributes, skyline
# {1,2,3,4,7}, boundary tuples t1 (A2=1) and t7 (A1=1).
DEMO7_VALUES = np.array([
    [0.00, 1.00],
    [0.40, 0.95],
    [0.57, 0.75],
    [0.79, 0.60],
    [0.20, 0.50],
    [0.35, 0.30],
    [1.00, 0.00],
])


@pytest.fixture(scope="session")
def demo7() -> Dataset:
    return Dataset(DEMO7_VALUES)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240117)


def random_dataset(n: int, d: int, seed: int) -> Dataset:
    """Un-normalized random dataset; fine for rank/solver properties."""
    vals = np.random.default_rng(seed).random((n, d))
    return Dataset(vals, normalized=False)


def dual_order(values: np.ndarray, xs) -> np.ndarray:
    """Rows top to bottom at each x, one column per x: a stable argsort of
    the dual scores intercept + slope * x, so ties go to the lower index."""
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    y = values[:, 1][:, None] + (values[:, 0] - values[:, 1])[:, None] * xs[None, :]
    return np.argsort(-y, axis=0, kind="stable")


def traced_peak(fn) -> int:
    """Peak bytes traced by tracemalloc while fn() runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def grid_tables(d: int):
    """Integer-grid rows with duplicates, in any order: exact score ties
    inside a table and across any rank position."""
    rows = st.lists(st.lists(st.integers(0, 3), min_size=d, max_size=d),
                    min_size=1, max_size=12)
    return rows.flatmap(lambda r: st.lists(st.sampled_from(r), max_size=4).flatmap(
        lambda dup: st.permutations(r + dup)))


# Score-block budgets (core._BLOCK_CELLS): tiny ones force many blocks, and
# one row per block once n exceeds the budget.
block_budgets = st.sampled_from([1, 5, 1 << 21])


def hd_tables(d: int):
    """Clipped, one-decimal and integer-grid tables with duplicate rows and
    coordinate-rotated rows: exact and near score ties under float vectors,
    where BLAS keys and canonical scores can order tuples differently."""
    clipped = st.floats(-0.4, 1.4).map(lambda x: min(max(x, 0.0), 1.0))
    one_decimal = st.integers(0, 10).map(lambda k: k / 10)
    entries = st.sampled_from([clipped, one_decimal, st.integers(0, 3).map(float)])
    rows = entries.flatmap(lambda e: st.lists(st.lists(e, min_size=d, max_size=d),
                                              min_size=1, max_size=10))

    def grow(r):
        rotated = st.lists(st.sampled_from(r).map(lambda t: t[1:] + t[:1]), max_size=3)
        extra = st.tuples(st.lists(st.sampled_from(r), max_size=4), rotated)
        return extra.flatmap(lambda e: st.permutations(r + e[0] + e[1]))

    return rows.flatmap(grow).map(lambda r: np.asarray(r, dtype=float))


def signed_tables(d: int):
    """``hd_tables`` shifted and with some columns negated: un-normalized
    tables with negative entries, and in some tables every zero is -0.0,
    whose sign bit a key's order-preserving bits must fold in."""
    shift = st.sampled_from([0.0, 0.5, 1.0])
    signs = st.lists(st.sampled_from([1.0, -1.0]), min_size=d, max_size=d)

    def make(a):
        t = (a[0] - a[1]) * np.asarray(a[2])
        return np.where(t == 0, -0.0, t) if a[3] else t

    return st.tuples(hd_tables(d), shift, signs, st.booleans()).map(make)


def utility_rows(d: int):
    """Stacks of polar-grid vectors (with their cos(pi/2) = 6.1e-17
    components), unit-sphere samples, integer vectors and vectors with
    negative components."""
    grid = st.integers(1, 3).map(lambda g: polar_grid(d, g))
    samples = st.tuples(st.integers(1, 20), st.integers(0, 999)).map(
        lambda a: sample_sphere(d, a[0], a[1]))
    ints = st.lists(st.lists(st.integers(0, 3), min_size=d, max_size=d).filter(any),
                    min_size=1, max_size=6).map(lambda v: np.asarray(v, dtype=float))
    signed = st.lists(st.lists(st.integers(-4, 4).map(lambda k: k / 4), min_size=d,
                               max_size=d), min_size=1, max_size=6).map(
        lambda v: np.asarray(v, dtype=float))
    return st.lists(st.one_of(grid, samples, ints, signed), min_size=1, max_size=3).map(np.vstack)


def cell_labels(count: int):
    """None (the real direction cells) or a random partition of ``count``
    utility rows, as labels for ``core._direction_cells`` to return."""
    return st.one_of(st.none(), st.lists(st.integers(0, 4), min_size=count,
                                         max_size=count).map(np.asarray))


@contextmanager
def kernel_layout(cells: int, labels):
    """Patch the score-block budget and, unless labels is None, the
    direction cells of the rank kernel."""
    with mock.patch.object(core, "_BLOCK_CELLS", cells):
        if labels is None:
            yield
        else:
            with mock.patch.object(core, "_direction_cells", lambda V, n: labels):
                yield


# Seeds for ``random_pivots``; None keeps the real pivots.
pivot_seeds = st.one_of(st.none(), st.integers(0, 2 ** 32 - 1))


@contextmanager
def random_pivots(members, seed):
    """Unless seed is None, patch each direction cell's pivot
    (``core._cell_pivots``) to a random tuple of the 0-based ``members``:
    any member is a valid pivot, so the kernels must return the same
    answers."""
    if seed is None:
        yield
        return
    rng = np.random.default_rng(seed)
    members = np.asarray(members)
    with mock.patch.object(core, "_cell_pivots",
                           lambda order, sizes, pick: rng.choice(members, len(sizes))):
        yield
