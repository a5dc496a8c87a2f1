import tracemalloc

import numpy as np
import pytest
from hypothesis import strategies as st

from rankregret import Dataset

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
