"""High-dimensional rank-regret pipeline.

For d > 2 the continuous space of unit-norm utility vectors is replaced
by a finite set: a polar-coordinate grid (every direction has a grid
vector within a provable distance) united with Monte-Carlo samples
(coverage of the finite set transfers to the sphere with high
probability).  Selecting tuples so that every finite vector sees a
top-k member is a set-cover instance solved greedily; every top-k comes
from one descending order prefix, exact up to each vector's first basis
tuple: beyond it the cover never reads, as a vector with a basis tuple in
its top-k is already covered.  The prefix is built per direction cell
over the tuples that can reach the cell's top K and can outscore one
basis tuple, the cell's pivot, at some row (threshold-algorithm bounds),
keyed in the blocks of ``core._candidate_blocks`` as the rank kernel is,
with cells that share a pivot joined while that costs few extra keys.
Each block selects its top K by one value sort of int64 keys packed in
place (order-preserving key bits above the candidate's position), and
the build returns each vector's first basis column with its prefix.
For a size budget r, a doubling-plus-binary search finds the smallest
threshold k whose cover fits r.  For a threshold k, the greedy cover at k
bounds the size, and the same search, capped at k, then tries each
smaller budget in turn.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import (Dataset, RegretResult, RestrictedSpace, _canonical, _canonical_at,
                   _candidate_blocks, _key_slack, _set_best, _set_rows, min_ranks_for_vectors)

SAMPLE_CAP = 1_000_000


class ConeSamplingError(RuntimeError):
    """Rejection sampling on a restricted space accepted too few vectors."""


@dataclass(frozen=True)
class HdParams:
    """Parameters of the high-dimensional solver.

    epsilon_utility and the default sample size are derived quantities;
    m can be overridden explicitly.
    """

    r: int
    gamma: int = 6
    delta_fail: float = 0.03
    m: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.r < 1:
            raise ValueError("size budget r must be at least 1")
        if self.gamma < 1:
            raise ValueError("grid parameter gamma must be at least 1")
        if not 0 < self.delta_fail < 1:
            raise ValueError("failure probability must lie in (0, 1)")
        if self.m is not None and self.m < 1:
            raise ValueError("sample size m must be at least 1")

    def epsilon_utility(self, d: int) -> float:
        """Utility slack of the grid: scores of returned tuples are within a
        (1 - epsilon) factor of the k-th best for every direction."""
        return d * math.sqrt(d - 1) * math.pi / (2 * self.gamma)

    def sample_size(self, n: int, d: int) -> int:
        """Monte-Carlo part size; the default formula is capped at 10**6."""
        if self.m is not None:
            return self.m
        if self.delta_fail <= 1.0 / n:
            raise ValueError("failure probability must exceed 1/n to derive m")
        num = math.log(max(n - self.r + 1, 1)) + math.log(n)
        if self.r > d:
            num += (self.r - d) * math.log(n - d)
        m = math.ceil(num / (2 * (self.delta_fail - 1.0 / n) ** 2))
        m = max(m, 1)
        if m > SAMPLE_CAP:
            warnings.warn(
                f"derived sample size {m} exceeds the cap {SAMPLE_CAP}; capping",
                RuntimeWarning,
            )
            m = SAMPLE_CAP
        return m


def grid_closeness_radius(d: int, gamma: int) -> float:
    """Guaranteed distance from any direction to its nearest grid vector."""
    return math.sqrt(d - 1) * math.pi / (4 * gamma)


@dataclass(frozen=True)
class NetBoundParams:
    """Inputs of the coupon-collector sample bound for a delta-net of the
    unit cube's up-facets."""

    c: float
    d: int
    epsilon_net: float

    def __post_init__(self) -> None:
        if self.c < 1:
            raise ValueError("confidence multiplier c must be at least 1")
        if self.d < 2:
            raise ValueError("dimension d must be at least 2")
        if not 0 < self.epsilon_net < 1:
            raise ValueError("epsilon must lie in (0, 1)")

    @property
    def delta_net(self) -> float:
        """Hypercube diameter at the boundary of eps = 2*d*delta/(1+2*d*delta)."""
        return self.epsilon_net / (2 * self.d * (1 - self.epsilon_net))

    @property
    def facet_subdivision(self) -> float:
        return math.sqrt(self.d - 1) / self.delta_net

    @property
    def hypercube_count(self) -> float:
        return self.d * self.facet_subdivision ** (self.d - 1)


def net_bound_value(p: NetBoundParams) -> float:
    """The sample bound before rounding; linear in c."""
    base = 2 * p.d * math.sqrt(p.d - 1) / p.epsilon_net
    return p.c * p.d * base ** (p.d - 1) * (math.log(p.d) + (p.d - 1) * math.log(base))


def net_sample_bound(p: NetBoundParams) -> int:
    """Samples sufficient to hit every facet cell, floor of the bound."""
    return math.floor(net_bound_value(p))


def polar_grid(d: int, gamma: int) -> np.ndarray:
    """All (gamma+1)**(d-1) grid vectors of the polar discretization.

    Each of the d-1 angles ranges over {0, 1, ..., gamma} * pi/(2*gamma)
    and converts to Cartesian coordinates via
    u[i] = sin(theta[d-1]) * ... * sin(theta[i]) * cos(theta[i-1]) with
    theta[0] = 0.  Distinct angle vectors can collapse to the same
    Cartesian vector (any zero sine); duplicates are kept here.
    """
    if d < 2 or gamma < 1:
        raise ValueError("polar grid needs d >= 2 and gamma >= 1")
    angles = np.arange(gamma + 1) * (np.pi / 2) / gamma
    grids = np.meshgrid(*([angles] * (d - 1)), indexing="ij")
    theta = np.stack([g.ravel() for g in grids], axis=1)  # columns theta[1..d-1]
    count = theta.shape[0]
    out = np.empty((count, d))
    sines = np.sin(theta)
    cosines = np.cos(theta)
    # suffix[:, c] = product of sin over angle columns c..d-2 (empty = 1)
    suffix = np.ones((count, d))
    for c in range(d - 2, -1, -1):
        suffix[:, c] = suffix[:, c + 1] * sines[:, c]
    for i in range(1, d + 1):
        cos_term = 1.0 if i == 1 else cosines[:, i - 2]
        out[:, i - 1] = suffix[:, i - 1] * cos_term
    return out


def dedup_vectors(V: np.ndarray) -> np.ndarray:
    """Exact duplicate removal; rows come back in sorted order."""
    return np.unique(np.asarray(V, dtype=float), axis=0)


def filter_grid(grid: np.ndarray, space: RestrictedSpace | None) -> np.ndarray:
    """Grid vectors whose direction lies in the cone.

    Membership of a cone is scale invariant, so the unit-norm vectors are
    tested directly against the halfspaces, exactly and tolerance-free.
    """
    grid = np.asarray(grid, dtype=float)
    return grid[(space or RestrictedSpace()).membership_mask(grid)]


def sample_sphere(d: int, m: int, seed: int,
                  space: RestrictedSpace | None = None) -> np.ndarray:
    """m unit-norm nonnegative vectors, uniform on the admissible sphere patch.

    It draws |N(0,1)| coordinates and normalizes, which is uniform on the
    positive orthant of the sphere.  For a restricted space vectors are
    kept by rejection from batches of 32 768 draws; an acceptance rate
    below 1e-4 on the first, the probe batch, raises ConeSamplingError.
    The full space draws only the rows it still needs; the normal stream
    is sequential, so the vectors are the same either way.
    """
    if m < 1:
        raise ValueError("sample count m must be at least 1")
    rng = np.random.default_rng(seed)
    restricted = space is not None and not space.is_full
    batch = 32768
    chunks: list[np.ndarray] = []
    got = 0
    while got < m:
        raw = np.abs(rng.standard_normal((batch if restricted else m - got, d)))
        norms = np.linalg.norm(raw, axis=1)
        keep = norms > 0
        V = raw[keep] / norms[keep][:, None]
        if restricted:
            V = V[space.membership_mask(V)]
            if not chunks and V.shape[0] / batch < 1e-4:
                raise ConeSamplingError(
                    f"acceptance rate {V.shape[0] / batch:.2e} below 1e-4 on a "
                    f"{batch}-vector probe; the cone is too thin to sample"
                )
        chunks.append(V)
        got += V.shape[0]
    return np.vstack(chunks)[:m]


@dataclass(frozen=True, eq=False)
class Discretization:
    """Finite utility-vector set: polar grid part plus sampled part."""

    vectors: np.ndarray
    grid_part: np.ndarray
    sample_part: np.ndarray
    m: int

    @property
    def size(self) -> int:
        return self.vectors.shape[0]


def build_discretization(d: int, gamma: int, m: int, seed: int,
                         space: RestrictedSpace | None = None) -> Discretization:
    """Grid (filtered for the space, duplicates removed) plus m samples."""
    grid = dedup_vectors(filter_grid(polar_grid(d, gamma), space))
    samples = sample_sphere(d, m, seed, space) if m > 0 else np.empty((0, d))
    vectors = np.vstack([grid, samples]) if samples.size else grid
    return Discretization(vectors, grid, samples, m)


@dataclass(frozen=True, eq=False)
class CoverStructure:
    """Set-cover view of one threshold k.

    uncovered_ids are the vectors whose top-k contains no basis tuple;
    cover_sets maps each useful tuple index to the vector ids it covers.
    """

    uncovered_ids: np.ndarray
    cover_sets: dict[int, np.ndarray]


def _descending_order(D: Dataset, vectors: np.ndarray, K: int,
                      stop=()) -> tuple[np.ndarray, np.ndarray]:
    """First K columns of every vector's descending tuple order by
    canonical score, ties to the lower index, and each row's first-stop
    column.  The columns are exactly ``np.argsort(-core._canonical(vectors,
    D.values), axis=1, kind="stable")[:, :K]``, up to and including each
    row's first tuple of the 1-based index set ``stop``.  After that tuple
    a row's columns are unspecified; a row with no stop tuple in its first
    K places is exact in all of them.  A row's first-stop column is the
    column of that first stop tuple (the row's best stop tuple, ``pick``),
    or K when it is not in the prefix or ``stop`` is empty.

    Only the tuples that ``core._candidate_blocks`` keeps for a row's
    block of direction cells are keyed.  Its pivot test drops the tuples
    that score strictly below one stop tuple, the pivot, at every row of
    the cell: a tuple before a row's first stop tuple scores at least that
    row's best stop tuple, so at least the pivot.  Its floor test drops
    the tuples below the K-th largest lower bound of the pivot test's
    survivors: K tuples score at least that at every row of the cell, so
    no other tuple is in any row's top K.  The stop tuples are always
    keyed, and a block with fewer than K candidates sorts all of them.

    Selection is one value sort of int64 keys packed in place in the key
    block (``_pack``): the key's order-preserving bits, inverted, with the
    candidate's position in the low b = bitlen(|cand| - 1) bits.  Each row
    is partitioned at its (K+1)-th packed key and only the top K are
    sorted; equal truncated keys fall in position order, so the index tie
    rule holds among them.  Keys read back from the packed values are off
    by at most 2^b steps of their last place, so they order as their
    canonical scores do when they lie farther apart than twice
    ``core._key_slack`` with that many steps.  The runs of adjacent prefix
    keys closer than that are re-sorted on canonical scores, ties to the
    lower index (``_sort_runs``); a row whose (K+1)-th key is that close
    to its K-th key, where the partition may have chosen the wrong tuples,
    is sorted stably in full on canonical scores.  The candidates are
    sorted, so positions among them map back to tuples.  Peak working
    memory is O(``_BLOCK_CELLS``) cells whatever K is, plus the N x K
    output.
    """
    V = np.atleast_2d(np.asarray(vectors, dtype=float))
    if not 1 <= K <= D.n:
        raise ValueError(f"order width K must be in 1..{D.n}, got {K}")
    X = D.values
    keep = _set_rows(stop, D.n) if len(stop) else None
    pick = None if keep is None else _set_best(D, V, keep)[1]
    signed = bool(np.signbit(V).any() or np.signbit(X).any())
    near: dict[int, np.ndarray] = {}
    out = np.zeros((V.shape[0], K), dtype=np.int32)
    first = np.full(V.shape[0], K, dtype=np.int64)
    for at, cand, keys in _candidate_blocks(D, V, keep, pick, K):
        Kc, bits = min(K, cand.size), (cand.size - 1).bit_length()
        if bits not in near:
            near[bits] = 2 * _key_slack(V, X, 1 << bits)
        packed = _pack(keys, bits, signed)
        if Kc < cand.size:
            # column Kc of the partition holds the (Kc+1)-th key
            packed.partition(Kc, axis=1)
            after = _unpack(packed[:, Kc], bits, signed)
            top = np.sort(packed[:, :Kc], axis=1)
        else:
            # every candidate is in the prefix and none can spill
            after = np.full(packed.shape[0], -np.inf)
            top = np.sort(packed, axis=1)
        rows = top & ((1 << bits) - 1)
        top_keys = _unpack(top, bits, signed)
        gap = near[bits][at]
        _sort_runs(rows, np.diff(top_keys, axis=1) >= -gap[:, None], V, X, at, cand)
        spill = np.flatnonzero(top_keys[:, Kc - 1] - after <= gap)
        if spill.size:
            score = _canonical(V[at[spill]], X[cand])
            rows[spill] = np.argsort(-score, axis=1, kind="stable")[:, :Kc]
        out[at, :Kc] = cand[rows]
        if pick is not None:
            hit = rows == np.searchsorted(cand, pick[at])[:, None]
            first[at] = np.where(hit.any(axis=1), np.argmax(hit, axis=1), K)
    return out, first


# The bits below an int64 sign bit: xor with them maps a float's bits to
# an integer that orders as the float does, for negative floats too.
_BELOW_SIGN = np.int64(0x7FFF_FFFF_FFFF_FFFF)


def _pack(keys: np.ndarray, bits: int, signed: bool) -> np.ndarray:
    """The float key block as int64 values, in place, whose ascending
    order is the descending key order, ties among keys equal above the low
    ``bits`` bits broken by candidate position.  With f the key's
    order-preserving bits (the sign folded in only when ``signed``: with
    no sign bit in V or X every key is +0.0 or more) and mask the low
    bits, a value is (pos - 1) - (f | mask) = ~((f | mask) - pos): the
    inverted key above the position."""
    f = keys.view(np.int64)
    if signed:
        np.bitwise_xor(f, _BELOW_SIGN, out=f, where=f < 0)
    np.bitwise_or(f, (1 << bits) - 1, out=f)
    np.subtract(np.arange(-1, keys.shape[1] - 1), f, out=f)
    return f


def _unpack(packed: np.ndarray, bits: int, signed: bool) -> np.ndarray:
    """The keys of ``_pack``ed values with their low ``bits`` bits set,
    within 2^bits steps of the last place of the keys packed."""
    f = ~packed | ((1 << bits) - 1)
    if signed:
        np.bitwise_xor(f, _BELOW_SIGN, out=f, where=f < 0)
    return f.view(np.float64)


def _sort_runs(rows: np.ndarray, link: np.ndarray, V: np.ndarray, X: np.ndarray,
               at: np.ndarray, cand: np.ndarray) -> None:
    """Re-sort in place, on canonical scores with ties to the lower index,
    the places of ``rows`` (candidate positions in key order, one row per
    utility row ``at``) that ``link`` ties to a neighbour (adjacent keys
    within the gap).  Keys in different runs of links order as their
    scores do, so only the linked places are re-scored, and sorting all of
    a row's linked places together puts each run back into its own
    places.  Exact duplicate tuples always link, but their runs are short."""
    if not link.any():
        return
    member = np.zeros(rows.shape, dtype=bool)
    member[:, 1:] = link
    member[:, :-1] |= link
    f = np.flatnonzero(member)
    row = f // rows.shape[1]
    flat = rows.reshape(-1)
    t = flat[f]
    score = _canonical_at(V, X, at[row], cand[t])
    flat[f] = t[np.lexsort((t, -score, row))]


def _first_stop(order: np.ndarray, in_stop: np.ndarray) -> np.ndarray:
    """Per row of an order prefix, the first column holding a tuple of the
    0-based mask ``in_stop``, or the prefix width when none does."""
    hit = in_stop[order]
    first = np.argmax(hit, axis=1)
    first[~hit.any(axis=1)] = order.shape[1]
    return first


def _tuple_mask(indices, n: int) -> np.ndarray:
    """Boolean mask over the n tuples of a 1-based index set."""
    mask = np.zeros(n, dtype=bool)
    mask[np.asarray(sorted(indices), dtype=int) - 1] = True
    return mask


def build_cover(D: Dataset, k: int, basis_indices, disc: Discretization) -> CoverStructure:
    """Top-k membership of every vector, reduced by the basis tuples."""
    uncovered_ids, rows = _HdInstance(D, disc, basis_indices, cap=k).uncovered(k)
    by_tuple = np.argsort(rows.ravel(), kind="stable")
    tuples, starts = np.unique(rows.ravel()[by_tuple], return_index=True)
    vectors = np.split(np.repeat(uncovered_ids, k)[by_tuple], starts[1:])
    return CoverStructure(uncovered_ids, {int(t) + 1: v for t, v in zip(tuples, vectors)})


def greedy_min_superset(D: Dataset, k: int, basis_indices,
                        disc: Discretization) -> tuple[int, ...]:
    """Superset of the basis covering every vector at threshold k.

    Classic greedy set cover: repeatedly take the tuple covering the most
    still-uncovered vectors (ties to the lowest index), so the extra
    tuples are within a 1+ln|uncovered| factor of the minimum.  Each pick
    counts the (tuple, vector) pairs of the uncovered vectors at once and
    then drops the pairs of the vectors it covered.
    """
    return _HdInstance(D, disc, basis_indices, cap=k).cover(k)


def discrete_rank_regret(S, D: Dataset, disc: Discretization) -> int:
    """Worst rank-regret of S over the finite vector set, by the pruned
    rank kernel ``min_ranks_for_vectors``."""
    return int(min_ranks_for_vectors(D, disc.vectors, S).max())


class _HdInstance:
    """One cover problem prepared for many thresholds: the dataset, the
    discretization, the 1-based basis (stop) tuples, a descending order
    prefix of every discretization vector, exact up to the vector's first
    basis tuple, with that tuple's column as the build returns it, and
    the greedy cover at every threshold asked for so far.

    A vector whose top-k holds a basis tuple is covered before the greedy
    starts, so the cover never reads its order beyond that tuple.  The
    prefix starts zero wide, with no basis tuple in any row, and a
    threshold k beyond its width widens it to
    ``min(cap, max(k, 2 * width, min(64, ceil(n / log2(n + 1)))))``,
    where cap is the largest threshold the caller will ask for.  Only the
    rows whose prefix holds no basis tuple yet are rebuilt, and their
    basis columns come from that build; every other row keeps its columns
    and is padded with zeros.  ``_first_stop`` scans a prefix only for the
    ranks of a returned set (``_result``).
    """

    def __init__(self, D: Dataset, disc: Discretization, stop_indices, cap: int):
        self.D = D
        self.disc = disc
        self.basis = stop_indices
        self.cap = cap
        self.order = np.zeros((disc.vectors.shape[0], 0), dtype=np.int32)
        self.first_basis = np.zeros(disc.vectors.shape[0], dtype=np.int64)
        self.covers: dict[int, tuple[int, ...]] = {}

    @classmethod
    def for_solve(cls, D: Dataset, params: HdParams, space: RestrictedSpace | None,
                  cap: int | None = None) -> _HdInstance:
        """The instance of a solve: D's basis and the discretization of
        ``params`` over ``space``; cap defaults to n."""
        d, n = D.d, D.n
        if params.r > n:
            raise ValueError(f"budget r={params.r} exceeds the dataset size {n}")
        if params.r < d:
            raise ValueError(f"budget r={params.r} cannot fit the basis (r >= d={d} required)")
        disc = build_discretization(d, params.gamma, params.sample_size(n, d),
                                    params.seed, space)
        return cls(D, disc, D.basis_indices, n if cap is None else cap)

    @property
    def order_width(self) -> int:
        return self.order.shape[1]

    def uncovered(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """The vectors whose top-k holds no basis tuple, and those top-k
        rows, after widening the prefix when it has fewer than k columns.

        Row i of the returned matrix holds the 0-based tuples that cover
        vector ``uncovered_ids[i]``: its entries are the (tuple, vector)
        pairs of the cover instance.
        """
        D = self.D
        if not 1 <= k <= D.n:
            raise ValueError(f"threshold k must be in 1..{D.n}, got {k}")
        width = self.order_width
        if k > width:
            K = min(max(k, 2 * width, min(64, math.ceil(D.n / math.log2(D.n + 1)))), self.cap)
            redo = np.flatnonzero(self.first_basis >= width)
            rows, self.first_basis[redo] = _descending_order(D, self.disc.vectors[redo], K,
                                                             self.basis)
            self.order = np.pad(self.order, ((0, 0), (0, K - width)))
            self.order[redo] = rows
        uncovered_ids = np.flatnonzero(self.first_basis >= k)
        return uncovered_ids, self.order[uncovered_ids, :k]

    def cover(self, k: int) -> tuple[int, ...]:
        """The greedy cover at threshold k (``greedy_min_superset``), built
        on the first call for k."""
        if k not in self.covers:
            rows = self.uncovered(k)[1]
            chosen: list[int] = []
            while rows.shape[0]:
                best = int(np.argmax(np.bincount(rows.ravel())))
                chosen.append(best + 1)
                rows = rows[~(rows == best).any(axis=1)]
            self.covers[k] = tuple(sorted(set(self.basis) | set(chosen)))
        return self.covers[k]


def _search(inst: _HdInstance, r: int) -> tuple[int, tuple[int, ...]] | None:
    """Smallest threshold up to the instance's cap whose greedy cover fits
    budget r, as (threshold, cover); None when the cover at the cap does
    not fit.

    Doubles the threshold from 1 until a cover fits, then binary-searches
    the range above the last threshold that did not.
    """
    k, prev_fail = 1, 0
    while len(inst.cover(k)) > r:
        if k >= inst.cap:
            return None
        prev_fail, k = k, min(2 * k, inst.cap)
    lo, hi = prev_fail + 1, k
    while lo < hi:
        mid = (lo + hi) // 2
        if len(inst.cover(mid)) <= r:
            hi = mid
        else:
            lo = mid + 1
    return hi, inst.cover(hi)


def _result(inst: _HdInstance, params: HdParams, space: RestrictedSpace | None,
            r: int, k: int, Q: tuple[int, ...]) -> RegretResult:
    """The search's cover for budget r, with its cover check re-verified."""
    D, disc = inst.D, inst.disc
    verified = discrete_rank_regret(Q, D, disc)
    # Q holds the basis and covers every vector at k, so each vector's
    # first member of Q lies in its first k columns, at or before its first
    # basis tuple, where the order prefix is exact: its column is Q's rank
    ranks = _first_stop(inst.order[:, :k], _tuple_mask(Q, D.n)) + 1
    if verified > k or ranks.max() != verified:
        raise AssertionError(
            f"cover check failed: discrete rank-regret {verified} against threshold "
            f"{k} and order prefix rank {ranks.max()}"
        )
    witness = int(np.argmax(ranks))
    solver_params = {
        "algo": "hd",
        "r": r,
        "gamma": params.gamma,
        "delta": params.delta_fail,
        "m": disc.m,
        "seed": params.seed,
        "epsilon_utility": params.epsilon_utility(D.d),
        "grid_size": int(disc.grid_part.shape[0]),
        "discretization_size": disc.size,
        "discrete_rank_regret": verified,
        "witness": {"index": witness, "vector": disc.vectors[witness].tolist()},
        "cover_calls": [(c, len(C)) for c, C in inst.covers.items()],
        "order_width": inst.order_width,
        "basis": list(inst.basis),
        "halfspaces": [list(h) for h in (space.halfspaces if space else ())],
    }
    return RegretResult(Q, len(Q), k, solver_params)


def solve_rrm_hd(D: Dataset, params: HdParams,
                 space: RestrictedSpace | None = None) -> RegretResult:
    """Budget-r rank-regret minimization over the discretized utility set.

    Doubles the threshold k until the greedy cover fits the budget, then
    binary-searches the preceding range for the smallest threshold that
    still fits.  The reported rank_regret is that threshold; the direct
    cover check on the returned set is re-verified before returning.
    ``solver_params["cover_calls"]`` lists the (k, size) of every cover
    built, in order, and ``solver_params["order_width"]`` the width of the
    order prefix the solve ended with.  ``solver_params["witness"]`` holds
    the row index and the vector of the first discretization vector at
    which the set's rank is ``discrete_rank_regret``, so
    ``rank_regret_of_set(vector, S, D)`` re-checks that number.
    """
    inst = _HdInstance.for_solve(D, params, space)
    found = _search(inst, params.r)
    if found is None:
        raise AssertionError("threshold n must always fit: basis covers everything")
    return _result(inst, params, space, params.r, *found)


def solve_rrr_hd(D: Dataset, k: int, params: HdParams,
                 space: RestrictedSpace | None = None) -> RegretResult:
    """A small set whose greedy cover reaches worst-case threshold k.

    The greedy cover at k gives the first budget, its size.  The threshold
    search of ``solve_rrm_hd``, capped at k, runs at that budget and then
    at one below the size of each set it finds, until a budget finds no
    cover or falls below the basis size: greedy sizes are not monotone in
    k, so a threshold below k can give a smaller cover.  No threshold above
    k is visited, so the order prefix is built once, k wide, and each
    cover once.
    The cap has a cost: when the cover at k does not fit a budget, a fitting
    threshold between the last doubling step and k is not searched, so this
    set is only measured, not proven, to be no larger than the one an
    uncapped budget search would give.
    Only the returned set is verified.  ``solver_params["r"]`` is its size
    and ``solver_params["cover_calls"]`` lists every cover the query built.
    """
    if not 1 <= k <= D.n:
        raise ValueError(f"threshold k must be in 1..{D.n}, got {k}")
    inst = _HdInstance.for_solve(D, params, space, cap=k)
    r, best = len(inst.cover(k)), None
    while r >= len(inst.basis):
        found = _search(inst, r)
        if found is None:
            break
        best, r = found, len(found[1]) - 1
    res = _result(inst, params, space, len(best[1]), *best)
    res.solver_params.update(algo="hd-rrr", k=k)
    return res


def linear_scan_cover_sizes(D: Dataset, params: HdParams,
                            space: RestrictedSpace | None = None,
                            ks=None) -> dict:
    """Verification mode: greedy cover size for every threshold k in ks
    (default 1..n), built on one instance as the solvers build them.

    Greedy set cover gives no monotonicity guarantee in k, so the
    doubling-plus-binary searches of ``solve_rrm_hd`` and ``solve_rrr_hd``
    can be replayed and checked on this table; any non-monotone pair is
    reported, never raised.
    """
    inst = _HdInstance.for_solve(D, params, space)
    ks = list(range(1, D.n + 1)) if ks is None else sorted(set(int(k) for k in ks))
    sizes = [(k, len(inst.cover(k))) for k in ks]
    smallest_fit = next((k for k, s in sizes if s <= params.r), None)
    non_monotone = [
        (sizes[i][0], sizes[i + 1][0])
        for i in range(len(sizes) - 1)
        if sizes[i + 1][1] > sizes[i][1]
    ]
    return {
        "sizes": sizes,
        "smallest_fit_k": smallest_fit,
        "non_monotone_pairs": non_monotone,
        "m": inst.disc.m,
    }
