"""Rank-regret minimization toolkit.

Given a dataset of d-attribute tuples and a size budget r, find a subset
minimizing the worst-case rank of its best member over all (or a convex
cone of) nonnegative linear utility functions.  Includes an exact 2D
solver, a discretization-plus-set-cover pipeline for higher dimensions,
brute-force oracles, and Monte-Carlo evaluators.
"""

from .core import (
    Dataset,
    RegretResult,
    RestrictedSpace,
    UtilityVector,
    min_ranks_for_vectors,
    rank,
    rank_regret_of_set,
    score,
    scores,
    shift,
    top_k,
)
from .datagen import (
    GenSpec,
    generate,
    load_csv,
    load_result,
    save_csv,
    save_result,
)
from .evaluate import EvalReport, estimate_rank_regret, max_regret_ratio
from .oracle import (
    GuardExceededError,
    OracleReport,
    arc_dataset,
    dense_grid_chain_rank,
    exact_rat_k_2d,
    exhaustive_min_cover_size,
    exhaustive_rrm,
)
from .skyline import restricted_skyline, skyline
from .solver2d import (
    DualLine,
    dualize,
    exact_chain_rank,
    render_scene,
    solve_rrm_2d,
    solve_rrr_2d,
)
from .solverhd import (
    ConeSamplingError,
    CoverStructure,
    Discretization,
    HdParams,
    NetBoundParams,
    build_cover,
    build_discretization,
    discrete_rank_regret,
    filter_grid,
    greedy_min_superset,
    grid_closeness_radius,
    linear_scan_cover_sizes,
    net_sample_bound,
    polar_grid,
    sample_sphere,
    solve_rrm_hd,
    solve_rrr_hd,
)

__version__ = "0.1.0"

__all__ = [
    "ConeSamplingError",
    "CoverStructure",
    "Dataset",
    "Discretization",
    "DualLine",
    "EvalReport",
    "GenSpec",
    "GuardExceededError",
    "HdParams",
    "NetBoundParams",
    "OracleReport",
    "RegretResult",
    "RestrictedSpace",
    "UtilityVector",
    "arc_dataset",
    "build_cover",
    "build_discretization",
    "dense_grid_chain_rank",
    "discrete_rank_regret",
    "dualize",
    "estimate_rank_regret",
    "exact_chain_rank",
    "exact_rat_k_2d",
    "exhaustive_min_cover_size",
    "exhaustive_rrm",
    "filter_grid",
    "generate",
    "greedy_min_superset",
    "grid_closeness_radius",
    "linear_scan_cover_sizes",
    "load_csv",
    "load_result",
    "max_regret_ratio",
    "min_ranks_for_vectors",
    "net_sample_bound",
    "polar_grid",
    "rank",
    "rank_regret_of_set",
    "render_scene",
    "sample_sphere",
    "save_csv",
    "save_result",
    "score",
    "scores",
    "shift",
    "solve_rrm_2d",
    "solve_rrm_hd",
    "solve_rrr_2d",
    "solve_rrr_hd",
    "top_k",
]
