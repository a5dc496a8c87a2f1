"""The high-dimensional pipeline, stage by stage.

Discretize the utility sphere (polar grid + Monte-Carlo samples), reduce
threshold coverage to set cover, solve greedily, and wrap a threshold
search around it.  A fresh Monte-Carlo evaluation at the end checks the
result against vectors the solver never saw.
"""

import numpy as np

import rankregret as rr
from rankregret.datagen import GenSpec, generate

d, gamma = 3, 6
grid = rr.polar_grid(d, gamma)
print(f"polar grid: (gamma+1)^(d-1) = {len(grid)} vectors before duplicate removal")
samples = rr.sample_sphere(d, 5, seed=1)
print("five sampled directions:\n", np.round(samples, 3))
print("closeness radius of the grid:", round(rr.grid_closeness_radius(d, gamma), 4))

D = generate(GenSpec("independent", 1000, d, seed=11))
params = rr.HdParams(r=10, gamma=gamma, delta_fail=0.03, seed=7)
m = params.sample_size(D.n, d)
print(f"\nderived sample size m = {m} at delta = {params.delta_fail}")

disc = rr.build_discretization(d, gamma, m, seed=7)
print("discretization:", disc.size, "vectors "
      f"({len(disc.grid_part)} grid + {len(disc.sample_part)} sampled)")

# one set-cover stage at a fixed threshold
B = D.basis_indices
cover = rr.build_cover(D, 5, B, disc)
print(f"threshold 5: {len(cover.uncovered_ids)} vectors not covered by the basis")
Q5 = rr.greedy_min_superset(D, 5, B, disc)
print("greedy cover at threshold 5:", Q5)

# the full search
res = rr.solve_rrm_hd(D, params)
print("\nsolver threshold search:", res.solver_params["cover_calls"])
print("returned set:", res.selected_indices)
print("threshold k' =", res.rank_regret,
      "(direct check:", res.solver_params["discrete_rank_regret"], ")")

rep = rr.estimate_rank_regret(res.selected_indices, D, 100_000, seed=999,
                              ks=[res.rank_regret])
print(f"fresh evaluation: estimated worst rank {rep.estimated_rank_regret}, "
      f"fraction within k' = {rep.rat_k[res.rank_regret]:.4f}")

# a threshold instead of a budget: the greedy cover at k = 5, then smaller budgets
rrr = rr.solve_rrr_hd(D, 5, params)
print(f"representative for k = 5: size {rrr.size}, threshold {rrr.rank_regret}, "
      f"covers {rrr.solver_params['cover_calls']}")
