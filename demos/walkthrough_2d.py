"""Tour of the core primitives and the exact 2D solver on a 7-tuple table."""

import numpy as np

import rankregret as rr

values = np.array([
    [0.00, 1.00],
    [0.40, 0.95],
    [0.57, 0.75],
    [0.79, 0.60],
    [0.20, 0.50],
    [0.35, 0.30],
    [1.00, 0.00],
])
D = rr.Dataset(values, ("A1", "A2"))

print("dataset:", D)
print("boundary tuples (basis):", D.basis_indices)
print("skyline:", rr.skyline(D))

u = rr.UtilityVector((0.25, 0.75), "sum-one")
print("\nscores under u=(0.25, 0.75):",
      np.round(rr.scores(D, u), 4).tolist())
print("rank of t1 under u:", rr.rank(u, 1, D))
print("top-2 under u=(1, 0):", rr.top_k((1.0, 0.0), 2, D))

print("\nworst-case rank of each single tuple over all utility weights:")
for i in range(1, 8):
    print(f"  t{i}: {rr.exact_chain_rank([i], D)}")

res = rr.solve_rrm_2d(D, r=1)
print("\nbest single tuple:", res.selected_indices, "worst-case rank", res.rank_regret)

res3 = rr.solve_rrm_2d(D, r=3)
print("best 3-subset:", res3.selected_indices, "worst-case rank", res3.rank_regret)

rrr = rr.solve_rrr_2d(D, k=3)
print("smallest subset staying within rank 3:", rrr.selected_indices)

# the dual picture: each tuple is a line, skyline lines carry ordinals
print("\ndual lines (top-to-bottom order at x=0):")
for line in rr.dualize(D):
    tag = f"skyline #{line.skyline_ordinal}" if line.skyline_ordinal is not None else "dominated"
    print(f"  t{line.tuple_index}: y = {line.intercept:.2f} + {line.slope:+.2f}x  ({tag})")
