"""Why minimize rank instead of score gaps: shifting breaks score-based regret.

Adding a constant to an attribute (think Celsius to Kelvin) leaves every
ranking untouched, but it rescales score gaps.  The score-based
regret-ratio objective then switches its preferred tuple, while the
rank-regret objective is provably shift invariant, in 2D and in d > 2.
"""

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
D = rr.Dataset(values)
samples, seed = 100_000, 12

print("original data:")
for t in (3, 7):
    ratio = rr.max_regret_ratio([t], D, samples, seed)
    worst = rr.exact_chain_rank([t], D)
    print(f"  t{t}: max regret-ratio {ratio:.2f}, worst-case rank {worst}")

shifted = rr.shift(D, [0.0, 4.0])
print("\nafter adding 4 to every value of A2:")
for t in (3, 7):
    ratio = rr.max_regret_ratio([t], shifted, samples, seed)
    worst = rr.exact_chain_rank([t], shifted)
    print(f"  t{t}: max regret-ratio {ratio:.2f}, worst-case rank {worst}")

print("\nscore-based selection now prefers t7, whose worst-case rank is last;")
print("rank-based selection still returns t3, exactly as before the shift:")
print("  best single tuple by rank-regret:",
      rr.solve_rrm_2d(shifted, 1).selected_indices)

# the same holds in d > 2: the HD solver's basis is each attribute's top
# tuple, which a shift keeps, so it returns the same set on the shifted table
D3 = rr.generate(rr.GenSpec("anti-correlated", 500, 3, seed=4))
params = rr.HdParams(r=5, seed=4)
print("\nHD solve (d = 3, r = 5) before and after adding (2, 0, 7):")
print("  original:", rr.solve_rrm_hd(D3, params).selected_indices)
print("  shifted: ", rr.solve_rrm_hd(rr.shift(D3, [2.0, 0.0, 7.0]), params).selected_indices)
