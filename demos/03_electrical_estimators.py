"""Linear root estimators: level majorities and current-weighted votes.

On regular trees the plain majority of one level has closed-form moments.
On irregular (Galton-Watson) trees the right generalization weights each leaf
by the unit current flowing to it in a resistor network whose edge to a
generation-j child has resistance (1-theta^2) theta^(-2j): the weighted sum
is conditionally unbiased for the root spin and its conditional variance is
exactly the network's effective resistance.  The same weights on a forest
give one estimate per root.
"""

import numpy as np

from blockbp import (
    add_leaf_noise,
    current_weights,
    effective_conductance,
    majority_moments,
    run_broadcast,
    sample_tree,
    tree_from_parents,
)

# closed-form majority moments vs a quick simulation
d, theta, k = 3, 0.6, 3
mom = majority_moments(d, theta, k, delta=0.2)
print(f"d-ary d={d}, theta={theta}, k={k}: E+S = {mom.mean:.3f}, "
      f"Var+S = {mom.var:.3f}, E+S~ = {mom.noisy_mean:.3f}, Var+S~ = {mom.noisy_var:.3f}")

# a hand-built lopsided tree: the electrical view
t = tree_from_parents([-1, 0, 0, 1, 1, 1, 2])
net = effective_conductance(t, theta)
cw = current_weights(t, theta)
print(f"\nlopsided tree (one child with 3 grandchildren, one with 1):")
print(f"  effective conductance to level 2: {net.ceff:.4f}")
print(f"  leaf weights: {np.round(cw.weights, 4)} (sum = theta^-2 = {theta ** -2:.3f})")
print("  the busier branch carries more current, so its leaves weigh more per vote")

# the defining identities, Monte Carlo over random trees
# a forest is a tree with many roots: 50k trees from one generator, each
# root's spin forced to +; current_weights gives one estimate per root, and
# a root whose tree died out has conductance 0
rng = np.random.default_rng(0)
forest = run_broadcast(sample_tree("gw", 3.0, 4, rng, roots=50_000), (1 - theta) / 2, rng,
                       root_sign=1)
tau = add_leaf_noise(forest, 0.2, np.random.default_rng(1)).tau
clean, noisy = current_weights(forest, theta), current_weights(forest, theta, delta=0.2)
alive = clean.network.zs[0] > 0
r, s = clean.estimate(forest.sigma[4])[alive], noisy.estimate(tau)[alive]
reff = 1.0 / clean.network.zs[0][alive]
reffn = 1.0 / noisy.network.zs[0][alive]
print(f"\nGalton-Watson d=3, k=4, 50k trees (conditioned on sigma_root = +):")
print(f"  E[R] = {r.mean():+.4f}   (identity: +1)")
print(f"  Var[R] = {r.var():.3f}  vs  E[R_eff] = {reff.mean():.3f}")
print(f"  E[S] = {s.mean():+.4f}   (noisy leaves, delta = 0.2; identity: +1)")
print(f"  Var[S] = {s.var():.3f}  vs  E[R'_eff] = {reffn.mean():.3f}")

# majority vs weighted majority as root estimators on one sampled tree
tree = run_broadcast(sample_tree("gw", 3.0, 4, seed=5), (1 - theta) / 2, seed=6)
obs = tree.sigma[4]
from blockbp import majority_estimate, weighted_majority_sign

print(f"\none sampled tree, true root {tree.sigma[0][0]:+d}: "
      f"plain majority votes {majority_estimate(tree):+d}, "
      f"weighted majority votes {weighted_majority_sign(tree, obs, theta, rng=7):+d}")
