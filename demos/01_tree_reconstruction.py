"""Reconstructing the root of a broadcast tree from one observed level.

Walks through the basic objects: sample a Poisson tree, broadcast spins down
it, compute the root magnetization with exact BP, check it against the
brute-force posterior, then sweep depth and signal strength to watch the
reconstruction threshold theta^2 d = 1 appear.
"""

import numpy as np

from blockbp import (
    ModelParams,
    bp_root,
    derive_tree_params,
    exact_posterior,
    ks_signal,
    run_broadcast,
    sample_tree,
)
from blockbp.popdyn import magnetization_chain

rng = np.random.default_rng(0)

# one explicit tree, spins attached, root recovered from the deepest level
m = ModelParams(n=100_000, a=5, b=1)
tp = derive_tree_params(m)
print(f"graph intensities a={m.a:g}, b={m.b:g}  ->  tree params d={tp.d:g}, "
      f"eta={tp.eta:.3f}, theta={tp.theta:.3f}; signal theta^2 d = {ks_signal(m):.3f}")

tree = sample_tree("gw", tp.d, depth=4, seed=1)
tree = run_broadcast(tree, tp.eta, seed=2)
obs = tree.sigma[4]
x = bp_root(tree, tp.theta, obs)
x_exact = exact_posterior(tree, tp.theta, obs) if tree.n_nodes <= 18 else None
print(f"\none tree with {tree.n_nodes} nodes, {len(obs)} observed leaves:")
print(f"  true root spin {tree.sigma[0][0]:+d}, BP magnetization {x:+.4f}"
      + (f" (brute force {x_exact:+.4f})" if x_exact is not None else ""))

# Monte Carlo: optimal accuracy (1 + E|X|)/2 as the observed level recedes
print("\noptimal accuracy by depth at theta^2 d = 4/3 (above threshold):")
rows, _ = magnetization_chain("gw", tp.d, tp.theta, 10, 30_000, rng)
for k in (1, 2, 4, 6, 8, 10):
    r = rows[k]
    print(f"  k={k:2d}: p = {(1 + r['absx_mean']) / 2:.4f} +- {r['absx_ci'] / 2:.4f}")
print("(non-increasing in k, stabilizing above 1/2)")

print("\nthe same curve below threshold (a=3, b=2, theta^2 d = 0.1):")
tp_low = derive_tree_params(ModelParams(n=100_000, a=3, b=2))
rows, _ = magnetization_chain("gw", tp_low.d, tp_low.theta, 10, 30_000, rng)
for k in (2, 6, 10):
    r = rows[k]
    print(f"  k={k:2d}: p = {(1 + r['absx_mean']) / 2:.4f} +- {r['absx_ci'] / 2:.4f}")
print("(collapses to coin flipping: the root signal dies out)")
