"""Exact belief propagation on trees: the magnetization recursion and oracles.

The magnetization of a node u given observations at its k-th descendant level
is X = P(sigma_u = + | obs) - P(sigma_u = - | obs).  On a tree with channel
strength theta, the child values x_1..x_m combine as

    (prod(1 + theta x_i) - prod(1 - theta x_i))
    / (prod(1 + theta x_i) + prod(1 - theta x_i)),

which this module evaluates in the numerically stable log-ratio form
tanh(sum_i atanh(theta x_i)), with values clipped to |x| <= 1 - ``levels._CLAMP``
so the atanh never blows up.  Products of hundreds of factors would
under/overflow; the tanh form never does, and the clip models
fixed-precision truncation.  Leaves start at +-(1 - 2*delta), the posterior
of an observed +-1 spin (or +-1 sign from an external estimator) seen
through a delta-flip channel; at the default delta = 0 that is the
observation itself.

Two independent routes compute the same posterior: `bp_root` (the recursion)
and `exact_posterior` (brute-force enumeration over all latent spin
assignments).  The enumeration is the ground truth the recursion is tested
against; it stays deliberately naive.
"""

from __future__ import annotations

import numpy as np

from .broadcast import BroadcastTree
from .levels import _check_delta, _check_theta, _combine_levels, bp_up

__all__ = [
    "bp_combine",
    "bp_levels",
    "bp_root",
    "exact_posterior",
]


def bp_combine(children, theta: float):
    """Combine child magnetizations into the parent's.

    Accepts a sequence of values in [-1, 1] and theta in [-1, 1]; an empty
    sequence yields 0.
    """
    _check_theta(theta)
    vals = np.asarray(children, dtype=np.float64).ravel()
    if np.any(np.abs(vals) > 1.0):
        raise ValueError("child magnetizations must lie in [-1, 1]")
    one_parent = np.zeros(vals.size, dtype=np.int64)
    return float(_combine_levels(vals, one_parent, 1, theta)[0])


def bp_levels(tree: BroadcastTree, theta: float, observed, delta: float = 0.0,
              level: int | None = None) -> np.ndarray:
    """Run the recursion from ``level`` up to the root; returns root-level values.

    ``observed`` holds one +-1 value per node of that level, in level order;
    under Galton-Watson extinction interior nodes without children
    contribute magnetization 0.
    """
    _check_theta(theta)
    _check_delta(delta)
    k = tree.check_level(level)
    obs = np.asarray(observed, dtype=np.float64)
    if obs.shape != (tree.sizes[k],):
        raise ValueError(
            f"observation vector has length {obs.size}, level {k} has "
            f"{tree.sizes[k]} nodes"
        )
    if obs.size and not np.all(np.abs(obs) == 1.0):
        raise ValueError("observations must be +-1 valued")
    return bp_up((1.0 - 2.0 * delta) * obs, tree.parent_pos[: k + 1], tree.sizes, theta)


def bp_root(tree: BroadcastTree, theta: float, observed, delta: float = 0.0,
            level: int | None = None) -> float:
    """Root magnetization given +-1 observations on one descendant level."""
    return float(bp_levels(tree, theta, observed, delta=delta, level=level)[0])


def exact_posterior(tree: BroadcastTree, theta: float, observed,
                    delta: float = 0.0, level: int | None = None,
                    guard: int = 2 ** 22) -> float:
    """Brute-force root magnetization: sum over every latent spin assignment.

    Each tree edge contributes a factor (1 + theta * s_u * s_v) / 2 and, when
    ``delta`` > 0, each observed leaf contributes
    (1 + (1 - 2*delta) * s_leaf * obs) / 2 with the leaf spin itself latent.
    At delta = 0 the leaf spins are pinned to the observations.
    Refuses trees whose latent configuration count exceeds ``guard``.
    """
    _check_theta(theta)
    _check_delta(delta)
    k = tree.check_level(level)
    leaf_lo, leaf_hi = int(tree.level_start[k]), int(tree.level_start[k + 1])
    obs = np.asarray(observed, dtype=np.float64)
    if obs.shape != (leaf_hi - leaf_lo,):
        raise ValueError("observation vector length does not match the level")
    if obs.size and not np.all(np.abs(obs) == 1.0):
        raise ValueError("observations must be +-1 valued")

    latent = list(range(leaf_lo))
    if delta:
        latent.extend(range(leaf_lo, leaf_hi))
    L = len(latent)
    if 1 << L > guard:
        raise ValueError(f"2^{L} latent configurations exceed the guard {guard}")

    # spin column per node: latent nodes enumerate, pinned leaves are constant
    configs = 1 << L
    col_of = {u: i for i, u in enumerate(latent)}
    bits = ((np.arange(configs, dtype=np.int64)[:, None] >> np.arange(L)) & 1)
    spins = (2.0 * bits - 1.0) if L else np.zeros((1, 0))

    def spin(u: int) -> np.ndarray:
        if u in col_of:
            return spins[:, col_of[u]]
        return np.full(configs, obs[u - leaf_lo])

    w = np.ones(configs)
    parent = tree.parent
    for v in range(1, leaf_hi):
        w *= 0.5 * (1.0 + theta * spin(v) * spin(parent[v]))
    if delta:
        for v in range(leaf_lo, leaf_hi):
            w *= 0.5 * (1.0 + (1.0 - 2.0 * delta) * spin(v) * obs[v - leaf_lo])

    root = spin(0)
    w_plus = float(w[root > 0].sum())
    w_minus = float(w[root < 0].sum())
    total = w_plus + w_minus
    if total == 0.0:
        raise ValueError("all configurations have zero weight")
    return (w_plus - w_minus) / total
