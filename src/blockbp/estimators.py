"""Linear root estimators: level majorities and current-weighted majorities.

The plain majority estimator sums the spins (or noisy spins) of one
descendant level and takes the sign.  Its conditional moments on d-ary trees
have closed forms:

    E+ S_k       = (theta d)^k
    E+ S~_k      = (1-2 delta) (theta d)^k
    Var+ S_k     = 4 eta (1-eta) d^k ((theta^2 d)^k - 1) / (theta^2 d - 1)
    Var+ S~_k    = 4 d^k delta (1-delta) + (1-2 delta)^2 Var+ S_k

with the geometric ratio replaced by its limit k when theta^2 d = 1.

The current-weighted majority views the tree as a resistor network: the edge
to a generation-j child carries resistance (1-theta^2) theta^(-2j), and each
observed leaf may carry an extra terminal resistor 4 delta (1-delta)
(1-2 delta)^(-2) theta^(-2k) modelling observation noise.  Trees are
series-parallel, so effective conductance and the unit current flow come from
one post-order sweep; weighting leaf observations by theta^(-k) times the
current into the leaf gives an estimator with conditional mean sigma_root and
conditional variance equal to the network's effective resistance.  On a
forest (``sample_tree(..., roots=n)``) the sweeps run once over every root,
and the estimator gives one value per root; a root whose tree dies out
before the observed level has conductance 0 and estimates 0.  A dense
Laplacian solve of the same network exists in the test suite as an
independent oracle; it is deliberately not used here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .broadcast import BroadcastTree, _check_offspring
from .levels import (_check_conductance_theta, _check_delta, _check_theta,
                     _terminal_conductance, conductance_up, current_down)
from .params import _integer
from .seeding import as_generator

__all__ = [
    "MajorityMoments",
    "ConductanceNetwork",
    "CurrentWeights",
    "majority_moments",
    "majority_estimate",
    "effective_conductance",
    "current_weights",
    "weighted_majority_sign",
]


@dataclass(frozen=True)
class MajorityMoments:
    """Closed-form conditional moments of the level sums on a d-ary tree."""

    mean: float        # E+ S_k
    var: float         # Var+ S_k
    noisy_mean: float  # E+ S~_k
    noisy_var: float   # Var+ S~_k


def majority_moments(d: int, theta: float, k: int, delta: float = 0.0) -> MajorityMoments:
    """Moment formulas above, with eta = (1 - theta) / 2, for an integer d >= 1
    and an integer k >= 0."""
    _check_offspring("dary", d)
    _integer("k", k, low=0)
    _check_theta(theta)
    eta = 0.5 * (1.0 - theta)
    _check_delta(delta)
    s = theta * theta * d
    if abs(s - 1.0) <= 1e-12:
        gsum = float(k)  # limit of ((s^k - 1)/(s - 1)) as s -> 1
    else:
        gsum = (s ** k - 1.0) / (s - 1.0)
    mean = (theta * d) ** k
    var = 4.0 * eta * (1.0 - eta) * d ** k * gsum
    noisy_mean = (1.0 - 2.0 * delta) * mean
    noisy_var = 4.0 * d ** k * delta * (1.0 - delta) + (1.0 - 2.0 * delta) ** 2 * var
    return MajorityMoments(mean=mean, var=var, noisy_mean=noisy_mean, noisy_var=noisy_var)


def majority_estimate(tree: BroadcastTree, use_noisy: bool = False, level: int | None = None) -> int:
    """Sign of the level sum: +-1, or 0 on a tie or an empty (extinct) level."""
    k = tree.check_level(level)
    if tree.sizes[k] == 0:
        return 0
    if use_noisy:
        if tree.tau is None or tree.tau_level != k:
            raise ValueError("tree carries no noisy observations at this level")
        total = int(tree.tau.sum())
    else:
        if tree.sigma is None:
            raise ValueError("tree carries no spins")
        total = int(tree.sigma[k].sum())
    return (total > 0) - (total < 0)


@dataclass(frozen=True)
class ConductanceNetwork:
    """Resistor view of a depth-k tree and its root effective conductance.

    ``zs`` and ``cs`` are ``levels.conductance_up``'s per-level lists:
    ``zs[j][i]`` is the conductance between level-j node i and the terminal
    set in units local to generation j, so ``zs[0][0]`` is ``ceff``;
    ``cs[j][i]`` (j >= 1) is that subtree conductance composed through the
    edge to the parent, in the parent's local units.
    """

    ceff: float
    zs: list
    cs: list


def effective_conductance(tree: BroadcastTree, theta: float, delta: float = 0.0,
                          k: int | None = None) -> ConductanceNetwork:
    """Series-parallel reduction, leaves to root, in one post-order sweep.

    A child subtree of local conductance Z composes through its parent edge
    as theta^2 Z / ((1-theta^2) Z + 1); siblings add.  An extinct tree has
    ceff = 0; at delta = 0 and k = 0 the root is itself a terminal and
    ceff = inf.  ``ceff`` is the first root's; on a forest ``zs[0]`` holds
    every root's conductance.
    """
    _check_conductance_theta(theta)
    k = tree.check_level(k)
    zs, cs = conductance_up(np.full(tree.sizes[k], _terminal_conductance(delta)),
                            tree.parent_pos[: k + 1], tree.sizes, theta)
    return ConductanceNetwork(ceff=float(zs[0][0]), zs=zs, cs=cs)


@dataclass(frozen=True)
class CurrentWeights:
    """Unit-current leaf weights for the linear root estimator, per root.

    ``weights[i]`` and ``root[i]`` are the weight of level-k node i and the
    position of its root.  Each root's weights sum to theta^(-k), or are
    absent when its tree is extinct before level k.
    """

    weights: np.ndarray
    root: np.ndarray
    delta: float
    network: ConductanceNetwork

    def estimate(self, observations) -> np.ndarray:
        """Each root's sum(w * obs) / (1 - 2 delta): conditional mean
        sigma_root for observations at noise level ``delta``, and 0 for an
        extinct root."""
        obs = np.asarray(observations, dtype=np.float64)
        if obs.shape != self.weights.shape:
            raise ValueError("observation vector does not match the leaf level")
        # an empty level would give bincount's integer zeros
        sums = np.bincount(self.root, weights=self.weights * obs,
                           minlength=len(self.network.zs[0])).astype(float, copy=False)
        return sums / (1.0 - 2.0 * self.delta)


def current_weights(tree: BroadcastTree, theta: float, delta: float = 0.0,
                    k: int | None = None) -> CurrentWeights:
    """Weights proportional to the unit current flow from each root to its leaves.

    Splits the unit current at every node proportionally to the composed
    branch conductances from ``effective_conductance``; leaf v gets weight
    theta^(-k) * current(v).  A root whose tree is extinct before level k
    has conductance 0, no leaves and an estimate of 0.
    """
    k = tree.check_level(k)
    net = effective_conductance(tree, theta, delta=delta, k=k)
    cur, root = current_down(net.zs, net.cs, tree.parent_pos[: k + 1])
    return CurrentWeights(weights=cur * theta ** (-k), root=root, delta=delta, network=net)


def weighted_majority_sign(tree: BroadcastTree, observations, theta: float,
                           rng, delta: float = 0.0, k: int | None = None) -> int:
    """Sign of the first root's current-weighted estimate; 0 goes to a fair coin.

    An extinct tree (no observed level) estimates 0 and so also falls back
    to the coin: by the +- symmetry of the model a silent default to +1
    would bias everything downstream.
    """
    rng = as_generator(rng)
    val = current_weights(tree, theta, delta=delta, k=k).estimate(observations)[0]
    if val == 0.0:
        return 1 if rng.random() < 0.5 else -1
    return 1 if val > 0 else -1
