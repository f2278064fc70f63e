"""Rooted trees and forests (d-ary and Poisson Galton-Watson) and the spin broadcast.

A tree is stored by levels, the layout the tree passes in ``levels`` run on:
``parent_pos[j]`` (j >= 1) gives, for each level-j node, the position of its
parent within level j - 1, and ``parent_pos[0]`` holds one -1 per root, so
several roots make a forest: ``sample_tree(..., roots=n)`` draws n trees.
Children of consecutive nodes are consecutive, so every ``parent_pos[j]`` is
nondecreasing.  Numbering the levels one after another gives the
breadth-first ids of the derived ``parent`` and ``level_start`` views.

The broadcast process assigns each root a uniform +-1 spin and copies each
parent spin to each child independently, flipping with probability ``eta``.
Leaf noise re-flips the spins observed at one chosen level with probability
``delta``; the noise does not propagate.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .levels import _check_delta
from .params import _integer, _real
from .seeding import as_generator

__all__ = [
    "BroadcastTree",
    "sample_tree",
    "run_broadcast",
    "add_leaf_noise",
    "tree_from_parents",
]


@dataclass(frozen=True)
class BroadcastTree:
    """Rooted tree (or forest) by levels, optionally carrying spins and observations.

    ``sigma[j]`` holds the spins of level j; ``tau`` holds the noisy
    observations of level ``tau_level`` only.  Levels past extinction are
    empty.
    """

    parent_pos: list
    sigma: list | None = None
    tau: np.ndarray | None = None
    tau_level: int | None = None

    @property
    def depth(self) -> int:
        return len(self.parent_pos) - 1

    @property
    def sizes(self) -> list[int]:
        return [len(pp) for pp in self.parent_pos]

    def check_level(self, level: int | None) -> int:
        """``level`` (the depth for None), which must lie in [0, depth]."""
        k = self.depth if level is None else level
        if not 0 <= _integer("level", k) <= self.depth:
            raise ValueError(f"level {k} is out of range for a tree of depth {self.depth}")
        return k

    # Arena views: levels numbered one after another, breadth-first.

    @property
    def level_start(self) -> np.ndarray:
        """Level j is ids level_start[j]:level_start[j + 1] (depth + 2 entries)."""
        return np.concatenate(([0], np.cumsum(self.sizes))).astype(np.int64)

    @property
    def n_nodes(self) -> int:
        return sum(self.sizes)

    @property
    def parent(self) -> np.ndarray:
        """Each node's parent id, -1 for a root."""
        ls = self.level_start
        return np.concatenate([self.parent_pos[0]] + [
            pp + ls[j] for j, pp in enumerate(self.parent_pos[1:])])

    def depth_of(self, u: int) -> int:
        return int(np.searchsorted(self.level_start, u, side="right")) - 1


def _check_offspring(kind: str, d: float) -> None:
    """The one check of a tree kind and its offspring mean: kind "gw" or
    "dary", d positive and finite, and an integer for "dary"."""
    if kind not in ("gw", "dary"):
        raise ValueError(f"unknown tree kind {kind!r}")
    if not 0.0 < _real("d", d):
        raise ValueError(f"offspring mean d must be positive and finite, not {d!r}")
    if kind == "dary" and int(d) != d:
        raise ValueError(f"d-ary trees need integer d, not {d!r}")


def _offspring(kind: str, d: float, size: int, rng: np.random.Generator) -> np.ndarray:
    """Child counts of ``size`` nodes: d each ("dary") or i.i.d. Poisson(d)
    ("gw").  The caller has checked kind and d with ``_check_offspring``."""
    if kind == "gw":
        return rng.poisson(d, size).astype(np.int64, copy=False)
    return np.full(size, int(d), dtype=np.int64)


def sample_tree(kind: str, d: float, depth: int, seed=0, roots: int = 1) -> BroadcastTree:
    """Sample tree structure truncated at ``depth`` (no spins): a forest of
    ``roots`` independent trees, one tree by default.

    kind "dary": every node above the last level has exactly d children
    (d must be a positive integer).  kind "gw": child counts are i.i.d.
    Poisson(d); a tree may die out before reaching ``depth``.  Each level's
    child counts are one draw over the whole level.
    """
    _integer("depth", depth, low=0)
    _integer("roots", roots, low=1)
    _check_offspring(kind, d)
    rng = as_generator(seed)
    parent_pos = [np.full(int(roots), -1, dtype=np.int64)]
    for _ in range(depth):
        counts = _offspring(kind, d, len(parent_pos[-1]), rng)
        parent_pos.append(np.repeat(np.arange(len(counts), dtype=np.int64), counts))
    return BroadcastTree(parent_pos=parent_pos)


def tree_from_parents(parents, depth: int | None = None) -> BroadcastTree:
    """Build a tree from an explicit parent list (parents[0] must be -1).

    Any topologically valid parent list is accepted; each level lists its
    nodes in breadth-first order, children in the order of their ids.
    Mainly used to hand-craft small trees in tests and oracles.
    """
    parents = list(parents)
    n = len(parents)
    if n == 0 or parents[0] != -1:
        raise ValueError("parents[0] must be -1 (the root)")
    kids: list[list[int]] = [[] for _ in range(n)]
    for v in range(1, n):
        p = parents[v]
        if not 0 <= p < n:
            raise ValueError(f"bad parent {p} for node {v}")
        kids[p].append(v)
    parent_pos = [np.full(1, -1, dtype=np.int64)]
    front, placed = [0], 1
    while True:
        pos = [i for i, u in enumerate(front) for _ in kids[u]]
        front = [c for u in front for c in kids[u]]
        if not front:
            break
        parent_pos.append(np.array(pos, dtype=np.int64))
        placed += len(front)
    if placed != n:
        raise ValueError("parent list does not describe a single rooted tree")
    target = len(parent_pos) - 1 if depth is None else depth
    if target < len(parent_pos) - 1:
        raise ValueError("declared depth smaller than the deepest node")
    parent_pos += [np.empty(0, dtype=np.int64)] * (target + 1 - len(parent_pos))
    return BroadcastTree(parent_pos=parent_pos)


def run_broadcast(tree: BroadcastTree, eta: float, seed=0, root_sign: int | None = None) -> BroadcastTree:
    """Attach spins: each root uniform +-1 (or forced), each edge flips w.p. eta.

    Returns a new tree sharing the structure arrays.  ``root_sign`` exists for
    conditional Monte Carlo (statistics given sigma_root = +); by the +-
    symmetry of the process this is equivalent to conditioning.
    """
    if not 0.0 <= _real("eta", eta) <= 1.0:
        raise ValueError("eta must lie in [0, 1]")
    rng = as_generator(seed)
    roots = tree.sizes[0]
    if root_sign is None:
        sigma = [np.where(rng.random(roots) < 0.5, 1, -1).astype(np.int8)]
    else:
        if root_sign not in (-1, 1):
            raise ValueError("root_sign must be +-1")
        sigma = [np.full(roots, root_sign, dtype=np.int8)]
    for pp in tree.parent_pos[1:]:
        flips = rng.random(len(pp)) < eta
        par = sigma[-1][pp]
        sigma.append(np.where(flips, -par, par))
    return replace(tree, sigma=sigma)


def add_leaf_noise(tree: BroadcastTree, delta: float, seed=0, level: int | None = None) -> BroadcastTree:
    """Observe level-k spins through an extra flip channel of strength delta.

    tau holds the observations of the chosen level only; an empty level
    (extinct tree) gives an empty tau.
    """
    _check_delta(delta)
    if tree.sigma is None:
        raise ValueError("run_broadcast before adding leaf noise")
    k = tree.check_level(level)
    sig = tree.sigma[k]
    flips = as_generator(seed).random(len(sig)) < delta
    return replace(tree, tau=np.where(flips, -sig, sig), tau_level=k)
