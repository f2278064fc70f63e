"""Rooted trees (d-ary and Poisson Galton-Watson) and the spin broadcast on them.

Trees are stored as flat arenas in breadth-first order: node 0 is the root,
each level occupies a contiguous id range, and the children of consecutive
nodes are themselves consecutive.  A whole level is one slice, and the
per-level parent positions the tree passes in ``levels`` run on are one
subtraction away.

The broadcast process assigns the root a uniform +-1 spin and copies each
parent spin to each child independently, flipping with probability ``eta``.
Leaf noise re-flips the spins observed at one chosen level with probability
``delta``; the noise does not propagate.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

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
    """Flat-arena rooted tree, optionally carrying spins and noisy observations.

    parent[u] is the id of u's parent (-1 for the root).  level_start has
    length depth+2; level j is ids level_start[j]:level_start[j+1] (trailing
    levels may be empty if the tree went extinct early).
    """

    kind: str  # "dary" | "gw" | "custom"
    d: float
    depth: int
    parent: np.ndarray
    level_start: np.ndarray
    sigma: np.ndarray | None = None
    tau: np.ndarray | None = None
    tau_level: int | None = None
    tau_delta: float | None = None

    @property
    def n_nodes(self) -> int:
        return len(self.parent)

    def level(self, j: int) -> np.ndarray:
        """Node ids at depth j (empty array past extinction)."""
        if j < 0 or j > self.depth:
            return np.empty(0, dtype=np.int64)
        return np.arange(self.level_start[j], self.level_start[j + 1], dtype=np.int64)

    def level_size(self, j: int) -> int:
        if j < 0 or j > self.depth:
            return 0
        return int(self.level_start[j + 1] - self.level_start[j])

    def depth_of(self, u: int) -> int:
        return int(np.searchsorted(self.level_start, u, side="right")) - 1

    @property
    def parent_pos(self) -> list:
        """Per level j >= 1, each node's parent position within level j - 1.

        Entry 0 is None; this is the level-list layout of ``levels``.
        """
        ls = self.level_start
        return [None] + [self.parent[ls[j] : ls[j + 1]] - ls[j - 1]
                         for j in range(1, self.depth + 1)]


def _build_arrays(level_counts: list[np.ndarray], depth: int):
    """Assemble parent/level_start from per-node child counts.

    level_counts[j] holds the child count of every level-j node, in id order;
    levels past the last entry are empty, and level_start is padded out to
    depth + 2 entries.
    """
    sizes = [1] + [int(c.sum()) for c in level_counts]
    sizes += [0] * (depth + 1 - len(sizes))
    level_start = np.concatenate(([0], np.cumsum(sizes))).astype(np.int64)
    n = int(level_start[-1])
    parent = np.full(n, -1, dtype=np.int64)
    for j, counts in enumerate(level_counts):
        ids = np.arange(level_start[j], level_start[j + 1], dtype=np.int64)
        parent[level_start[j + 1] : level_start[j + 2]] = np.repeat(ids, counts)
    return parent, level_start


def sample_tree(kind: str, d: float, depth: int, seed=0) -> BroadcastTree:
    """Sample tree structure truncated at ``depth`` (no spins).

    kind "dary": every node above the last level has exactly d children
    (d must be a nonnegative integer).  kind "gw": child counts are i.i.d.
    Poisson(d); the tree may die out before reaching ``depth``.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    if d <= 0:
        raise ValueError("offspring mean d must be positive")
    rng = as_generator(seed)
    level_counts = []
    size = 1
    for _ in range(depth):
        if kind == "dary":
            di = int(d)
            if di != d:
                raise ValueError("d-ary trees need integer d")
            counts = np.full(size, di, dtype=np.int64)
        elif kind == "gw":
            counts = rng.poisson(d, size).astype(np.int64)
        else:
            raise ValueError(f"unknown tree kind {kind!r}")
        level_counts.append(counts)
        size = int(counts.sum())
        if size == 0:
            break  # extinct; the remaining levels are empty
    parent, level_start = _build_arrays(level_counts, depth)
    return BroadcastTree(
        kind=kind,
        d=float(d),
        depth=depth,
        parent=parent,
        level_start=level_start,
    )


def tree_from_parents(parents, depth: int | None = None) -> BroadcastTree:
    """Build a tree from an explicit parent list (parents[0] must be -1).

    Nodes are renumbered into breadth-first arena order, so any topologically
    valid parent list is accepted.  Mainly used to hand-craft small trees in
    tests and oracles.
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
    # BFS renumber
    order = [0]
    head = 0
    while head < len(order):
        order.extend(kids[order[head]])
        head += 1
    if len(order) != n:
        raise ValueError("parent list does not describe a single rooted tree")
    new_id = {old: new for new, old in enumerate(order)}
    depth_of = np.zeros(n, dtype=np.int64)
    for new, old in enumerate(order):
        if old != 0:
            depth_of[new] = depth_of[new_id[parents[old]]] + 1
    max_depth = int(depth_of.max())
    target = max_depth if depth is None else depth
    if target < max_depth:
        raise ValueError("declared depth smaller than the deepest node")
    level_counts = []
    start = 0
    for j in range(target):
        size = int(np.count_nonzero(depth_of == j))
        counts = np.array(
            [len(kids[order[start + i]]) for i in range(size)], dtype=np.int64
        )
        level_counts.append(counts)
        start += size
    parent, level_start = _build_arrays(level_counts, target)
    return BroadcastTree(
        kind="custom",
        d=float("nan"),
        depth=target,
        parent=parent,
        level_start=level_start,
    )


def run_broadcast(tree: BroadcastTree, eta: float, seed=0, root_sign: int | None = None) -> BroadcastTree:
    """Attach spins: root uniform +-1 (or forced), each edge flips w.p. eta.

    Returns a new tree sharing the structure arrays.  ``root_sign`` exists for
    conditional Monte Carlo (statistics given sigma_root = +); by the +-
    symmetry of the process this is equivalent to conditioning.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError("eta must lie in [0, 1]")
    rng = as_generator(seed)
    n = tree.n_nodes
    sigma = np.empty(n, dtype=np.int8)
    if root_sign is None:
        sigma[0] = 1 if rng.random() < 0.5 else -1
    else:
        if root_sign not in (-1, 1):
            raise ValueError("root_sign must be +-1")
        sigma[0] = root_sign
    for j in range(1, tree.depth + 1):
        lo, hi = tree.level_start[j], tree.level_start[j + 1]
        if hi <= lo:
            break
        flips = rng.random(hi - lo) < eta
        par = tree.parent[lo:hi]
        sigma[lo:hi] = np.where(flips, -sigma[par], sigma[par])
    return replace(tree, sigma=sigma)


def add_leaf_noise(tree: BroadcastTree, delta: float, seed=0, level: int | None = None) -> BroadcastTree:
    """Observe level-k spins through an extra flip channel of strength delta.

    tau is defined only on the chosen level (0 elsewhere); an empty level
    (extinct tree) is a no-op apart from bookkeeping.
    """
    if not 0.0 <= delta < 0.5:
        raise ValueError("delta must lie in [0, 1/2)")
    if tree.sigma is None:
        raise ValueError("run_broadcast before adding leaf noise")
    k = tree.depth if level is None else level
    rng = as_generator(seed)
    tau = np.zeros(tree.n_nodes, dtype=np.int8)
    lo, hi = int(tree.level_start[k]), int(tree.level_start[k + 1])
    if hi > lo:
        flips = rng.random(hi - lo) < delta
        tau[lo:hi] = np.where(flips, -tree.sigma[lo:hi], tree.sigma[lo:hi])
    return replace(tree, tau=tau, tau_level=k, tau_delta=delta)
