"""Independent oracles used by the test suite.

These deliberately share no code with the library paths they check: the
resistor network is solved as a dense Laplacian system, estimator moments and
the law of the d-ary level sums are computed by exhaustive enumeration over
edge flips and leaf noise, and rooted tree shapes are enumerated via level
sequences.

The per-slot population chains keep the form the library's chains had
before a generation became one sparse operator: they gather the pool at
every child slot, transform each slot (the magnetization chain its flip
sign times its pool member through the BP level combine, the conductance
chain its member composed through the edge) and add each new member's slots
with ``np.bincount``.  They share the offspring draw, the row statistics,
the block size ``popdyn._BLOCK_SLOTS`` and (magnetization) the level
combine with the library, so bit-equality with
``popdyn.magnetization_chain`` and ``popdyn.conductance_chain`` checks a
generation's stream and sums: the row blocks, the pool-side edge transform,
the flip signs and the sparse product's sums.  ``generation_draws`` draws a
generation in the library's stream order (the offspring counts, then each
row block's children and flips), with its own rule for cutting the blocks,
and ``generation_operator`` is that generation as one whole sparse
operator; ``popdyn._generation_sums`` must give its product bit for bit
and leave the generator where it does.  ``dary_sums_whole`` is the level
sums' draw over whole arrays, from one generator: each trial block of
``popdyn.dary_sum_trials``, drawn from its derived stream, must be it.

The recovery oracle is a per-vertex loop over explicit trees: for every
vertex it builds the depth-R non-backtracking walk tree node by node (or,
as a reference, the BFS tree of the ball), with each node's vertex image and
the directed CSR slot it came through, and runs one two-stage root
computation on it: an exact integer vote at K = 1, the current-split vote of
the resistor network with a relative tie test at K >= 2.  Vote ties below
the root read their slot's coin and root-level coins the vertex's uniform,
as the library keys them.  It shares only the terminal conductance and the
stages around labelling with the library, so agreement with
``pipeline.recover`` checks the message passing on directed edges, the
reverse slots, the walk-length and anchor-distance rounds and the coin keys.

The conductance and current passes are kept here as frozen references
(``compose_through_edge``, ``conductance_up``, ``current_down``), written
with a masked reciprocal and an explicit unit current at level 0, so that a
rewrite of ``blockbp.levels`` must reproduce them bit for bit.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import scipy.sparse as sp

from blockbp import popdyn
from blockbp.broadcast import BroadcastTree, _offspring
from blockbp.levels import _combine_levels, _terminal_conductance
from blockbp.params import derive_tree_params
from blockbp.partition import blackbox_partition
from blockbp.pipeline import align_partition, choose_anchor, resolve_radius
from blockbp.popdyn import _stat
from blockbp.randgraph import remove_set
from blockbp.seeding import derived_rng


def laplacian_network(tree: BroadcastTree, theta: float, delta=0.0, k=None):
    """Solve the resistor network with a dense Laplacian; unit current at root.

    Returns (ceff, leaf_currents) where leaf_currents[v] is the current into
    the terminal through level-k node v.  Requires a non-extinct tree with
    k >= 1 (the k = 0, delta = 0 case is a short circuit).
    """
    k = tree.depth if k is None else k
    leaves = list(range(int(tree.level_start[k]), int(tree.level_start[k + 1])))
    if not leaves:
        return 0.0, {}
    t2 = theta * theta
    nodes = list(range(int(tree.level_start[k + 1])))  # depth <= k

    if not delta:
        if k == 0:
            return float("inf"), {}
        # contract the level-k nodes into the terminal
        idx = {}
        nxt = 0
        for u in nodes:
            if u in set(leaves):
                continue
            idx[u] = nxt
            nxt += 1
        term = nxt
        size = nxt + 1

        def node_index(u):
            return term if u in set(leaves) else idx[u]
    else:
        idx = {u: i for i, u in enumerate(nodes)}
        term = len(nodes)
        size = term + 1

        def node_index(u):
            return idx[u]

    lap = np.zeros((size, size))

    def add_conductance(i, j, g):
        lap[i, i] += g
        lap[j, j] += g
        lap[i, j] -= g
        lap[j, i] -= g

    parent = tree.parent
    for u in nodes[1:]:
        j_gen = tree.depth_of(u)
        g = t2 ** j_gen / (1.0 - t2)
        add_conductance(node_index(u), node_index(int(parent[u])), g)
    if delta:
        g_term = t2 ** k * (1.0 - 2.0 * delta) ** 2 / (4.0 * delta * (1.0 - delta))
        for v in leaves:
            add_conductance(node_index(v), term, g_term)

    root = node_index(0)
    keep = [i for i in range(size) if i != term]
    reduced = lap[np.ix_(keep, keep)]
    rhs = np.zeros(len(keep))
    rhs[keep.index(root)] = 1.0
    x_red = np.linalg.solve(reduced, rhs)
    x = np.zeros(size)
    for pos, i in enumerate(keep):
        x[i] = x_red[pos]

    reff = x[root]
    currents = {}
    for v in leaves:
        if not delta:
            j_gen = tree.depth_of(v)
            g = t2 ** j_gen / (1.0 - t2)
            currents[v] = g * x[node_index(int(parent[v]))]
        else:
            g_term = t2 ** k * (1.0 - 2.0 * delta) ** 2 / (4.0 * delta * (1.0 - delta))
            currents[v] = g_term * x[node_index(v)]
    return 1.0 / reff, currents


def enumerate_estimator_moments(tree: BroadcastTree, theta: float, weights,
                                delta: float = 0.0, k=None):
    """Exact E(R | sigma_root = +) and Var(R | sigma_root = +) by enumeration.

    R = sum_v w(v) * obs_v over the level-k nodes, where obs is the spin
    itself (delta 0) or the spin flipped with probability delta and the
    sum rescaled by 1/(1-2 delta).
    """
    k = tree.depth if k is None else k
    n = int(tree.level_start[k + 1])
    leaves = list(range(int(tree.level_start[k]), n))
    w = {v: float(weights[i]) for i, v in enumerate(leaves)}
    total_p = 0.0
    mean = 0.0
    second = 0.0
    flip_choices = [1, -1] if delta else [1]
    parent = tree.parent
    for spins in itertools.product([1, -1], repeat=n - 1):
        s = (1,) + spins  # condition on sigma_root = +
        p = 1.0
        for v in range(1, n):
            p *= 0.5 * (1.0 + theta * s[v] * s[int(parent[v])])
        for flips in itertools.product(flip_choices, repeat=len(leaves) if delta else 0):
            pf = p
            val = 0.0
            for i, v in enumerate(leaves):
                if delta:
                    f = flips[i]
                    pf *= (1.0 - delta) if f == 1 else delta
                    val += w[v] * s[v] * f
                else:
                    val += w[v] * s[v]
            if delta:
                val /= 1.0 - 2.0 * delta
            total_p += pf
            mean += pf * val
            second += pf * val * val
    mean /= total_p
    second /= total_p
    return mean, second - mean * mean


def dary_level_sum_pmf(d: int, k: int, theta: float, delta: float) -> dict:
    """Exact joint law of (S_k, S~_k) on the depth-k d-ary tree, sigma_root = +.

    Enumerates every pattern of edge flips (each with probability eta) and,
    for each, every pattern of leaf noise (each leaf flipped with probability
    delta).  Nodes are numbered breadth first, root 0, so node i >= 1 has
    parent (i - 1) // d and the last d^k nodes are the leaves.  Returns
    {(s, s_noisy): probability}.
    """
    eta = 0.5 * (1.0 - theta)
    n_leaves = d ** k
    n_edges = sum(d ** j for j in range(1, k + 1))
    edge_bits = (np.arange(2 ** n_edges)[:, None] >> np.arange(n_edges)) & 1
    spins = np.ones((2 ** n_edges, n_edges + 1), dtype=np.int64)
    for i in range(1, n_edges + 1):
        spins[:, i] = spins[:, (i - 1) // d] * (1 - 2 * edge_bits[:, i - 1])
    leaves = spins[:, -n_leaves:]
    n_flips = edge_bits.sum(axis=1)
    p_edges = eta ** n_flips * (1.0 - eta) ** (n_edges - n_flips)
    noise_bits = (np.arange(2 ** n_leaves)[:, None] >> np.arange(n_leaves)) & 1
    n_noisy = noise_bits.sum(axis=1)
    p_noise = delta ** n_noisy * (1.0 - delta) ** (n_leaves - n_noisy)
    s = np.repeat(leaves.sum(axis=1), 2 ** n_leaves)
    s_noisy = (leaves @ (1 - 2 * noise_bits).T).ravel()  # edge-major, like s
    # the sums are even or odd with n_leaves; code each pair as one integer
    side = n_leaves + 1
    code = (s + n_leaves) // 2 * side + (s_noisy + n_leaves) // 2
    mass = np.bincount(code, weights=np.outer(p_edges, p_noise).ravel(),
                       minlength=side * side)
    return {(2 * (c // side) - n_leaves, 2 * (c % side) - n_leaves): float(mass[c])
            for c in np.flatnonzero(mass)}


def dary_sums_whole(d: int, theta: float, k: int, trials: int, rng, deltas) -> list:
    """The level sums of ``trials`` d-ary trials drawn as whole arrays.

    Draws every level's minus-spin counts as one (k + 1) x trials binomial
    pair after another, then, for each nonzero noise level, resets the
    generator to the state the spins left and draws that level's observed
    minus counts likewise.  Returns one (s, sn) per level of ``deltas``.
    """
    eta = 0.5 * (1.0 - theta)
    width = np.array([d ** j for j in range(k + 1)], dtype=np.int64)[:, None]
    minus = np.zeros((k + 1, trials), dtype=np.int64)
    for j in range(1, k + 1):
        minus[j] = (rng.binomial(d * (width[j - 1] - minus[j - 1]), eta)
                    + rng.binomial(d * minus[j - 1], 1.0 - eta))
    s = (width - 2 * minus).astype(float)
    after_spins = rng.bit_generator.state
    out = []
    for delta in deltas:
        if delta == 0.0:
            out.append((s, s.copy()))
            continue
        rng.bit_generator.state = after_spins
        seen = rng.binomial(width - minus, delta) + rng.binomial(minus, 1.0 - delta)
        out.append((s, (width - 2 * seen).astype(float)))
    return out


def magnetization_chain_per_slot(kind: str, d: float, theta: float, k: int,
                                 trials: int, rng, *, delta: float = 0.0,
                                 y_init: str = "noisy"):
    """``popdyn.magnetization_chain`` with the edge transform on every child slot.

    Draws the same random numbers in the same order; returns (rows, pools).
    """
    eta = 0.5 * (1.0 - theta)
    tau = np.where(rng.random(trials) < delta, -1.0, 1.0)
    x = np.ones(trials)
    y = (1.0 - 2.0 * delta) * tau if y_init == "noisy" else tau.copy()

    def row(level: int) -> dict:
        out = {"level": level, "n": trials}
        for name, v in (("x", x), ("absx", np.abs(x)), ("y", y), ("absy", np.abs(y)),
                        ("diff2", (x - y) ** 2), ("sqrtdiff", np.sqrt(np.abs(x - y)))):
            out.update(_stat(name, v, trials))
        return out

    rows = [row(0)]
    for level in range(1, k + 1):
        counts, idx, sgn = generation_draws(kind, d, trials, rng, eta)
        seg = np.repeat(np.arange(trials), counts)
        x = _combine_levels(sgn * x[idx], seg, trials, theta)
        y = _combine_levels(sgn * y[idx], seg, trials, theta)
        rows.append(row(level))
    return rows, {"x": x, "y": y}


def _block_bounds(counts, block: int) -> list:
    """Row blocks cut greedily: a row joins the open block while the block
    stays within ``block`` slots, and a wider row is a block alone."""
    bounds, total = [0], 0
    for i, c in enumerate(counts.tolist()):
        if total + c > block and i > bounds[-1]:
            bounds.append(i)
            total = 0
        total += c
    bounds.append(len(counts))
    return bounds


def generation_draws(kind: str, d: float, trials: int, rng, eta=None):
    """One generation's draws in stream order: (counts, children, signs).

    Draws the offspring counts, then, one row block of at most
    ``popdyn._BLOCK_SLOTS`` slots after another, the block's children and
    then its flip signs: -1 where a uniform falls below ``eta`` (1 for every
    child when ``eta`` is None, and no uniforms are drawn).
    """
    counts = _offspring(kind, d, trials, rng)
    bounds = _block_bounds(counts, popdyn._BLOCK_SLOTS)
    idx, sign = [], []
    for r0, r1 in zip(bounds, bounds[1:]):
        n = int(counts[r0:r1].sum())
        idx.append(rng.integers(0, trials, n))
        sign.append(np.ones(n) if eta is None else np.where(rng.random(n) < eta, -1.0, 1.0))
    return counts, np.concatenate(idx), np.concatenate(sign)


def generation_operator(kind: str, d: float, trials: int, rng, eta=None) -> sp.csr_array:
    """One generation as a whole sparse trials x trials operator on the pool.

    Row i holds the pool members drawn as new member i's children, in draw
    order, each valued by its flip sign (``generation_draws``).
    """
    counts, idx, sign = generation_draws(kind, d, trials, rng, eta)
    indptr = np.concatenate([[0], np.cumsum(counts)])
    return sp.csr_array((sign, idx, indptr), shape=(trials, trials))


def conductance_chain_per_slot(kind: str, d: float, theta: float, k: int,
                               trials: int, rng, *, delta=0.0, keep_levels=()):
    """``popdyn.conductance_chain`` with every child slot composed through its edge.

    Draws the same random numbers in the same order; returns (rows, pools).
    """
    z = np.full(trials, _terminal_conductance(delta))
    rows, pools = [], {}
    for level in range(1, k + 1):
        counts, idx, _ = generation_draws(kind, d, trials, rng)
        seg = np.repeat(np.arange(trials), counts)
        z = np.bincount(seg, weights=compose_through_edge(z[idx], theta),
                        minlength=trials).astype(float)
        rows.append({"level": level, "n": trials, "alive_frac": float((z > 0).mean()),
                     **_stat("ceff", z, trials)})
        if level in keep_levels or level == k:
            pools[level] = z
    return rows, pools


def rooted_tree_parent_lists(max_nodes: int):
    """All unlabeled rooted tree shapes with 1..max_nodes nodes, as parent lists.

    Level-sequence successor enumeration: start from the path, repeatedly
    find the last entry > 1 (0-based levels), decrement it, and copy the
    prefix pattern.  Yields each shape once.
    """
    for n in range(1, max_nodes + 1):
        if n == 1:
            yield [-1]
            continue
        levels = list(range(n))  # the path: 0, 1, ..., n-1
        while True:
            yield _parents_from_levels(levels)
            p = max((i for i in range(n) if levels[i] > 1), default=None)
            if p is None:
                break
            q = max(i for i in range(p) if levels[i] == levels[p] - 1)
            for i in range(p, n):
                levels[i] = levels[i - (p - q)]


def _parents_from_levels(levels):
    parents = [-1] * len(levels)
    for i in range(1, len(levels)):
        for j in range(i - 1, -1, -1):
            if levels[j] == levels[i] - 1:
                parents[i] = j
                break
    return parents


# --- frozen conductance and current passes ----------------------------------


def compose_through_edge(z, theta):
    """Subtree conductance z in series with its parent edge, parent's units."""
    t2 = theta * theta
    inv = np.full_like(z, np.inf)
    np.divide(1.0, z, out=inv, where=z > 0)  # z=inf -> 0, z=0 -> stays inf
    return t2 / ((1.0 - t2) + inv)


def conductance_up(z, parent_pos, sizes, theta):
    """(zs, cs) of the series-parallel reduction from terminals on the last level."""
    last = len(parent_pos) - 1
    zs, cs = [None] * (last + 1), [None] * (last + 1)
    zs[last] = z
    for j in range(last, 0, -1):
        cs[j] = compose_through_edge(zs[j], theta)
        zs[j - 1] = np.bincount(parent_pos[j], weights=cs[j],
                                minlength=sizes[j - 1]).astype(float)
    return zs, cs


def current_down(zs, cs, parent_pos):
    """(current, level-0 ancestor) on the last level from unit root currents."""
    cur = np.ones(len(zs[0]))
    root = np.arange(len(zs[0]), dtype=np.int64)
    for j in range(1, len(parent_pos)):
        pp = parent_pos[j]
        zpar = zs[j - 1][pp]
        frac = np.zeros(len(pp))
        np.divide(cs[j], zpar, out=frac, where=zpar > 0)
        cur = cur[pp] * frac
        root = root[pp]
    return cur, root


# --- per-vertex recovery loop ------------------------------------------------


def bfs_levels(indptr, indices, v, radius, visited):
    """Shells and smallest-id-discoverer parents; ``visited`` is clean scratch.

    Returns (levels, parent_pos, n_induced_edges) and cleans ``visited``.
    """
    levels = [np.array([v], dtype=np.int64)]
    parent_pos = [None]
    visited[v] = True
    for _ in range(radius):
        front = levels[-1]
        degs = indptr[front + 1] - indptr[front]
        total = int(degs.sum())
        if total == 0:
            break
        starts = indptr[front]
        offs = np.repeat(starts - np.concatenate(([0], np.cumsum(degs)[:-1])), degs)
        cand = indices[offs + np.arange(total, dtype=np.int64)]
        ppos = np.repeat(np.arange(len(front), dtype=np.int64), degs)
        keep = ~visited[cand]
        cand, ppos = cand[keep], ppos[keep]
        if len(cand) == 0:
            break
        order = np.lexsort((front[ppos], cand))
        cand, ppos = cand[order], ppos[order]
        first = np.ones(len(cand), dtype=bool)
        first[1:] = cand[1:] != cand[:-1]
        nxt = cand[first]
        visited[nxt] = True
        levels.append(nxt)
        parent_pos.append(ppos[first])
    ball = np.concatenate(levels)
    degs = indptr[ball + 1] - indptr[ball]
    offs = np.repeat(indptr[ball] - np.concatenate(([0], np.cumsum(degs)[:-1])), degs)
    nbrs = indices[offs + np.arange(int(degs.sum()), dtype=np.int64)]
    induced = int(visited[nbrs].sum()) // 2
    visited[ball] = False
    return levels, parent_pos, induced


def bfs_extra_edges(indptr, indices, v, radius, visited):
    """Induced edges of B(v, radius) that are neither BFS-tree edges nor on
    the sphere: ``bfs_levels``' induced edges - (|B| - 1) - the edges with
    both ends at distance ``radius``.  It is 0 exactly when v's
    depth-``radius`` non-backtracking walk tree visits no vertex twice.
    ``visited`` is clean scratch and is left clean.
    """
    levels, _, induced = bfs_levels(indptr, indices, v, radius, visited)
    sphere = levels[radius] if len(levels) > radius else np.empty(0, dtype=np.int64)
    visited[sphere] = True
    on_sphere = sum(int(visited[indices[indptr[x]:indptr[x + 1]]].sum()) for x in sphere)
    visited[sphere] = False
    return induced - (sum(len(lvl) for lvl in levels) - 1) - on_sphere // 2


def bfs_slots(indptr, indices, levels, parent_pos):
    """Per level, the CSR slot (row parent, neighbour node) each BFS node came through."""
    slots = [np.array([-1])]
    for j in range(1, len(levels)):
        parents = levels[j - 1][parent_pos[j]]
        slots.append(np.array([
            int(indptr[x]) + int(np.searchsorted(indices[indptr[x]:indptr[x + 1]], y))
            for x, y in zip(parents, levels[j])], dtype=np.int64))
    return slots


def walk_tree(indptr, indices, v, radius):
    """The depth-``radius`` non-backtracking walk tree from v, node by node.

    Level j lists one node per walk of length j that never steps straight
    back: its vertex image, the position of its parent within level j - 1
    and the CSR slot (row parent image, neighbour image) it came through.
    Children follow their parent's row in slot order.  Returns (levels,
    parent_pos, slots); every level is present, empty past a dead end.
    """
    levels, parent_pos = [np.array([v], dtype=np.int64)], [None]
    slots = [np.array([-1], dtype=np.int64)]
    came_from = [-1]
    for _ in range(radius):
        img, pos, through, back = [], [], [], []
        for i, x in enumerate(levels[-1].tolist()):
            for s in range(int(indptr[x]), int(indptr[x + 1])):
                y = int(indices[s])
                if y != came_from[i]:
                    img.append(y), pos.append(i), through.append(s), back.append(x)
        levels.append(np.array(img, dtype=np.int64))
        parent_pos.append(np.array(pos, dtype=np.int64))
        slots.append(np.array(through, dtype=np.int64))
        came_from = back
    return levels, parent_pos, slots


def revisits(levels) -> bool:
    """Does a tree given by its per-level vertex images visit a vertex twice?"""
    images = np.concatenate(levels)
    return len(np.unique(images)) < len(images)


# a float sum is 0 when |sum| <= TIE_ULPS * eps * (sum of the magnitudes)
TIE_ULPS = 4096


def _zero_ties(sums, magnitudes):
    sums[np.abs(sums) <= TIE_ULPS * np.finfo(np.float64).eps * magnitudes] = 0.0
    return sums


def two_stage_root(levels, parent_pos, xi, theta, big_k, clamp, coins):
    """Hard votes at level R-K, then BP to the root; R = len(levels) - 1.

    At K = 1 the vote is the sign of the integer sum of the children's
    sides; at K >= 2 the sign of the current-split sum of the resistor
    network with noiseless terminals at the leaves.  Every float sum (those
    votes and each node's BP sum of child LLRs) is 0 when it is within
    TIE_ULPS ulps of the sum of its terms' magnitudes.  A vote tie below the
    root takes the node's entry of ``coins`` (+-1 per level-(R-K) node); a
    tie at the root (K = R) leaves the root 0.
    """
    r = len(levels) - 1
    if big_k > 0:
        j0 = r - big_k
        n0 = len(levels[j0])
        if big_k == 1:
            sums = np.zeros(n0, dtype=np.int64)
            np.add.at(sums, parent_pos[r], xi.astype(np.int64))
        else:
            z = np.full(len(xi), np.inf)
            zs, cs = conductance_up(z, parent_pos[j0:], [len(l) for l in levels[j0:]], theta)
            cur, anc = current_down(zs, cs, parent_pos[j0:])
            w = cur * theta ** (-big_k) * xi
            sums = _zero_ties(np.bincount(anc, weights=w, minlength=n0),
                              np.bincount(anc, weights=np.abs(w), minlength=n0))
        ties = sums == 0
        vals = np.sign(sums).astype(np.float64)
        vals[ties] = 0.0 if j0 == 0 else coins[ties]
        start = j0
    else:
        vals = xi.astype(np.float64)
        start = r
    lim = 1.0 - clamp
    for j in range(start - 1, -1, -1):
        llr = np.arctanh(np.clip(theta * vals, -lim, lim))
        n_j = len(levels[j])
        sums = _zero_ties(np.bincount(parent_pos[j + 1], weights=llr, minlength=n_j),
                          np.bincount(parent_pos[j + 1], weights=np.abs(llr), minlength=n_j))
        vals = np.clip(np.tanh(sums), -lim, lim)
    return float(vals[0])


def label_tree(levels, parent_pos, slots, radius, big_k, theta, clamp, xi_side, slot_u,
               root_coin) -> dict:
    """One vertex's label from its tree (per-level images, parents and slots).

    A vote tie below the root reads ``slot_u`` at the node's slot; a tree
    without a level-``radius`` node or a root value of 0 takes the uniform
    ``root_coin``.
    """
    out = {"empty": len(levels) <= radius or len(levels[radius]) == 0,
           "coin": True, "zero_root": False, "magnetization": 0.0}
    if not out["empty"]:
        j0 = radius - big_k
        coins = (np.where(slot_u[slots[j0]] < 0.5, 1.0, -1.0)
                 if 0 < big_k < radius else None)
        value = two_stage_root(levels[: radius + 1], parent_pos[: radius + 1],
                               xi_side[levels[radius]].astype(np.float64), theta, big_k,
                               clamp, coins)
        if value != 0.0:
            out.update(sign=1 if value > 0 else -1, magnetization=value, coin=False)
            return out
        out["zero_root"] = True
    out["sign"] = 1 if root_coin < 0.5 else -1
    return out


def label_one(indptr, indices, v, radius, big_k, theta, clamp, xi_side, visited, slot_u,
              root_coin) -> dict:
    """One vertex's label on the BFS tree of its ball (``visited``: all-False work array)."""
    levels, parent_pos, _ = bfs_levels(indptr, indices, v, radius, visited)
    return label_tree(levels, parent_pos, bfs_slots(indptr, indices, levels, parent_pos),
                      radius, big_k, theta, clamp, xi_side, slot_u, root_coin)


def recover_loop(g, cfg, params, impl="spectral", seed=0, delta0=None, tree="walk",
                 nontree_sample=500):
    """``pipeline.recover`` as a per-vertex loop on explicit trees.

    ``tree`` "walk" labels every vertex on its non-backtracking walk tree,
    "bfs" on the BFS tree of its ball.  Returns (side, magnetization,
    counts, revisit): ``counts`` holds coin_labels, zero_roots,
    empty_spheres, nontree_neighborhoods (from walk trees on the pinned
    sample of ``nontree_sample`` centres, scaled to H's size) and
    u_star_ball_violations; ``revisit`` flags, per vertex
    of g, a walk tree that visits a vertex twice (False on the hold-out).
    """
    theta = derive_tree_params(params).theta
    r = resolve_radius(cfg, g.n, params.a, params.b)
    u_size = max(1, min(math.isqrt(g.n), g.n - 1))
    hold_out = np.sort(
        derived_rng(seed, "hold-out").choice(g.n, size=u_size, replace=False)
    ).astype(np.int64)
    u_star, _ = choose_anchor(g, hold_out, derived_rng(seed, "anchor"),
                              min_degree=math.ceil(math.sqrt(math.log(g.n))))
    sub = remove_set(g, hold_out)
    h = sub.graph
    root_u = derived_rng(seed, "zero-roots").random(g.n)  # indexed by g's ids
    slot_u = (derived_rng(seed, "labels").random(len(h.indices))
              if 0 < cfg.K < r else None)
    watch = np.zeros(h.n, dtype=bool)
    mapped = sub.old_to_new[g.neighbors(u_star)]
    watch[mapped[mapped >= 0]] = True
    side_out = np.zeros(g.n, dtype=np.int8)
    mag_out = np.zeros(g.n, dtype=np.float64)
    revisit = np.zeros(g.n, dtype=bool)
    visited = np.zeros(h.n, dtype=bool)
    counts = dict.fromkeys(("coin_labels", "zero_roots", "empty_spheres",
                            "nontree_neighborhoods", "u_star_ball_violations"), 0)
    part = blackbox_partition(h, impl=impl, seed=derived_rng(seed, "bb", 0), delta0=delta0)
    aligned, _ = align_partition(part, g, u_star, params.a, params.b,
                                 old_to_new=sub.old_to_new)

    for v in range(h.n):
        orig = sub.new_to_old[v]
        levels, parent_pos, slots = walk_tree(h.indptr, h.indices, v, r)
        revisit[orig] = revisits(levels)
        if tree == "bfs":
            levels, parent_pos, _ = bfs_levels(h.indptr, h.indices, v, r, visited)
            slots = bfs_slots(h.indptr, h.indices, levels, parent_pos)
        out = label_tree(levels, parent_pos, slots, r, cfg.K, theta, 1e-12, aligned.side,
                         slot_u, root_u[orig])
        side_out[orig] = out["sign"]
        mag_out[orig] = out["magnetization"]
        counts["coin_labels"] += out["coin"]
        counts["zero_roots"] += out["zero_root"]
        counts["empty_spheres"] += out["empty"]
        counts["u_star_ball_violations"] += any(bool(watch[l].any()) for l in levels[:r])

    size = min(h.n, nontree_sample)
    sample = (np.arange(h.n) if size == h.n else
              derived_rng(seed, "nontree-sample").choice(h.n, size, replace=False))
    hits = int(revisit[sub.new_to_old[sample]].sum())
    counts["nontree_neighborhoods"] = math.floor(hits * h.n / size + 0.5)

    coins = derived_rng(seed, "hold-out-coins").random(len(hold_out))
    side_out[hold_out] = np.where(coins < 0.5, 1, -1)
    counts["coin_labels"] += len(hold_out)
    return side_out, mag_out, counts, revisit
