"""Independent oracles used by the test suite.

These deliberately share no code with the library paths they check: the
resistor network is solved as a dense Laplacian system, estimator moments are
computed by exhaustive enumeration over spin configurations, and rooted tree
shapes are enumerated via level sequences.

The recovery oracle is the per-vertex loop the batched ball engine replaced:
one BFS with a shared ``visited`` scratch array and one two-stage root
computation per vertex, drawing its sphere and tie coins from the label
stream as it goes and reading an exact-0 root's coin from the vertex's entry
of the zero-root array.  It shares only the elementwise kernels (series
composition, terminal conductance, the BP level combine) and the stages
around labelling with the library, so bit-equality with ``pipeline.recover``
checks the ball construction, the level-synchronous passes and both coin
streams.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from blockbp.broadcast import BroadcastTree, tree_from_parents
from blockbp.levels import _combine_levels, _compose_through_edge, _terminal_conductance
from blockbp.params import derive_tree_params
from blockbp.partition import blackbox_partition
from blockbp.pipeline import align_partition, choose_anchor, resolve_radius
from blockbp.randgraph import remove_set
from blockbp.seeding import derived_rng


def laplacian_network(tree: BroadcastTree, theta: float, delta=None, k=None):
    """Solve the resistor network with a dense Laplacian; unit current at root.

    Returns (ceff, leaf_currents) where leaf_currents[v] is the current into
    the terminal through level-k node v.  Requires a non-extinct tree with
    k >= 1 (the k = 0, delta = None case is a short circuit).
    """
    k = tree.depth if k is None else k
    leaves = list(range(int(tree.level_start[k]), int(tree.level_start[k + 1])))
    if not leaves:
        return 0.0, {}
    t2 = theta * theta
    nodes = list(range(int(tree.level_start[k + 1])))  # depth <= k

    if delta is None:
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

    for u in nodes[1:]:
        j_gen = tree.depth_of(u)
        g = t2 ** j_gen / (1.0 - t2)
        add_conductance(node_index(u), node_index(int(tree.parent[u])), g)
    if delta is not None:
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
        if delta is None:
            j_gen = tree.depth_of(v)
            g = t2 ** j_gen / (1.0 - t2)
            currents[v] = g * x[node_index(int(tree.parent[v]))]
        else:
            g_term = t2 ** k * (1.0 - 2.0 * delta) ** 2 / (4.0 * delta * (1.0 - delta))
            currents[v] = g_term * x[node_index(v)]
    return 1.0 / reff, currents


def enumerate_estimator_moments(tree: BroadcastTree, theta: float, weights,
                                delta: float | None = None, k=None):
    """Exact E(R | sigma_root = +) and Var(R | sigma_root = +) by enumeration.

    R = sum_v w(v) * obs_v over the level-k nodes, where obs is the spin
    itself (delta None) or the spin flipped with probability delta and the
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
    for spins in itertools.product([1, -1], repeat=n - 1):
        s = (1,) + spins  # condition on sigma_root = +
        p = 1.0
        for v in range(1, n):
            p *= 0.5 * (1.0 + theta * s[v] * s[int(tree.parent[v])])
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


def tree_from_level_parents(parents) -> BroadcastTree:
    return tree_from_parents(parents)


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


def two_stage_root(levels, parent_pos, xi, theta, big_k, weights_delta, clamp, rng):
    """Hard votes at level R-K from conductance weights, then BP to the root."""
    r = len(levels) - 1
    if big_k > 0:
        j0 = r - big_k
        anc = np.arange(len(levels[j0]), dtype=np.int64)
        for j in range(j0 + 1, r + 1):
            anc = anc[parent_pos[j]]
        z = [None] * (r + 1)
        c = [None] * (r + 1)
        z[r] = np.where(xi != 0.0, _terminal_conductance(weights_delta), 0.0)
        for j in range(r, j0, -1):
            c[j] = _compose_through_edge(z[j], theta)
            z[j - 1] = np.bincount(parent_pos[j], weights=c[j],
                                   minlength=len(levels[j - 1]))
        cur = np.ones(len(levels[j0]))
        for j in range(j0 + 1, r + 1):
            pp = parent_pos[j]
            zpar = z[j - 1][pp]
            frac = np.zeros(len(pp))
            np.divide(c[j], zpar, out=frac, where=zpar > 0)
            cur = cur[pp] * frac
        w = cur * theta ** (-big_k)
        sums = np.bincount(anc, weights=w * xi, minlength=len(levels[j0]))
        ties = sums == 0.0
        coins = int(ties.sum())
        vals = np.sign(sums)
        if coins:
            vals[ties] = np.where(rng.random(coins) < 0.5, 1.0, -1.0)
        start = j0
    else:
        vals = xi.astype(np.float64)
        start = r
    for j in range(start - 1, -1, -1):
        vals = _combine_levels(vals, parent_pos[j + 1], len(levels[j]), theta, clamp)
    return float(vals[0])


def label_one(indptr, indices, v, radius, big_k, theta, weights_delta, clamp,
              xi_side, visited, rng, zero_coin, watch_mask=None) -> dict:
    """One vertex's label and diagnostics.

    Sphere and tie coins come from ``rng``; the uniform ``zero_coin`` decides
    the sign when the root value is exactly 0.
    """
    levels, parent_pos, induced = bfs_levels(indptr, indices, v, radius, visited)
    out = {"nontree": induced != sum(len(l) for l in levels) - 1,
           "watch_hit": watch_mask is not None
           and any(bool(watch_mask[l].any()) for l in levels[:radius]),
           "empty_sphere": len(levels) - 1 < radius, "missing_obs": 0,
           "coin": True, "zero_root": False, "magnetization": 0.0}
    if not out["empty_sphere"]:
        xi = xi_side[levels[radius]].astype(np.float64)
        out["missing_obs"] = int((xi == 0).sum())
        if np.any(xi != 0):
            value = two_stage_root(levels, parent_pos, xi, theta, big_k,
                                   weights_delta, clamp, rng)
            if value != 0.0:
                out.update(sign=1 if value > 0 else -1, magnetization=value, coin=False)
            else:
                out.update(sign=1 if zero_coin < 0.5 else -1, zero_root=True)
            return out
    out["sign"] = 1 if rng.random() < 0.5 else -1
    return out


def recover_loop(g, cfg, params, impl="spectral", seed=0, delta0=None):
    """``pipeline.recover`` as a per-vertex loop; returns (side, magnetization, counts).

    ``counts`` holds the diagnostics the loop accumulates: coin_labels,
    zero_roots, empty_spheres, nontree_neighborhoods, missing_observations and
    u_star_ball_violations, plus blackbox_runs.
    """
    theta = derive_tree_params(params).theta
    r = resolve_radius(cfg, g.n, params.a, params.b)
    u_size = cfg.u_size if cfg.u_size is not None else int(math.isqrt(g.n))
    u_size = max(1, min(u_size, g.n - 1))
    hold_out = np.sort(
        derived_rng(seed, "hold-out").choice(g.n, size=u_size, replace=False)
    ).astype(np.int64)
    u_star, _ = choose_anchor(g, hold_out, derived_rng(seed, "anchor"),
                              min_degree=math.ceil(math.sqrt(math.log(g.n))))
    sub = remove_set(g, hold_out)
    h = sub.graph
    rng_label = derived_rng(seed, "labels")
    zero_u = derived_rng(seed, "zero-roots").random(g.n)  # indexed by g's ids
    watch = np.zeros(h.n, dtype=bool)
    mapped = sub.old_to_new[g.neighbors(u_star)]
    watch[mapped[mapped >= 0]] = True
    side_out = np.zeros(g.n, dtype=np.int8)
    mag_out = np.zeros(g.n, dtype=np.float64)
    visited = np.zeros(h.n, dtype=bool)
    counts = dict.fromkeys(("coin_labels", "zero_roots", "empty_spheres",
                            "nontree_neighborhoods", "missing_observations",
                            "u_star_ball_violations", "blackbox_runs"), 0)

    def run_blackbox(graph, tag):
        counts["blackbox_runs"] += 1
        return blackbox_partition(graph, impl=impl, seed=derived_rng(seed, "bb", tag),
                                  delta0=delta0)

    def label_chunk(xi_side_h, vertices_h):
        for v in vertices_h:
            orig = sub.new_to_old[v]
            out = label_one(h.indptr, h.indices, int(v), r, cfg.K, theta,
                            cfg.weights_delta, 1e-12, xi_side_h, visited,
                            rng_label, zero_u[orig], watch_mask=watch)
            side_out[orig] = out["sign"]
            mag_out[orig] = out["magnetization"]
            counts["coin_labels"] += out["coin"]
            counts["zero_roots"] += out["zero_root"]
            counts["empty_spheres"] += out["empty_sphere"]
            counts["nontree_neighborhoods"] += out["nontree"]
            counts["missing_observations"] += out["missing_obs"]
            counts["u_star_ball_violations"] += out["watch_hit"]

    all_h = np.arange(h.n, dtype=np.int64)
    if cfg.batch is None:
        aligned, _ = align_partition(run_blackbox(h, 0), g, u_star, params.a,
                                     params.b, old_to_new=sub.old_to_new)
        label_chunk(aligned.side, all_h)
    else:
        for start in range(0, h.n, cfg.batch):
            chunk = all_h[start : start + cfg.batch]
            ball_mask = np.zeros(h.n, dtype=bool)
            for v in chunk:
                for ids in bfs_levels(h.indptr, h.indices, int(v), r - 1, visited)[0]:
                    ball_mask[ids] = True
            inner = remove_set(h, np.flatnonzero(ball_mask))
            part = run_blackbox(inner.graph, int(chunk[0]) + 1)
            comp = np.full(h.n, -1, dtype=np.int64)
            comp[inner.new_to_old] = np.arange(inner.graph.n, dtype=np.int64)
            old_to_inner = np.full(g.n, -1, dtype=np.int64)
            kept = np.flatnonzero(sub.old_to_new >= 0)
            old_to_inner[kept] = comp[sub.old_to_new[kept]]
            aligned, _ = align_partition(part, g, u_star, params.a, params.b,
                                         old_to_new=old_to_inner)
            xi_side_h = np.zeros(h.n, dtype=np.int8)
            ok = comp >= 0
            xi_side_h[ok] = aligned.side[comp[ok]]
            label_chunk(xi_side_h, chunk)

    coins = derived_rng(seed, "hold-out-coins").random(len(hold_out))
    side_out[hold_out] = np.where(coins < 0.5, 1, -1)
    counts["coin_labels"] += len(hold_out)
    return side_out, mag_out, counts
