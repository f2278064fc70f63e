"""Monte Carlo engines for tree functionals: population chains and forests.

Root magnetizations and effective conductances of broadcast trees satisfy
one-generation distributional recursions: the value at a node is a function
of i.i.d. copies of the value at its children.  The *population chain*
exploits that: keep a pool of ``trials`` independent samples of the level-k
law conditioned on sigma = +, and produce the level k+1 pool by drawing, for
each new sample, an offspring count, that many pool members, and the
child-spin flips.  Such a generation is a sparse trials x trials operator
(row i: new member i's children, valued by their flip signs) on the pool's
edge terms.  It is drawn and applied a block of rows at a time (the
offspring counts first, then each block's children and flips), so that it
holds one block's children and flip signs at once.  It costs O(trials *
mean offspring) time regardless of tree size, which is what makes depth-12
experiments with 1e5 trials feasible (an explicit mean-17 tree of depth 8
has ~1e10 nodes).  scipy.sparse, which applies the blocks, is imported by the
first generation, not by ``import blockbp``: the forest estimators and the
level sums never need it.

At large mean offspring the draws take about half of a generation: a gw
chain at d = 64, 1e5 trials and depth 8 took 0.64-0.66 s on a 2-core x86
host, 0.29-0.30 s of it drawing the children and the flip uniforms, and the
block products most of the rest.  Two ways to cut that were measured and
left out: splitting each block's product by column saved 4 %, and drawing
the next block on a second thread while the product ran made a lone chain
36 % faster but contraction-check 25 % slower, whose two chains at a time
already keep both cores busy.

Level sums on d-ary trees need no chain: ``dary_sum_trials`` draws them as
binomial level counts over fully independent trials, in blocks of
``_TRIAL_BLOCK`` trials.  Block b draws from a stream derived from one word
of the call's generator and b, so the block size is part of the stream and
the core count is not.  The blocks run on ``_map_chains``, the thread
helper the harness also runs its independent chains on: one thread per
usable core, each holding one block's int64 counts beside the call's
outputs: the sums as exact integers of the smallest type that holds them.

Where per-tree quantities are needed (current-weighted estimators, per-tree
conductance, or a cross-check of the population chain), the trials are
explicit trees, drawn in ``broadcast`` as one forest with a root per trial:
``run_broadcast(sample_tree(kind, d, k, rng, roots=trials), (1 - theta) / 2,
rng, root_sign=1)``.  ``forest_current_estimators`` reads such a forest.

All engines draw the tree structure and spins in a delta-independent pattern
(``dary_sum_trials`` draws its noise after every spin), so runs with the same
seed and different noise levels share them (coupled comparisons), and a run
with delta=0 reproduces the noiseless chain exactly.  ``magnetization_chain``
and ``dary_sum_trials`` also take a sequence of noise levels and then draw
the shared structure and spins once: the chain carries one Y pool per
distinct level beside X, as the columns of one array, through each
generation's one set of sums, and each block of level sums draws every
distinct level's noise from the state its spins left.  Each level's result
is bit for bit that of its own call with the same seed.
"""

from __future__ import annotations

import os
import threading
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .broadcast import BroadcastTree, _check_offspring, _offspring, add_leaf_noise
from .estimators import effective_conductance
from .levels import (_check_conductance_theta, _check_delta, _check_theta,
                     _compose_through_edge, _edge_llr, _magnetize, _terminal_conductance,
                     current_down)
from .seeding import as_generator, derived_rng

__all__ = [
    "Z99",
    "ci_half_width",
    "magnetization_chain",
    "dary_sum_trials",
    "conductance_chain",
    "forest_current_estimators",
]

Z99 = 2.576  # 99% two-sided normal quantile used for every CI in the package


def ci_half_width(std: float, n: int) -> float:
    """Normal-approximation half-width Z99 * s / sqrt(n)."""
    if n <= 0:
        return float("inf")
    return Z99 * std / np.sqrt(n)


_BLOCK_SLOTS = 2 ** 16  # child slots per row block, a part of the chains' stream
_TRIAL_BLOCK = 2 ** 13  # trials per block of the level sums, a part of their stream


def _generation_sums(kind: str, d: float, trials: int, rng: np.random.Generator,
                     terms: np.ndarray, eta: float | None = None) -> np.ndarray:
    """One generation: every new pool member's sum of its children's terms.

    Draws each new member's offspring count, then cuts the new members into
    row blocks of consecutive rows with at most ``_BLOCK_SLOTS`` child slots
    (a wider row is a block alone) and, block by block, draws the block's
    children (pool members, in draw order) and then one uniform per child
    slot of the block.  A child adds its row of ``terms`` times its flip
    sign, -1 where its uniform falls below ``eta`` (1 for every child when
    ``eta`` is None, and no uniforms are drawn).  Each sum starts from 0 and
    adds its slots in order, as ``np.bincount`` does, and a childless member
    reads 0.

    The generation is a sparse trials x trials operator (row i: new member
    i's children, valued by their signs), applied a block of rows at a time,
    so that a generation holds a block's children and flip signs and no
    array as long as its slot count.  The children and uniforms interleave
    by block, so with ``eta`` given ``_BLOCK_SLOTS`` is part of the stream:
    another block size draws other children from the same seed.  Without
    uniforms the blocks' children are one stream at any block size.
    """
    import scipy.sparse as sp  # see the module docstring

    indptr = np.zeros(trials + 1, dtype=np.int64)
    np.cumsum(_offspring(kind, d, trials, rng), out=indptr[1:])
    bounds = [0]
    while bounds[-1] < trials:
        r0 = bounds[-1]
        r1 = int(np.searchsorted(indptr, indptr[r0] + _BLOCK_SLOTS, side="right")) - 1
        bounds.append(max(r1, r0 + 1))
    if max(trials, int(indptr[-1])) < 2 ** 31:
        # scipy's own index dtype here, so it copies nothing; an int32 draw
        # below 2**31 takes the int64 draw's values and leaves the same state
        indptr = indptr.astype(np.int32)
    width = int(np.diff(indptr[bounds]).max())
    buf = np.ones(width) if eta is None else np.empty(width)
    out = np.empty((trials, *terms.shape[1:]))
    for r0, r1 in zip(bounds, bounds[1:]):
        ptr = indptr[r0:r1 + 1] - indptr[r0]
        idx = rng.integers(0, trials, int(ptr[-1]), dtype=indptr.dtype)
        sign = buf[:len(idx)]
        if eta is not None:
            rng.random(out=sign)
            sign -= eta  # u < eta exactly when u - eta < 0
            np.copysign(1.0, sign, out=sign)
        block = sp.csr_array((sign, idx, ptr), shape=(r1 - r0, trials))
        out[r0:r1] = block @ terms
    return out


def _check_chain_inputs(theta: float, k: int, trials: int, deltas: list, k_min=0) -> None:
    """The checks of one chain call: theta, its depth, its trials and every
    one of its noise levels ``deltas``."""
    _check_theta(theta)
    if k < k_min:
        raise ValueError(f"k must be >= {k_min}, not {k!r}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    for delta in deltas:
        _check_delta(delta)


def _check_conductance_inputs(theta: float, k: int, trials: int, delta: float,
                              keep: set) -> None:
    """The chain checks at k >= 1, with 0 < |theta| < 1 and ``keep`` in 1..k."""
    _check_conductance_theta(theta)
    _check_chain_inputs(theta, k, trials, [delta], k_min=1)
    outside = keep - set(range(1, k + 1))
    if outside:
        raise ValueError(f"keep_levels must lie in 1..{k}, not {sorted(outside)}")


def _check_dary_sum_inputs(d: int, theta: float, k: int, trials: int, deltas) -> None:
    """The chain checks, an integer d and d**k below 2**53."""
    _check_chain_inputs(theta, k, trials, deltas)
    _check_offspring("dary", d)
    if int(d) ** k >= 2 ** 53:  # a level's sums stop being exact as float64
        raise ValueError(f"d**k must stay below 2**53, not {int(d)}**{k}")


def _stat(name: str, values: np.ndarray, n: int) -> dict:
    m = float(values.mean())
    s = float(values.std())
    return {f"{name}_mean": m, f"{name}_std": s, f"{name}_ci": ci_half_width(s, n)}


def _levels(delta) -> list:
    """The noise levels of a ``delta`` that is one level or a sequence of them."""
    levels = [delta] if np.ndim(delta) == 0 else list(delta)
    if not levels:
        raise ValueError("delta needs at least one level")
    return levels


def magnetization_chain(kind: str, d: float, theta: float, k: int, trials: int,
                        rng, *, delta: float = 0.0):
    """Coupled (X, Y) population chain conditioned on sigma = +.

    X starts from exact leaf spins (+1 under the conditioning); Y starts from
    the noisy observation tau scaled by (1 - 2*delta).  Both then follow the
    same recursion through the same sampled offspring and flips, so (X - Y)
    is the effect of leaf initialization alone.  The edge transform
    arctanh(theta v) is odd, so it runs once per pool member, and the
    level's generation (flip signs as values, applied a row block at a time)
    sums every new member's children from the array of X and Y terms: the
    bits of a per-slot transform summed with ``np.bincount``.

    Returns (rows, pools): one dict per level 0..k with mean/std/ci of X, |X|,
    Y, |Y|, (X-Y)^2 and sqrt|X-Y|, plus the final pools {"x": ..., "y": ...}.

    ``delta`` may also be a sequence of noise levels.  The chain then draws
    its leaf uniforms, offspring, children and flips once and carries one Y
    pool per distinct level beside X (a zero level reads X, which its Y
    equals bit for bit); it returns a list with one (rows, pools) per level,
    in order, each equal to that of a call with the level alone and the same
    generator.  Every level is checked before anything is drawn.

    Each ``*_ci`` is z * std / sqrt(trials) over the pool, as if its members
    were independent.  They share ancestors through resampling, so the CI
    understates the spread of the mean across independent chains: by up to
    2.2x on the threshold sweep (base_d 2.5, 1e5 trials, depth 12, theta^2 d
    of 0.8 and 1.0), and by about 1/sqrt(1 - theta^2 d) below the threshold.
    Compare means from several seeds, or inflate the CI, before holding them
    to a tight tolerance.
    """
    out = _magnetization_chains(kind, d, theta, k, trials, rng, _levels(delta))
    return out[0] if np.ndim(delta) == 0 else out


def _magnetization_chains(kind, d, theta, k, trials, rng, deltas):
    rng = as_generator(rng)
    _check_chain_inputs(theta, k, trials, deltas)
    eta = 0.5 * (1.0 - theta)

    # pool column 0 is X, and each distinct nonzero level has a Y column
    deltas = [float(delta) for delta in deltas]
    pool_col = {0.0: 0}
    for delta in deltas:
        pool_col.setdefault(delta, len(pool_col))
    used = {pool_col[delta] for delta in deltas}
    u = rng.random(trials)
    pool = np.ones((trials, len(pool_col)))
    for delta, c in pool_col.items():
        if c:
            pool[:, c] = (1.0 - 2.0 * delta) * np.where(u < delta, -1.0, 1.0)
    del u
    # a zero level's Y is X bit for bit: its rows reuse X's statistics, and
    # X - Y is 0
    zero = np.zeros(1)
    zero_diff = {**_stat("diff2", zero, trials), **_stat("sqrtdiff", zero, trials)}

    def rows_at(level: int) -> list[dict]:
        x = pool[:, 0]
        xstat = {**_stat("x", x, trials), **_stat("absx", np.abs(x), trials)}
        ystat = {}
        for c in used:
            if c == 0:
                ystat[c] = {**{key.replace("x", "y"): v for key, v in xstat.items()}, **zero_diff}
                continue
            y = pool[:, c]
            diff = np.abs(x - y)
            ystat[c] = {**_stat("y", y, trials), **_stat("absy", np.abs(y), trials),
                        **_stat("diff2", diff ** 2, trials),
                        **_stat("sqrtdiff", np.sqrt(diff, out=diff), trials)}
        return [{"level": level, "n": trials, **xstat, **ystat[pool_col[delta]]}
                for delta in deltas]

    rows = [rows_at(0)]
    for level in range(1, k + 1):
        # the edge terms overwrite the pool they consume, and the new
        # members' magnetizations are the next pool
        pool = _magnetize(_generation_sums(kind, d, trials, rng,
                                           _edge_llr(pool, theta, out=pool), eta))
        rows.append(rows_at(level))
    return [([level_rows[i] for level_rows in rows],
             {"x": pool[:, 0].copy(), "y": pool[:, pool_col[delta]].copy()})
            for i, delta in enumerate(deltas)]


def conductance_chain(kind: str, d: float, theta: float, k: int, trials: int,
                      rng, *, delta: float = 0.0, keep_levels=None):
    """Population chain for the root effective conductance of depth-k trees.

    Uses the series-parallel recursion: a child subtree of conductance Z seen
    through its edge contributes theta^2 Z / ((1-theta^2) Z + 1), and siblings
    add.  Each pool member is composed through its edge once, and the
    level's generation (unit values, applied a row block at a time) adds the
    children.  The chain starts from the leaves' terminal conductance at
    noise level ``delta``: infinite at the default delta = 0, where each leaf
    is itself a terminal.
    Returns (rows, pools) where pools maps each level in ``keep_levels`` (plus
    the final level) to its conductance sample.
    """
    rng = as_generator(rng)
    keep = set(keep_levels) if keep_levels is not None else set()
    _check_conductance_inputs(theta, k, trials, delta, keep)
    z = np.full(trials, _terminal_conductance(delta))
    rows = []
    pools: dict[int, np.ndarray] = {}
    for level in range(1, k + 1):
        z = _generation_sums(kind, d, trials, rng, _compose_through_edge(z, theta))
        rows.append({
            "level": level,
            "n": trials,
            "alive_frac": float((z > 0).mean()),
            **_stat("ceff", z, trials),
        })
        if level in keep or level == k:
            pools[level] = z
    return rows, pools


def dary_sum_trials(d: int, theta: float, k: int, trials: int, rng, *,
                    delta: float = 0.0):
    """Independent-trial level sums on the d-ary tree, all depths 0..k.

    Records S_j and S~_j per trial for every level j; the trials are fully
    independent, so plain CIs are exact.  Only counts are
    drawn: level j has N_j ~ Bin(d (d^{j-1} - N_{j-1}), eta) + Bin(d N_{j-1},
    1 - eta) minus spins, S_j = d^j - 2 N_j, and fresh per-level delta noise
    is two binomials likewise, drawn after all spins so that S does not
    depend on delta; at delta = 0, S~ is S and no noise is drawn.  Returns
    (s, sn): exact integer arrays of shape (k+1, trials), in the smallest
    signed type that holds both d^k and -d^k (int8 up to d^k = 127, int16 at
    128); at delta = 0, ``sn`` is ``s`` itself.  Products of int8 or int16
    values wrap, so take a level's row as float64 before arithmetic on it.

    The trials are drawn in blocks of ``_TRIAL_BLOCK`` consecutive columns
    (the last one may be short), each as whole (k+1) x block count arrays
    from its own generator, derived from one word the call draws from
    ``rng`` and the block's index.  The blocks run on one thread per usable
    core and write their columns into the outputs, straight from their
    int64 counts, so a call holds the compact outputs and one block's counts
    per running thread.  The block size is part of the stream; the core
    count is not.

    ``delta`` may also be a sequence of noise levels.  The spins are then
    drawn once, and each block draws each distinct level's noise from the
    state its spins left, so the call returns a list with one (s, sn) per
    level, in order, each equal to that of a call with the level alone and
    the same generator (the levels share one ``s`` array, which a zero
    level's ``sn`` also is, and a repeated level shares one ``sn`` array).
    Every level is checked before anything is drawn from ``rng``.
    """
    out = _dary_sum_trials(d, theta, k, trials, rng, _levels(delta))
    return out[0] if np.ndim(delta) == 0 else out


def _dary_sum_trials(d, theta, k, trials, rng, deltas):
    rng = as_generator(rng)
    _check_dary_sum_inputs(d, theta, k, trials, deltas)
    di = int(d)
    eta = 0.5 * (1.0 - theta)
    width = np.array([di ** j for j in range(k + 1)], dtype=np.int64)[:, None]
    word = int(rng.integers(2 ** 63))
    dtype = next(t for t in (np.int8, np.int16, np.int32, np.int64)
                 if np.iinfo(t).max >= di ** k)
    s = np.empty((k + 1, trials), dtype=dtype)
    # one S~ per distinct level; a zero level's is S
    sns = {0.0: s}
    for delta in map(float, deltas):
        if delta not in sns:
            sns[delta] = np.empty_like(s)

    def block(b: int, cols: slice) -> None:
        brng = derived_rng(word, b)
        minus = np.zeros((k + 1, cols.stop - cols.start), dtype=np.int64)
        for j in range(1, k + 1):
            minus[j] = brng.binomial(di * (width[j - 1] - minus[j - 1]), eta)
            minus[j] += brng.binomial(di * minus[j - 1], 1.0 - eta)
        s[:, cols] = width - 2 * minus
        after_spins = brng.bit_generator.state
        for delta, sn in sns.items():
            if sn is s:
                continue
            brng.bit_generator.state = after_spins
            seen = brng.binomial(width - minus, delta)
            seen += brng.binomial(minus, 1.0 - delta)
            sn[:, cols] = width - 2 * seen

    _map_chains(block, [slice(lo, min(lo + _TRIAL_BLOCK, trials))
                        for lo in range(0, trials, _TRIAL_BLOCK)])
    return [(s, sns[float(delta)]) for delta in deltas]


def _usable_cores() -> int:
    """The number of cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


# On a ``_map_chains`` thread, ``threads`` is the number of threads that map
# runs at once; other threads hold no ``threads``.
_mapped = threading.local()


def _cores_per_thread() -> int:
    """The usable cores, or on a ``_map_chains`` thread that map's share per
    thread of them (rounded down)."""
    return _usable_cores() // getattr(_mapped, "threads", 1)


def _map_chains(run: Callable, units: list) -> list:
    """``[run(i, unit) for i, unit in enumerate(units)]`` on one thread per
    unit, up to the usable cores.

    A unit is one of a harness run's independent chains or graph
    repetitions, or one trial block of ``dary_sum_trials``.  Each unit is
    independent and draws from its own derived stream, so the results do
    not depend on the thread count.  numpy releases the interpreter lock in
    most of its array work (a generator filling an array, a sort, a sparse
    product), so the units' work overlaps.  Every running unit holds its own
    arrays, so peak memory grows with the number of units running at once:
    for the level sums, one block's int64 counts per thread beside the
    compact integer outputs.  Each unit's thread records how many threads
    the map runs, so a unit that would start a thread of its own
    (``recover`` at R >= 2) sees through ``_cores_per_thread`` that the
    cores are taken.
    """
    threads = min(len(units), _usable_cores())

    def unit(i: int, u):
        _mapped.threads = threads
        return run(i, u)

    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(unit, range(len(units)), units))


# ---------------------------------------------------------------------------
# Explicit forests: one multi-root tree from ``broadcast``, a root per trial.


def forest_current_estimators(forest: BroadcastTree, theta: float, rng, delta: float = 0.0):
    """Unit-current weighted estimators R (noiseless) and S (noisy) per trial.

    Weights are theta^-k times the unit current flow into each leaf; for the
    noisy estimator the currents are computed in the network with terminal
    resistors and the sum is rescaled by 1/(1-2*delta); its observations are
    ``add_leaf_noise``'s at the last level, drawn from ``rng``.  Returns a
    dict with per-trial arrays: r, s, ceff (noiseless network), ceff_noisy
    (None when delta == 0), alive mask.
    """
    sig = forest.sigma[-1]
    tau = add_leaf_noise(forest, delta, rng).tau

    def estimator(net_delta, obs):
        net = effective_conductance(forest, theta, delta=net_delta)
        cur, root = current_down(net.zs, net.cs, forest.parent_pos)
        w = cur * theta ** (-forest.depth)
        # an empty level would give bincount's integer zeros
        return np.bincount(root, weights=w * obs,
                           minlength=len(net.zs[0])).astype(float, copy=False), net.zs[0]

    r, ceff = estimator(0.0, sig)
    out = {"r": r, "ceff": ceff, "alive": ceff > 0, "s": r.copy(), "ceff_noisy": None}
    if delta > 0:
        s, out["ceff_noisy"] = estimator(delta, tau)
        out["s"] = s / (1.0 - 2.0 * delta)
    return out
