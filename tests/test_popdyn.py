"""Cross-checks of the population chains against the explicit-tree machinery.

The chains and the per-tree object API compute the same distributions through
different code paths; agreement within Monte Carlo error on small depths is
what licenses using the chains at depths where explicit trees are impossible.
"""

import tracemalloc

import _oracles
import numpy as np
import pytest
from scipy.stats import chi2

from blockbp import levels, popdyn
from blockbp.bpcore import bp_root
from blockbp.broadcast import add_leaf_noise, run_broadcast, sample_tree, tree_from_parents
from blockbp.estimators import current_weights, effective_conductance
from blockbp.levels import _terminal_conductance
from blockbp.seeding import derived_rng


def _forest(kind, d, theta, k, trials, seed):
    """A forest of ``trials`` trees of depth k, every root's spin +: structure
    and then spins, both drawn from one generator."""
    rng = np.random.default_rng(seed)
    return run_broadcast(sample_tree(kind, d, k, rng, roots=trials), (1 - theta) / 2, rng,
                         root_sign=1)


def _joint_se(a_std, a_n, b_std, b_n):
    return np.sqrt(a_std ** 2 / a_n + b_std ** 2 / b_n)


def test_magnetization_chain_matches_explicit_trees():
    kind, d, theta, delta, k = "gw", 2.0, 0.6, 0.3, 3
    trials = 40_000
    rows, _ = popdyn.magnetization_chain(kind, d, theta, k, trials,
                                         np.random.default_rng(1), delta=delta)
    row = rows[k]

    n_exp = 4_000
    xs, ys = [], []
    rng = np.random.default_rng(2)
    eta = (1 - theta) / 2
    for _ in range(n_exp):
        t = sample_tree(kind, d, k, seed=int(rng.integers(2 ** 32)))
        t = run_broadcast(t, eta, seed=int(rng.integers(2 ** 32)), root_sign=1)
        t = add_leaf_noise(t, delta, seed=int(rng.integers(2 ** 32)))
        xs.append(bp_root(t, theta, t.sigma[k]))
        ys.append(bp_root(t, theta, t.tau, delta=delta))
    xs, ys = np.abs(xs), np.abs(ys)
    se = _joint_se(row["absx_std"], trials, xs.std(), n_exp)
    assert abs(row["absx_mean"] - xs.mean()) < 4 * se
    se = _joint_se(row["absy_std"], trials, ys.std(), n_exp)
    assert abs(row["absy_mean"] - ys.mean()) < 4 * se


def test_conductance_chain_matches_forest():
    d, theta, k = 3.0, 0.6, 3
    trials = 50_000
    _, pools = popdyn.conductance_chain("gw", d, theta, k, trials,
                                        np.random.default_rng(4))
    pool = pools[k]
    forest = _forest("gw", d, theta, k, 20_000, 5)
    z0 = effective_conductance(forest, theta).zs[0]
    se = _joint_se(pool.std(), len(pool), z0.std(), len(z0))
    assert abs(pool.mean() - z0.mean()) < 4 * se
    se = _joint_se(np.std(pool > 0), len(pool), np.std(z0 > 0), len(z0))
    assert abs((pool > 0).mean() - (z0 > 0).mean()) < 4 * se + 1e-6


def _forest_trial_tree(forest, i):
    """Rebuild trial i of a forest as an explicit BroadcastTree (plus spins)."""
    root = [np.arange(forest.sizes[0])]
    for pp in forest.parent_pos[1:]:
        root.append(root[-1][pp])
    sel = [np.flatnonzero(r == i) for r in root]
    local = {}
    parents = []
    sigma = []
    nid = 0
    for j, s in enumerate(sel):
        for pos in s:
            local[(j, int(pos))] = nid
            if j == 0:
                parents.append(-1)
            else:
                parents.append(local[(j - 1, int(forest.parent_pos[j][pos]))])
            sigma.append(forest.sigma[j][pos])
            nid += 1
    return tree_from_parents(parents, depth=forest.depth), np.asarray(sigma)


def test_forest_matches_object_api_exactly():
    theta = 0.6
    forest = _forest("gw", 2.0, theta, 3, 50, 6)
    z_levels = effective_conductance(forest, theta, delta=0.2).zs
    for i in range(forest.sizes[0]):
        t, _ = _forest_trial_tree(forest, i)
        net = effective_conductance(t, theta, delta=0.2)
        assert net.ceff == pytest.approx(float(z_levels[0][i]), abs=1e-12, rel=1e-12)


def test_forest_estimators_identities():
    # E(R | sigma_root = +) = 1; Var(R) = E[1/Ceff] over surviving trees
    d, theta, k = 3.0, 0.6, 3
    forest = _forest("gw", d, theta, k, 60_000, 7)
    tau = add_leaf_noise(forest, 0.2, np.random.default_rng(8)).tau
    cw, cwn = current_weights(forest, theta), current_weights(forest, theta, delta=0.2)
    alive = cw.network.zs[0] > 0
    r = cw.estimate(forest.sigma[k])[alive]
    s = cwn.estimate(tau)[alive]
    n = alive.sum()
    assert abs(r.mean() - 1.0) < 4 * r.std() / np.sqrt(n)
    assert abs(s.mean() - 1.0) < 4 * s.std() / np.sqrt(n)
    reff = 1.0 / cw.network.zs[0][alive]
    dev = (r - r.mean()) ** 2 - reff
    assert abs(r.var() - reff.mean()) < 4 * dev.std() / np.sqrt(n)
    reffn = 1.0 / cwn.network.zs[0][alive]
    devn = (s - s.mean()) ** 2 - reffn
    assert abs(s.var() - reffn.mean()) < 4 * devn.std() / np.sqrt(n)


def test_forest_weights_match_object_api():
    # each root's estimate and conductance on the forest are those of its
    # tree alone, noiseless and noisy, extinct roots (0 and 0) included
    theta, k = 0.7, 2
    forest = add_leaf_noise(_forest("gw", 2.0, theta, k, 40, 9), 0.2,
                            np.random.default_rng(10))
    for delta, obs in ((0.0, forest.sigma[k]), (0.2, forest.tau)):
        cw = current_weights(forest, theta, delta=delta)
        est = cw.estimate(obs)
        for i in range(forest.sizes[0]):
            t, _ = _forest_trial_tree(forest, i)
            one = current_weights(t, theta, delta=delta)
            want = one.estimate(obs[cw.root == i])
            assert est[i] == pytest.approx(float(want[0]), abs=1e-12)
            assert cw.network.zs[0][i] == pytest.approx(one.network.ceff, abs=1e-12, rel=1e-12)


class _TiesAtEta(np.random.Generator):
    """A generator whose every 4th uniform of the stream is exactly ``self.eta``.

    The ties are keyed on the running count of uniforms drawn, not on each
    call, so a path that draws a stream in blocks sees the same uniforms as
    one that draws it whole.
    """

    def random(self, size=None, dtype=np.float64, out=None):
        u = super().random(size, dtype, out)
        u[-self.drawn % 4::4] = self.eta
        self.drawn += u.size
        return u


def _ties_at_eta(seed, theta):
    rng = _TiesAtEta(np.random.PCG64(seed))
    rng.eta = 0.5 * (1.0 - theta)
    rng.drawn = 0
    return rng


def _magnetization_chains_agree(kind, d, theta, k, trials, make_rng, **kw):
    want_rows, want = _oracles.magnetization_chain_per_slot(kind, d, theta, k, trials,
                                                            make_rng(), **kw)
    rows, pools = popdyn.magnetization_chain(kind, d, theta, k, trials, make_rng(), **kw)
    assert rows == want_rows
    assert np.array_equal(pools["x"], want["x"])
    assert np.array_equal(pools["y"], want["y"])
    return pools


# each id's last field names the Y pool's start: the noisy observation
@pytest.mark.parametrize("kind, d, theta, k, delta", [
    ("gw", 3.0, 0.5, 6, 0.0),
    ("gw", 64.0, 0.3, 3, 0.4),
    ("dary", 40, 0.9, 3, 0.4),
    ("dary", 3, 0.5, 5, 0.2),
], ids=["gw-3.0-0.5-6-0.0-noisy", "gw-64.0-0.3-3-0.4-noisy", "dary-40-0.9-3-0.4-noisy",
        "dary-3-0.5-5-0.2-noisy"])
def test_pool_side_edge_transform_is_exact(kind, d, theta, k, delta):
    # transforming each pool member once, with the flipped children negated
    # by the generation's signs, gives the bits of transforming and summing
    # every slot (arctanh must be exactly odd).  Every 4th uniform of the
    # stream equals eta, which is no flip: the block signs must agree with
    # u < eta there too (at theta = 0.5, eta = 0.25 is a value the generator
    # can draw).
    _magnetization_chains_agree(kind, d, theta, k, 20_000, lambda: _ties_at_eta(13, theta),
                                delta=delta)


def test_magnetization_chain_on_a_childless_level():
    # at d = 0.2 and 5 trials a whole generation can draw no child; the
    # operator then has no entries and must give bincount's zeros
    pools = _magnetization_chains_agree("gw", 0.2, 0.6, 6, 5,
                                        lambda: np.random.default_rng(0), delta=0.2)
    assert not pools["x"].any()  # the last level is childless


# --- several noise levels through one set of draws ---------------------------

LEVELS = (0.2, 0.0, 0.4, 0.2)  # a zero level and a repeated one


# each id's last field names the Y pool's start: the noisy observation
@pytest.mark.parametrize("kind, d, theta, k, trials", [
    ("gw", 3.0, 0.5, 5, 20_000),
    ("dary", 3, 0.75, 5, 20_000),
    ("gw", 0.2, 0.6, 6, 5),  # childless: see the test above
], ids=["gw-3.0-0.5-5-20000-noisy", "dary-3-0.75-5-20000-noisy", "gw-0.2-0.6-6-5-noisy"])
def test_magnetization_chain_levels_match_one_level_calls(kind, d, theta, k, trials):
    args = (kind, d, theta, k, trials)
    got = popdyn.magnetization_chain(*args, np.random.default_rng(3), delta=LEVELS)
    assert isinstance(got, list) and len(got) == len(LEVELS)
    for delta, (rows, pools) in zip(LEVELS, got):
        want_rows, want = popdyn.magnetization_chain(*args, np.random.default_rng(3),
                                                     delta=delta)
        assert rows == want_rows
        assert np.array_equal(pools["x"], want["x"])
        assert np.array_equal(pools["y"], want["y"])
        assert pools["x"] is not pools["y"]


def test_dary_sum_trials_levels_match_one_level_calls():
    got = popdyn.dary_sum_trials(3, 0.6, 4, 5_000, np.random.default_rng(16), delta=LEVELS)
    assert isinstance(got, list) and len(got) == len(LEVELS)
    for delta, (s, sn) in zip(LEVELS, got):
        want_s, want_sn = popdyn.dary_sum_trials(3, 0.6, 4, 5_000, np.random.default_rng(16),
                                                 delta=delta)
        assert np.array_equal(s, want_s) and np.array_equal(sn, want_sn)
        assert s.dtype == sn.dtype == want_sn.dtype == np.int8  # 3**4 = 81
        assert (sn is s) == (delta == 0.0) and (want_sn is want_s) == (delta == 0.0)
    assert got[1][1] is got[1][0]  # delta = 0 observes the spins
    assert got[0][1] is got[3][1]  # a repeated level's noise is drawn once


@pytest.mark.parametrize("d, k, dtype", [
    (2, 6, np.int8),  # d**k = 64
    (127, 1, np.int8),  # int8's largest value
    (2, 7, np.int16),  # 128: int8 would wrap it to -128
    (4, 5, np.int16),
    (2, 15, np.int32),  # 32768: int16 would wrap it
    (2, 31, np.int64),  # 2**31: int32 would wrap it
    (3, 33, np.int64),  # the largest power of 3 below 2**53
], ids=lambda v: getattr(v, "__name__", str(v)))
def test_level_sums_take_the_smallest_signed_type_that_holds_them(d, k, dtype):
    # theta = -1 flips every edge, so level j reads (-d)**j in every trial:
    # the extremes the type must hold exactly; a delta = 0 level observes
    # the spin sums' own array, and at theta = 0.6 every block is the
    # whole-array draw
    trials = 300
    levels = [0.0, 0.2]
    for (s, sn), delta in zip(popdyn.dary_sum_trials(d, -1.0, k, trials,
                                                     np.random.default_rng(26),
                                                     delta=levels), levels):
        assert s.dtype == sn.dtype == dtype and (sn is s) == (delta == 0.0)
        assert np.array_equal(s, [[(-d) ** j] * trials for j in range(k + 1)])
    got = popdyn.dary_sum_trials(d, 0.6, k, trials, np.random.default_rng(27), delta=levels)
    word = int(np.random.default_rng(27).integers(2 ** 63))
    want = _oracles.dary_sums_whole(d, 0.6, k, trials, derived_rng(word, 0), levels)
    for (s, sn), (want_s, want_sn) in zip(got, want):
        assert np.array_equal(s, want_s) and np.array_equal(sn, want_sn)


@pytest.mark.parametrize("levels", [(0.2, 0.7), (-0.1, 0.2), (0.0, 0.5), ()])
def test_bad_level_is_rejected_before_any_draw(levels):
    rng = np.random.default_rng(17)
    before = rng.bit_generator.state
    for run in (lambda: popdyn.magnetization_chain("gw", 2.0, 0.5, 2, 100, rng,
                                                   delta=levels),
                lambda: popdyn.dary_sum_trials(2, 0.5, 2, 100, rng, delta=levels)):
        with pytest.raises(ValueError, match="delta"):
            run()
        assert rng.bit_generator.state == before


@pytest.mark.parametrize("high", [10 ** 5, 2 ** 31 - 1])
def test_int32_draw_is_the_int64_stream(high):
    # a generation draws its children as int32 below 2**31; that
    # must give the int64 draw's values and leave the generator where it does
    # (an odd count leaves half of a 64-bit output buffered)
    a, b = np.random.default_rng(18), np.random.default_rng(18)
    wide = a.integers(0, high, 1001)
    narrow = b.integers(0, high, 1001, dtype=np.int32)
    assert narrow.dtype == np.int32 and np.array_equal(wide, narrow)
    assert a.bit_generator.state == b.bit_generator.state
    assert np.array_equal(a.integers(0, high, 7), b.integers(0, high, 7))


# --- a generation applied a row block at a time -------------------------------


@pytest.mark.parametrize("kind, d, trials, eta, cols, block, holds", [
    ("gw", 0.7, 300, 0.35, 3, 5, lambda w, b: (w == 0).any()),  # childless rows
    ("gw", 1e-6, 50, 0.35, 2, 4, lambda w, b: not w.any()),  # a generation with no slot
    ("gw", 20.0, 40, 0.2, 2, 8, lambda w, b: (w > b).any()),  # rows wider than a block
    ("dary", 7, 60, 0.1, 1, 3, lambda w, b: (w > b).all()),
    ("dary", 3, 101, 0.25, 2, 7, lambda w, b: True),  # blocks of two rows and a last one
    ("gw", 3.0, 200, None, 0, 5, lambda w, b: True),  # unit signs: no uniforms drawn
    ("dary", 3, 200, None, 0, 5, lambda w, b: True),
], ids=["gw-childless", "gw-no-slots", "gw-wide-rows", "dary-wide-rows", "dary",
        "gw-no-eta", "dary-no-eta"])
def test_block_sums_match_the_whole_operator(monkeypatch, kind, d, trials, eta, cols,
                                             block, holds):
    # a few slots per block split every generation into many row blocks;
    # the sums must be the whole operator's product bit for bit, and the
    # generator must end where the whole draw leaves it
    monkeypatch.setattr(popdyn, "_BLOCK_SLOTS", block)
    terms = np.random.default_rng(20).normal(size=(trials, cols) if cols else trials)
    a, b = np.random.default_rng(21), np.random.default_rng(21)
    op = _oracles.generation_operator(kind, d, trials, a, eta)
    assert holds(np.diff(op.indptr), block)
    want = op @ terms
    got = popdyn._generation_sums(kind, d, trials, b, terms, eta)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert a.bit_generator.state == b.bit_generator.state


def test_magnetization_chain_holds_no_slot_length_floats():
    # a generation draws its children and flip signs a row block at a time:
    # the traced peak stays below 16 trial-length float arrays (pools, edge
    # terms, sums, offsets, row statistics) and two block buffers, which
    # hold a block's int32 children and float64 signs.  At d = 64 the whole
    # generation's children alone would be 4 * d * trials bytes.
    d, trials = 64.0, 20_000
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        popdyn.magnetization_chain("gw", d, 0.3, 2, trials, np.random.default_rng(19),
                                   delta=0.4)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 8 * (16 * trials + 2 * popdyn._BLOCK_SLOTS)


def _traced_peak(run) -> int:
    """Bytes ``run()`` held at its traced peak, above what was held before."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        run()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_level_sums_and_chain_hold_a_block_beyond_their_outputs(monkeypatch):
    # on one core the level sums hold their output arrays and one trial
    # block's counts; a chain holds its pools, the generation's sums and
    # one row block.  The whole-array draws of these calls held 27.5 and
    # 8.3 MiB, and float64 outputs (s and two sn) 13.7 MiB of the first.
    # scipy.sparse is loaded by this file's imports, so no trace holds it.
    monkeypatch.setattr(popdyn, "_usable_cores", lambda: 1)
    mib = 2 ** 20
    d, k, trials = 4, 5, 100_000
    outputs = 2 * (k + 1) * trials * 2  # int16 s, also the delta = 0 sn, and one sn
    peak = _traced_peak(lambda: popdyn.dary_sum_trials(d, 0.5, k, trials,
                                                       np.random.default_rng(24),
                                                       delta=[0.0, 0.2]))
    assert peak < outputs + 2 * mib
    peak = _traced_peak(lambda: popdyn.magnetization_chain(
        "gw", 64.0, 0.3, 8, trials, np.random.default_rng(25), delta=0.4))
    assert peak < 7 * mib


def test_moments_check_holds_integer_sums_and_a_float_row(monkeypatch):
    # a moments-check config holds its integer level sums (int16 at d = 3
    # and 4, k = 5), one block's counts and a few float64 rows of one
    # level; float64 level sums would hold 13.7 MiB for the largest config
    # alone
    monkeypatch.setattr(popdyn, "_usable_cores", lambda: 1)
    from blockbp.harness import default_spec, run_experiment

    spec = default_spec("moments-check", trials=100_000, seed=5)
    k, trials = max(spec.grid["k"]), spec.trials
    rows = []
    peak = _traced_peak(lambda: rows.extend(run_experiment(spec)))
    assert len(rows) == 200
    assert peak < 2 * (k + 1) * trials * 2 + 4 * trials * 8 + 2 * 2 ** 20


@pytest.mark.parametrize("kind, d, theta, k, trials, delta", [
    ("gw", 3.0, 0.6, 4, 20_000, 0.0),
    ("gw", 3.0, 0.6, 4, 20_000, 0.2),
    ("dary", 3, -0.8, 4, 20_000, 0.0),
    ("dary", 3, -0.8, 4, 20_000, 0.2),
    ("gw", 0.2, 0.6, 6, 5, 0.0),  # every level childless: test_conductance_chain_on_empty_level
    ("gw", 0.2, 0.6, 6, 5, 0.2),
], ids=[  # the noiseless cases keep their ids from when delta 0 was spelled None
    "gw-3.0-0.6-4-20000-None", "gw-3.0-0.6-4-20000-0.2",
    "dary-3--0.8-4-20000-None", "dary-3--0.8-4-20000-0.2",
    "gw-0.2-0.6-6-5-None", "gw-0.2-0.6-6-5-0.2",
])
def test_conductance_chain_matches_per_slot_chain(kind, d, theta, k, trials, delta):
    # composing each pool member once and adding children with the generation
    # operator gives the bits of composing and bincount-summing every slot
    args = (kind, d, theta, k, trials)
    want_rows, want = _oracles.conductance_chain_per_slot(
        *args, np.random.default_rng(0), delta=delta, keep_levels={1, 2})
    rows, pools = popdyn.conductance_chain(*args, np.random.default_rng(0), delta=delta,
                                           keep_levels=[1, 2])
    assert rows == want_rows
    assert sorted(pools) == sorted(want) == [1, 2, k]
    assert all(pools[j].dtype == np.float64 and np.array_equal(pools[j], want[j])
               for j in pools)


def test_dary_sum_trials_law_matches_enumeration():
    # chi-square of the joint (S_3, S~_3) frequencies against the exact law
    # from all 2^14 edge-flip and 2^8 leaf-noise patterns of the binary tree
    d, theta, delta, k, trials = 2, 0.5, 0.2, 3, 100_000
    pmf = _oracles.dary_level_sum_pmf(d, k, theta, delta)
    s, sn = popdyn.dary_sum_trials(d, theta, k, trials, np.random.default_rng(14),
                                   delta=delta)
    cells = sorted(pmf)
    got = {c: 0 for c in cells}
    for pair in zip(s[k].astype(int).tolist(), sn[k].astype(int).tolist()):
        got[pair] += 1  # a pair outside the support raises KeyError
    expect = np.array([trials * pmf[c] for c in cells])
    count = np.array([got[c] for c in cells], dtype=float)
    small = expect < 5.0  # pool the sparse cells into one
    expect = np.append(expect[~small], expect[small].sum())
    count = np.append(count[~small], count[small].sum())
    stat = float(((count - expect) ** 2 / expect).sum())
    assert chi2.sf(stat, len(expect) - 1) > 1e-3


@pytest.mark.parametrize("trials", [2 * popdyn._TRIAL_BLOCK + 123, 100],
                         ids=["short-last-block", "one-short-block"])
def test_dary_sum_blocks_match_the_whole_draw(trials):
    # block b is the whole-array draw from the stream derived from one word
    # of the call's generator and b
    d, theta, k = 3, 0.6, 4
    got = popdyn.dary_sum_trials(d, theta, k, trials, np.random.default_rng(22),
                                 delta=LEVELS)
    word = int(np.random.default_rng(22).integers(2 ** 63))
    for b, lo in enumerate(range(0, trials, popdyn._TRIAL_BLOCK)):
        hi = min(lo + popdyn._TRIAL_BLOCK, trials)
        want = _oracles.dary_sums_whole(d, theta, k, hi - lo, derived_rng(word, b), LEVELS)
        for (s, sn), (want_s, want_sn) in zip(got, want):
            assert np.array_equal(s[:, lo:hi], want_s)
            assert np.array_equal(sn[:, lo:hi], want_sn)
    assert hi == trials and hi - lo < popdyn._TRIAL_BLOCK


@pytest.mark.parametrize("delta", [0.2, LEVELS], ids=["one-level", "levels"])
def test_dary_sum_trials_do_not_depend_on_the_core_count(monkeypatch, delta):
    # three blocks on one, two and three threads: the blocks write disjoint
    # columns of the shared outputs
    outs = []
    for cores in (1, 2, 3):
        monkeypatch.setattr(popdyn, "_usable_cores", lambda: cores)
        out = popdyn.dary_sum_trials(3, 0.6, 4, 3 * popdyn._TRIAL_BLOCK,
                                     np.random.default_rng(23), delta=delta)
        outs.append([out] if np.ndim(delta) == 0 else out)
    for one, *more in zip(*outs):
        for s, sn in more:
            assert np.array_equal(s, one[0]) and np.array_equal(sn, one[1])


def test_dary_sum_trials_spins_do_not_depend_on_delta():
    s0, sn0 = popdyn.dary_sum_trials(3, 0.6, 4, 5_000, np.random.default_rng(15))
    s1, sn1 = popdyn.dary_sum_trials(3, 0.6, 4, 5_000, np.random.default_rng(15),
                                     delta=0.2)
    assert np.array_equal(s0, s1)
    assert np.array_equal(sn0, s0)
    assert not np.array_equal(sn1, s1)


def test_chain_determinism():
    a, _ = popdyn.magnetization_chain("gw", 3.0, 0.5, 4, 5_000,
                                      np.random.default_rng(11), delta=0.2)
    b, _ = popdyn.magnetization_chain("gw", 3.0, 0.5, 4, 5_000,
                                      np.random.default_rng(11), delta=0.2)
    assert a == b


def test_delta_zero_coincides_with_noiseless():
    rows, pools = popdyn.magnetization_chain("gw", 3.0, 0.5, 4, 5_000,
                                             np.random.default_rng(12), delta=0.0)
    assert np.array_equal(pools["x"], pools["y"])
    for r in rows:
        assert r["diff2_mean"] == 0.0


def test_offspring_validation():
    with pytest.raises(ValueError):
        popdyn.magnetization_chain("dary", 2.5, 0.5, 2, 100, np.random.default_rng(0))
    with pytest.raises(ValueError):
        popdyn.magnetization_chain("weird", 2, 0.5, 2, 100, np.random.default_rng(0))
    with pytest.raises(ValueError):
        popdyn.conductance_chain("gw", 2.0, 0.0, 2, 100, np.random.default_rng(0))


@pytest.mark.parametrize("k", [0, 2])
@pytest.mark.parametrize("kind, d, match", [("gw", -5.0, "offspring mean d must be positive"),
                                            ("weird", 2.0, "unknown tree kind")],
                         ids=["negative-d", "unknown-kind"])
def test_bad_tree_is_rejected_before_any_draw(kind, d, match, k):
    # a chain checks its tree kind and d up front: at k = 0, where no
    # generation draws offspring, and at k >= 1 before its leaf uniforms
    rng = np.random.default_rng(19)
    before = rng.bit_generator.state
    for run in (lambda: popdyn.magnetization_chain(kind, d, 0.5, k, 100, rng, delta=0.2),
                lambda: popdyn.conductance_chain(kind, d, 0.5, k + 1, 100, rng, delta=0.2)):
        with pytest.raises(ValueError, match=match):
            run()
        assert rng.bit_generator.state == before


# --- an empty level: the tree dies out after the roots ------------------------


def _dying_forest():
    forest = _forest("gw", 0.2, 0.6, 6, 5, 0)
    assert forest.sizes == [5, 0, 0, 0, 0, 0, 0]
    return forest


def test_forest_conductance_on_empty_level():
    z_levels = effective_conductance(_dying_forest(), 0.6, delta=0.2).zs
    assert z_levels[0].dtype == np.float64
    assert np.array_equal(z_levels[0], np.zeros(5))


def test_forest_current_estimators_on_empty_level():
    forest = _dying_forest()
    for delta in (0.0, 0.2):
        cw = current_weights(forest, 0.6, delta=delta)
        assert np.array_equal(cw.network.zs[0], np.zeros(5))
        est = cw.estimate(add_leaf_noise(forest, delta, np.random.default_rng(1)).tau)
        assert np.array_equal(est, np.zeros(5))
        assert est.dtype == np.float64


def test_conductance_chain_on_empty_level():
    rows, pools = popdyn.conductance_chain("gw", 0.2, 0.6, 6, 5, np.random.default_rng(0))
    assert np.array_equal(pools[6], np.zeros(5))
    assert all(r["alive_frac"] == 0.0 for r in rows)


def _same(got, want):
    return got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("forest", [
    _forest("gw", 3.0, 0.6, 4, 6, 4),
    _forest("dary", 3, 0.6, 4, 2, 5),
    _dying_forest(),
], ids=["gw", "dary", "empty-level"])
def test_tree_passes_match_frozen_references(forest):
    # conductance_up and current_down reproduce the frozen reference passes
    # bit for bit, on terminals of conductance inf, finite and 0 (a 0 subtree
    # passes no current on) and on every slice from one level to the forest
    k, theta = forest.depth, 0.6  # the theta every forest above was sampled at
    sizes = forest.sizes
    observed = np.random.default_rng(6).random(sizes[k]) < 0.7
    for tc in (np.inf, _terminal_conductance(0.2), 0.0):
        z = np.where(observed, tc, 0.0)
        for j0 in range(k + 1):
            pp, sz = forest.parent_pos[j0:], sizes[j0:]
            zs, cs = levels.conductance_up(z, pp, sz, theta)
            zs_ref, cs_ref = _oracles.conductance_up(z, pp, sz, theta)
            assert all(_same(a, b) for a, b in zip(zs, zs_ref))
            assert cs[0] is None and all(_same(a, b) for a, b in zip(cs[1:], cs_ref[1:]))
            cur, root = levels.current_down(zs, cs, pp)
            cur_ref, root_ref = _oracles.current_down(zs_ref, cs_ref, pp)
            assert _same(cur, cur_ref) and _same(root, root_ref)


# --- out-of-range inputs are rejected, not answered ---------------------------


def _chains(trials, delta):
    rng = np.random.default_rng(0)
    return [
        lambda: popdyn.magnetization_chain("gw", 2.0, 0.5, 2, trials, rng, delta=delta),
        lambda: popdyn.conductance_chain("gw", 2.0, 0.5, 2, trials, rng, delta=delta),
        lambda: popdyn.dary_sum_trials(2, 0.5, 2, trials, rng, delta=delta),
    ]


@pytest.mark.parametrize("delta", [0.5, 0.7, 1.0, -0.1])
def test_chains_reject_delta_out_of_range(delta):
    for run in _chains(100, delta):
        with pytest.raises(ValueError, match="delta"):
            run()
    forest = _forest("gw", 2.0, 0.5, 2, 100, 0)
    with pytest.raises(ValueError, match="delta"):
        current_weights(forest, 0.5, delta=delta)


def test_chains_reject_no_trials():
    # nor True read as one trial, nor 2.5 truncated
    for trials, rule in ((0, ">= 1, not 0"), (True, "an integer, not True"),
                         (2.5, "an integer, not 2.5")):
        for run in _chains(trials, 0.2):
            with pytest.raises(ValueError, match=f"'trials' must be {rule}$"):
                run()


def test_harness_rejects_delta_out_of_range():
    from blockbp.harness import ExperimentSpec, run_experiment

    robust = ExperimentSpec(kind="robust-accuracy", params={"d": 3.0, "theta": 0.5},
                            grid={"k": [3], "delta": [0.3, 0.7]}, trials=2_000, seed=1)
    conductance = ExperimentSpec(kind="conductance-check",
                                 params={"a": 30.0, "b": 4.0, "delta": 0.7},
                                 grid={"k": [2]}, trials=2_000, seed=1)
    for spec in (robust, conductance):
        with pytest.raises(ValueError, match="delta"):
            run_experiment(spec)


@pytest.mark.parametrize("theta", [3.0, -1.5, float("nan")])
def test_chains_reject_theta_out_of_range(theta):
    rng = np.random.default_rng(0)
    for run in (lambda: popdyn.magnetization_chain("gw", 2.0, theta, 2, 100, rng),
                lambda: popdyn.dary_sum_trials(2, theta, 2, 100, rng)):
        with pytest.raises(ValueError, match="theta"):
            run()


def test_chains_reject_depth_out_of_range():
    rng = np.random.default_rng(0)
    for run, message in (
            (lambda: popdyn.magnetization_chain("gw", 2.0, 0.5, -2, 100, rng), ">= 0, not -2"),
            (lambda: popdyn.dary_sum_trials(2, 0.5, -1, 100, rng), ">= 0, not -1"),
            (lambda: popdyn.conductance_chain("gw", 2.0, 0.5, 0, 100, rng), ">= 1, not 0")):
        with pytest.raises(ValueError, match=f"'k' must be {message}$"):
            run()
    for k in (True, 2.5):  # True is not a depth-1 chain, nor 2.5 truncated
        for run in (lambda: popdyn.magnetization_chain("gw", 2.0, 0.5, k, 100, rng),
                    lambda: popdyn.dary_sum_trials(2, 0.5, k, 100, rng),
                    lambda: popdyn.conductance_chain("gw", 2.0, 0.5, k, 100, rng)):
            with pytest.raises(ValueError, match=f"'k' must be an integer, not {k}$"):
                run()
    # float64 level sums are exact only below 2^53
    with pytest.raises(ValueError, match=r"d\*\*k"):
        popdyn.dary_sum_trials(2, 0.5, 53, 1, rng)


def test_harness_rejects_conductance_depth_zero():
    from blockbp.harness import ExperimentSpec, run_experiment

    spec = ExperimentSpec(kind="conductance-check", params={"a": 30.0, "b": 4.0},
                          grid={"k": [0, 2]}, trials=2_000, seed=1)
    with pytest.raises(ValueError, match=r"'k' must be >= 1, not 0"):
        run_experiment(spec)
