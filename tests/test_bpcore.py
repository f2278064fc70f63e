import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from blockbp.bpcore import (
    bp_combine,
    bp_root,
    exact_posterior,
)
from blockbp.broadcast import sample_tree, tree_from_parents
from blockbp import levels, popdyn
from blockbp.pipeline import _label_edges
from blockbp.randgraph import graph_from_edges


def random_small_tree(rng, max_nodes=15):
    """Random tree with at most max_nodes nodes and a nonempty deepest level."""
    while True:
        d = rng.uniform(0.8, 2.5)
        depth = int(rng.integers(1, 5))
        t = sample_tree("gw", d, depth, seed=int(rng.integers(2 ** 32)))
        if 2 <= t.n_nodes <= max_nodes and t.sizes[depth] > 0:
            return t


# --- bp_combine ------------------------------------------------------------


def test_single_child_closed_form():
    assert bp_combine([0.8], 0.5) == pytest.approx(0.4, abs=1e-12)


def test_two_children_closed_form():
    assert bp_combine([1.0, 1.0], 0.5) == pytest.approx(0.8, abs=1e-12)


def test_theta_zero_and_empty():
    assert bp_combine([0.3, -0.7, 0.1], 0.0) == 0.0
    assert bp_combine([], 0.7) == 0.0


@given(
    xs=st.lists(st.floats(min_value=-1, max_value=1), min_size=1, max_size=6),
    theta=st.floats(min_value=-1, max_value=1),
)
def test_combine_odd_and_bounded(xs, theta):
    v = bp_combine(xs, theta)
    v_neg = bp_combine([-x for x in xs], theta)
    assert v == pytest.approx(-v_neg, abs=1e-14)
    assert abs(v) <= 1.0
    if all(abs(theta * x) < 1 for x in xs):
        assert abs(v) < 1.0


@given(
    xs=st.lists(st.floats(min_value=-0.95, max_value=0.95), min_size=1, max_size=5),
    theta=st.floats(min_value=0.05, max_value=0.95),
    i=st.integers(min_value=0, max_value=4),
)
def test_combine_monotone_for_positive_theta(xs, theta, i):
    if i >= len(xs):
        return
    h = 1e-4
    lo = list(xs)
    hi = list(xs)
    lo[i] = max(-1.0, xs[i] - h)
    hi[i] = min(1.0, xs[i] + h)
    assert bp_combine(hi, theta) >= bp_combine(lo, theta) - 1e-12


def test_combine_rejects_out_of_range():
    with pytest.raises(ValueError):
        bp_combine([1.5], 0.5)
    # theta outside [-1, 1] is no channel (2.0 used to give 0.999999999999)
    for theta in (2.0, -1.5, float("nan")):
        with pytest.raises(ValueError, match="theta"):
            bp_combine([0.9], theta)


# --- bp_root vs the enumeration oracle --------------------------------------


def test_single_edge_posterior():
    t = tree_from_parents([-1, 0])
    for theta in (0.9, 0.5, -0.6):
        assert bp_root(t, theta, [1]) == pytest.approx(theta, abs=1e-12)
        assert exact_posterior(t, theta, [1]) == pytest.approx(theta, abs=1e-12)


def test_single_edge_bayes_example():
    # leaf +1, eta = 1/6: posterior bias 2 * (5/6) - 1 = 2/3
    t = tree_from_parents([-1, 0])
    theta = 1 - 2 / 6
    assert exact_posterior(t, theta, [1]) == pytest.approx(2 / 3, rel=1e-12)


def test_single_edge_noisy_composition():
    t = tree_from_parents([-1, 0])
    theta, delta = 0.7, 0.2
    want = theta * (1 - 2 * delta)
    assert bp_root(t, theta, [1], delta=delta) == pytest.approx(want, abs=1e-12)
    assert exact_posterior(t, theta, [1], delta=delta) == pytest.approx(want, abs=1e-12)


def test_binary_depth2_example():
    t = sample_tree("dary", 2, 2, seed=0)
    obs = [1, 1, 1, -1]
    got = bp_root(t, 0.6, obs)
    want = exact_posterior(t, 0.6, obs)
    assert got == pytest.approx(want, abs=1e-10)


def test_star_matches_combine():
    t = tree_from_parents([-1, 0, 0, 0])
    theta = 0.5
    obs = [1, 1, -1]
    via_combine = bp_combine([theta * o for o in obs], 1.0)  # atanh-sum of theta*o
    # equivalently bp_combine(obs, theta)
    assert bp_combine(obs, theta) == pytest.approx(exact_posterior(t, theta, obs), abs=1e-12)
    assert via_combine == pytest.approx(bp_combine(obs, theta), abs=1e-12)


def test_no_observation_is_uniform():
    t = tree_from_parents([-1], depth=1)
    assert exact_posterior(t, 0.8, []) == 0.0
    assert bp_root(t, 0.8, []) == 0.0


def test_oracle_equivalence_random_trees():
    rng = np.random.default_rng(7)
    for _ in range(60):
        t = random_small_tree(rng, max_nodes=12)
        n_leaves = t.sizes[t.depth]
        obs = np.where(rng.random(n_leaves) < 0.5, 1, -1)
        for theta in (0.9, -0.9, 0.5, -0.5, 0.1):
            for delta in (0.0, 0.3):
                got = bp_root(t, theta, obs, delta=delta)
                want = exact_posterior(t, theta, obs, delta=delta)
                assert got == pytest.approx(want, abs=1e-9)


def test_extinct_interior_node_contributes_nothing():
    # node 2 is a dead end at depth 1; observations live at depth 2
    t = tree_from_parents([-1, 0, 0, 1, 1], depth=2)
    obs = [1, -1]
    got = bp_root(t, 0.7, obs)
    want = exact_posterior(t, 0.7, obs)
    assert got == pytest.approx(want, abs=1e-12)


def test_guard_and_length_errors():
    t = sample_tree("dary", 2, 4, seed=0)  # 31 nodes, 16 leaves
    obs = np.ones(16, dtype=int)
    with pytest.raises(ValueError, match="guard"):
        exact_posterior(t, 0.5, obs, delta=0.1, guard=2 ** 20)
    with pytest.raises(ValueError, match="length"):
        bp_root(t, 0.5, obs[:5])
    with pytest.raises(ValueError):
        exact_posterior(t, 0.5, obs[:5])


def test_config_validation():
    t = tree_from_parents([-1, 0])
    with pytest.raises(ValueError, match="theta"):
        bp_root(t, 2.0, [1])
    for delta in (-0.1, 0.5, 0.7):
        with pytest.raises(ValueError, match="delta"):
            bp_root(t, 0.5, [1], delta=delta)
    with pytest.raises(ValueError, match="observations"):
        bp_root(t, 0.5, [0.5])


def test_delta_scales_the_leaves():
    # a given delta alone turns on the leaf noise: two +1 leaves under a
    # star read as 1 - 2 delta each
    t = tree_from_parents([-1, 0, 0])
    theta, delta = 0.6, 0.3
    got = bp_root(t, theta, [1, 1], delta=delta)
    assert got == pytest.approx(bp_combine([1 - 2 * delta] * 2, theta), abs=1e-12)
    assert got == pytest.approx(exact_posterior(t, theta, [1, 1], delta=delta), abs=1e-12)
    assert got < bp_root(t, theta, [1, 1])


# --- the Kesten-Stigum bound, exactly ---------------------------------------


def _leaf_likelihood_plus(d, k, theta, leaves):
    """P(leaf spins | sigma_root = +) on the depth-k d-ary tree, by summing
    over every assignment of the interior spins."""
    eta = 0.5 * (1.0 - theta)
    parent = [-1] + [(v - 1) // d for v in range(1, (d ** (k + 1) - 1) // (d - 1))]
    n_inner = (d ** k - 1) // (d - 1)
    total = 0.0
    for inner in itertools.product((1, -1), repeat=n_inner - 1):
        spin = (1, *inner, *leaves)
        w = 1.0
        for v in range(1, len(spin)):
            w *= 1.0 - eta if spin[v] == spin[parent[v]] else eta
        total += w
    return total


@pytest.mark.parametrize("d,k", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)])
@pytest.mark.parametrize("signal", [0.3, 0.7, 0.95])
def test_kesten_stigum_bound_exact_on_bp_root(d, k, signal):
    # E(X_k | +) summed over every leaf configuration: 0 < E <= (theta^2 d)^k
    theta = math.sqrt(signal / d)
    t = sample_tree("dary", d, k)
    mass = ex = 0.0
    for leaves in itertools.product((1, -1), repeat=d ** k):
        p = _leaf_likelihood_plus(d, k, theta, leaves)
        mass += p
        ex += p * bp_root(t, theta, leaves)
    assert mass == pytest.approx(1.0, abs=1e-12)
    assert 0.0 < ex <= signal ** k + 1e-12


# --- magnetization statistics ----------------------------------------------


def test_stats_theta_zero_exact():
    rows, _ = popdyn.magnetization_chain("gw", 3.0, 0.0, 4, 5_000,
                                         np.random.default_rng(1))
    assert rows[-1]["absx_mean"] == 0.0
    assert 0.5 * (1.0 + rows[-1]["absx_mean"]) == 0.5


def test_stats_below_threshold_dary():
    # theta^2 d = 0.32 < 1: at depth 12 the root signal is tiny
    rows, _ = popdyn.magnetization_chain("dary", 2, 0.4, 12, 100_000,
                                         np.random.default_rng(2))
    assert 0.5 * (1.0 + rows[-1]["absx_mean"]) - 0.5 < 0.02


def test_stats_high_snr_mean_bound():
    # x_k >= 1 - 10 eta (1-eta) / (theta^2 d) at d=16, theta=0.8
    eta = 0.1
    bound = 1 - 10 * eta * (1 - eta) / (0.8 ** 2 * 16)
    rows, _ = popdyn.magnetization_chain("dary", 16, 0.8, 8, 100_000,
                                         np.random.default_rng(3))
    assert rows[-1]["x_mean"] >= bound - rows[-1]["x_ci"]


def test_abs_magnetization_nonincreasing_in_depth():
    rows, _ = popdyn.magnetization_chain("gw", 3.0, 2 / 3, 8, 50_000,
                                         np.random.default_rng(4))
    for lev in range(2, 9):
        prev, cur = rows[lev - 1], rows[lev]
        assert cur["absx_mean"] <= prev["absx_mean"] + prev["absx_ci"] + cur["absx_ci"]


def test_clamp_truncation_contract(monkeypatch):
    # a coarser clamp acts like a per-level rounding of size eps: the induced
    # root error stays O(sqrt(eps)).  Every BP pass reads levels._CLAMP at
    # call time, so the chain pool, a deep high-signal bp_root and the edge
    # engine's root values all move under the patch; a module that kept its
    # own clamp would not.
    tree = sample_tree("dary", 3, 8)  # each node's children saturate tanh
    clique = graph_from_edges(5, [(i, j) for i in range(5) for j in range(i + 1, 5)],
                            [1] * 5)

    def run():
        rows, pool = popdyn.magnetization_chain(
            "gw", 17.0, 13 / 17, 6, 20_000, np.random.default_rng(5))
        root = bp_root(tree, 0.99, np.ones(3 ** 8))
        labels = _label_edges(clique, np.ones(5, dtype=np.int8), 2, 0, 0.99,
                              np.random.default_rng(0), np.zeros(5))
        return rows, pool, root, labels.magnetization

    a_rows, a_pool, a_root, a_mag = run()
    monkeypatch.setattr(levels, "_CLAMP", 1e-6)
    b_rows, b_pool, b_root, b_mag = run()
    diff2 = float(np.mean((a_pool["x"] - b_pool["x"]) ** 2))
    assert 0.0 < diff2 <= 1e-4
    assert abs(a_rows[-1]["absx_mean"] - b_rows[-1]["absx_mean"]) <= 5e-3
    assert 1.0 - 1e-6 < a_root < 1.0 and b_root == 1.0 - 1e-6
    assert np.all(a_mag > 1.0 - 1e-6) and np.all(b_mag == 1.0 - 1e-6)


def test_stats_mode_validation():
    with pytest.raises(ValueError):
        popdyn.magnetization_chain("gw", 2.0, 0.5, 2, 0, np.random.default_rng(0))
