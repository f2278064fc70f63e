import numpy as np
import pytest

from blockbp.broadcast import add_leaf_noise, run_broadcast, sample_tree, tree_from_parents
from blockbp.estimators import (
    current_weights,
    effective_conductance,
    majority_estimate,
    majority_moments,
    weighted_majority_sign,
)

from _oracles import (
    enumerate_estimator_moments,
    laplacian_network,
    rooted_tree_parent_lists,
)


def gw_tree(d, depth, seed, min_nodes=2, max_nodes=10 ** 9):
    rng = np.random.default_rng(seed)
    while True:
        t = sample_tree("gw", d, depth, seed=int(rng.integers(2 ** 32)))
        if min_nodes <= t.n_nodes <= max_nodes and t.sizes[depth] > 0:
            return t


# --- closed-form moments -----------------------------------------------------


def test_first_moment_example():
    assert majority_moments(2, 0.5, 3).mean == pytest.approx(1.0)


def test_variance_example():
    assert majority_moments(2, 0.5, 2).var == pytest.approx(4.5)


def test_variance_limit_branch():
    # theta^2 d = 1: the geometric sum becomes k
    assert majority_moments(4, 0.5, 2).var == pytest.approx(24.0)


def test_noisy_moments():
    m = majority_moments(2, 0.5, 3, delta=0.2)
    assert m.noisy_mean == pytest.approx(0.6)
    assert m.noisy_var == pytest.approx(4 * 8 * 0.2 * 0.8 + 0.36 * m.var)


@pytest.mark.parametrize("d, k, named", [
    (2.5, 2, "integer d"), (0, 2, "positive"),
    (float("nan"), 2, "'d' must be a finite number, not nan"),
    (True, 2, "'d' must be a finite number, not True"),
    (2, -1, "'k' must be >= 0, not -1"), (2, 1.5, "'k' must be an integer, not 1.5"),
    (2, True, "'k' must be an integer, not True"),
])
def test_moments_reject_bad_d_and_k(d, k, named):
    # the moments of a d-ary tree that cannot exist are refused, not returned
    with pytest.raises(ValueError, match=named):
        majority_moments(d, 0.5, k)
    assert majority_moments(np.int64(2), 0.5, np.int64(2)).var == pytest.approx(4.5)


# --- sign of the level sum ---------------------------------------------------


def test_majority_estimate_cases():
    t = tree_from_parents([-1, 0, 0, 0])
    t = run_broadcast(t, 0.0, seed=0, root_sign=1)
    t.sigma[1][:] = [1, 1, -1]
    assert majority_estimate(t) == 1
    t.sigma[1][:] = [1, -1, 1]
    assert majority_estimate(t) == 1
    t2 = tree_from_parents([-1, 0, 0])
    t2 = run_broadcast(t2, 0.0, seed=0, root_sign=1)
    t2.sigma[1][:] = [1, -1]
    assert majority_estimate(t2) == 0  # tie


def test_majority_estimate_extinct_level():
    t = run_broadcast(sample_tree("gw", 0.3, 6, seed=11), 0.1, seed=0)
    assert t.sizes[6] == 0
    assert majority_estimate(t) == 0


def test_majority_estimate_noisy():
    t = run_broadcast(sample_tree("dary", 3, 2, seed=1), 0.2, seed=2)
    tn = add_leaf_noise(t, 0.1, seed=3)
    s = int(tn.tau.sum())
    assert majority_estimate(tn, use_noisy=True) == np.sign(s)
    with pytest.raises(ValueError):
        majority_estimate(t, use_noisy=True)  # no tau attached


# --- effective conductance ---------------------------------------------------


def test_three_star_conductance():
    t = tree_from_parents([-1, 0, 0, 0])
    net = effective_conductance(t, 0.5)
    assert net.ceff == pytest.approx(1.0)


def test_noisy_terminal_at_root():
    net = effective_conductance(tree_from_parents([-1]), 0.5, delta=0.1, k=0)
    assert net.ceff == pytest.approx(1 / 0.5625)


def test_noiseless_root_is_short_circuit():
    net = effective_conductance(tree_from_parents([-1]), 0.5, k=0)
    assert net.ceff == np.inf


def test_extinct_tree_conductance_zero():
    t = tree_from_parents([-1, 0], depth=3)
    assert effective_conductance(t, 0.6).ceff == 0.0


def test_conductance_vs_laplacian_random_trees():
    rng = np.random.default_rng(13)
    for _ in range(60):
        t = gw_tree(1.8, int(rng.integers(1, 4)), int(rng.integers(2 ** 31)),
                    max_nodes=12)
        for theta in (0.6, -0.6, 0.3):
            for delta in (0.0, 0.1):
                net = effective_conductance(t, theta, delta=delta)
                want, _ = laplacian_network(t, theta, delta=delta)
                assert net.ceff == pytest.approx(want, abs=1e-9, rel=1e-9)


def test_conductance_monotone_in_subtrees():
    # grafting an extra child subtree never decreases the root conductance
    base = tree_from_parents([-1, 0, 1, 1], depth=2)
    bigger = tree_from_parents([-1, 0, 0, 1, 1, 2], depth=2)
    for delta in (0.0, 0.2):
        c0 = effective_conductance(base, 0.6, delta=delta).ceff
        c1 = effective_conductance(bigger, 0.6, delta=delta).ceff
        assert c1 >= c0 - 1e-12


# --- current weights ---------------------------------------------------------


def test_dary_weights_equal_and_normalized():
    t = sample_tree("dary", 3, 2, seed=0)
    cw = current_weights(t, 0.5)
    assert np.allclose(cw.weights, cw.weights[0])
    assert cw.weights.sum() == pytest.approx(0.5 ** -2, rel=1e-12)


def test_path_weight():
    t = tree_from_parents([-1, 0, 1, 2])
    cw = current_weights(t, 0.7)
    assert cw.weights == pytest.approx([0.7 ** -3])


def test_weights_sum_to_theta_minus_k():
    rng = np.random.default_rng(3)
    for _ in range(20):
        t = gw_tree(2.0, 3, int(rng.integers(2 ** 31)), max_nodes=40)
        for delta in (0.0, 0.25):
            cw = current_weights(t, 0.6, delta=delta)
            assert cw.weights.sum() == pytest.approx(0.6 ** -3, rel=1e-9)


def test_weights_vs_laplacian_currents():
    rng = np.random.default_rng(5)
    for _ in range(25):
        t = gw_tree(1.8, int(rng.integers(1, 4)), int(rng.integers(2 ** 31)),
                    max_nodes=12)
        for delta in (0.0, 0.1):
            cw = current_weights(t, 0.6, delta=delta)
            _, currents = laplacian_network(t, 0.6, delta=delta)
            k = t.depth
            for leaf, w in zip(range(t.level_start[k], t.level_start[k + 1]), cw.weights):
                assert w == pytest.approx(0.6 ** -k * currents[int(leaf)],
                                          abs=1e-9, rel=1e-9)


def test_estimator_exact_moments_by_enumeration():
    # per-tree law: E(R | sigma_root=+) = 1 and Var(R | sigma_root=+) = 1/Ceff;
    # negative theta (between-class heavier) flips the weight signs and must
    # leave both identities intact
    configs = [
        (tree_from_parents([-1, 0]), 0.7, 0.0),
        (tree_from_parents([-1, 0, 0, 1]), 0.6, 0.0),
        (tree_from_parents([-1, 0, 0, 1, 1, 2]), 0.5, 0.0),
        (tree_from_parents([-1, 0]), 0.7, 0.2),
        (tree_from_parents([-1, 0, 0, 1]), 0.6, 0.25),
        (tree_from_parents([-1, 0]), -0.7, 0.0),
        (tree_from_parents([-1, 0, 0, 1]), -0.6, 0.2),
        (tree_from_parents([-1, 0, 1]), -0.5, 0.0),
    ]
    for t, theta, delta in configs:
        cw = current_weights(t, theta, delta=delta)
        mean, var = enumerate_estimator_moments(t, theta, cw.weights, delta=delta)
        assert mean == pytest.approx(1.0, abs=1e-10)
        assert var == pytest.approx(1.0 / cw.network.ceff, abs=1e-10, rel=1e-9)


def test_extinct_tree_has_no_estimator():
    # no leaves to weigh: no weights, an estimate of 0 and conductance 0
    t = tree_from_parents([-1, 0], depth=3)
    for delta in (0.0, 0.2):
        cw = current_weights(t, 0.6, delta=delta)
        assert cw.weights.shape == cw.root.shape == (0,)
        assert np.array_equal(cw.estimate([]), [0.0])
        assert cw.estimate([]).dtype == np.float64
        assert np.array_equal(cw.network.zs[0], [0.0])


# --- weighted majority sign --------------------------------------------------


def test_weighted_sign_single_leaf():
    t = tree_from_parents([-1, 0])
    assert weighted_majority_sign(t, [1], 0.6, rng=0) == 1
    assert weighted_majority_sign(t, [-1], 0.6, rng=0) == -1


def test_weighted_sign_extinct_is_coin():
    t = tree_from_parents([-1, 0], depth=3)
    vals = {weighted_majority_sign(t, [], 0.6, rng=s) for s in range(30)}
    assert vals == {1, -1}


@pytest.mark.parametrize("theta, delta, named", [(2.0, 0.0, "theta"), (0.6, 0.7, "delta")])
def test_weighted_sign_rejects_bad_inputs(theta, delta, named):
    # bad inputs raise on a live or an extinct tree: only an estimate of 0
    # becomes a coin
    for t in (tree_from_parents([-1, 0]), tree_from_parents([-1, 0], depth=3)):
        obs = [1] * t.sizes[t.depth]
        with pytest.raises(ValueError, match=named):
            weighted_majority_sign(t, obs, theta, rng=0, delta=delta)


def test_weighted_sign_matches_majority_on_dary():
    t = run_broadcast(sample_tree("dary", 3, 2, seed=2), 0.2, seed=3)
    obs = t.sigma[2]
    assert weighted_majority_sign(t, obs, 0.5, rng=0) == majority_estimate(t)


def test_weighted_sign_tie_is_coin():
    t = tree_from_parents([-1, 0, 0])
    vals = {weighted_majority_sign(t, [1, -1], 0.5, rng=s) for s in range(30)}
    assert vals == {1, -1}


# --- oracle self-check ---------------------------------------------------------


def test_rooted_tree_enumeration_counts():
    # number of unlabeled rooted trees on n nodes: 1, 1, 2, 4, 9, 20, 48, ...
    want = {1: 1, 2: 1, 3: 2, 4: 4, 5: 9, 6: 20, 7: 48}
    counts = {}
    seen = set()
    for parents in rooted_tree_parent_lists(7):
        counts[len(parents)] = counts.get(len(parents), 0) + 1
        seen.add(tuple(parents))
    assert counts == want
    assert len(seen) == sum(want.values())  # no duplicates
