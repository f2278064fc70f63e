import numpy as np
import pytest

from blockbp.broadcast import (
    add_leaf_noise,
    run_broadcast,
    sample_tree,
    tree_from_parents,
)


def test_dary_node_count():
    t = sample_tree("dary", 2, 3, seed=0)
    assert t.n_nodes == 15  # 2^4 - 1
    assert [t.level_size(j) for j in range(4)] == [1, 2, 4, 8]


def test_children_contiguous_and_parents_consistent():
    t = sample_tree("gw", 3.0, 4, seed=11)
    # children of consecutive nodes are consecutive: parents never decrease
    assert np.all(np.diff(t.parent[1:]) >= 0)
    for c in range(1, t.n_nodes):
        assert t.depth_of(c) == t.depth_of(int(t.parent[c])) + 1


def test_gw_mean_node_count():
    # expected nodes at (d=3, depth=2): 1 + 3 + 9 = 13
    counts = []
    for s in range(20_000):
        counts.append(sample_tree("gw", 3.0, 2, seed=s).n_nodes)
    counts = np.asarray(counts, dtype=float)
    se = counts.std() / np.sqrt(len(counts))
    assert abs(counts.mean() - 13.0) < 3 * se + 1e-9


def test_subcritical_extinction():
    for s in range(500):
        t = sample_tree("gw", 0.5, 20, seed=s)
        assert t.level_size(20) == 0


def test_broadcast_eta_zero_and_one():
    t = sample_tree("dary", 2, 3, seed=1)
    t0 = run_broadcast(t, 0.0, seed=2)
    assert np.all(t0.sigma == t0.sigma[0])
    t1 = run_broadcast(t, 1.0, seed=2)
    for j in range(4):
        lvl = t1.level(j)
        expected = t1.sigma[0] * (-1) ** j
        assert np.all(t1.sigma[lvl] == expected)


def test_single_step_flip_rate():
    # P(sigma_child = sigma_root) = 1 - eta = 5/6
    eta = 1 / 6
    agree = 0
    n = 0
    t = sample_tree("dary", 3, 1, seed=0)
    for s in range(20_000):
        tb = run_broadcast(t, eta, seed=s)
        kids = tb.level(1)
        agree += int((tb.sigma[kids] == tb.sigma[0]).sum())
        n += len(kids)
    p_hat = agree / n
    se = np.sqrt(p_hat * (1 - p_hat) / n)
    assert abs(p_hat - 5 / 6) < 4 * se


def test_two_step_flip_rate():
    # P(sigma_grandchild = sigma_root) = (1 + theta^2) / 2
    theta = 0.6
    eta = (1 - theta) / 2
    t = sample_tree("dary", 2, 2, seed=0)
    agree = 0
    n = 0
    for s in range(20_000):
        tb = run_broadcast(t, eta, seed=s)
        g = tb.level(2)
        agree += int((tb.sigma[g] == tb.sigma[0]).sum())
        n += len(g)
    p_hat = agree / n
    want = (1 + theta ** 2) / 2
    se = np.sqrt(p_hat * (1 - p_hat) / n)
    assert abs(p_hat - want) < 4 * se


def test_root_symmetry():
    t = sample_tree("dary", 2, 1, seed=0)
    roots = [run_broadcast(t, 0.2, seed=s).sigma[0] for s in range(20_000)]
    p_plus = np.mean(np.asarray(roots) == 1)
    assert abs(p_plus - 0.5) < 4 * np.sqrt(0.25 / 20_000)


def test_leaf_noise_zero_is_identity():
    t = run_broadcast(sample_tree("gw", 3, 3, seed=5), 0.2, seed=6)
    tn = add_leaf_noise(t, 0.0, seed=7)
    lvl = tn.level(3)
    assert np.array_equal(tn.tau[lvl], tn.sigma[lvl])


def test_leaf_noise_flip_fraction():
    # one wide tree gives 1e5 leaves in a single draw
    t = run_broadcast(sample_tree("dary", 100_000, 1, seed=0), 0.3, seed=1)
    tn = add_leaf_noise(t, 0.3, seed=2)
    lvl = tn.level(1)
    frac = float((tn.tau[lvl] != tn.sigma[lvl]).mean())
    se = np.sqrt(0.3 * 0.7 / len(lvl))
    assert abs(frac - 0.3) < 4 * se


def test_leaf_noise_on_extinct_level_is_noop():
    t = run_broadcast(sample_tree("gw", 0.4, 8, seed=3), 0.2, seed=4)
    assert t.level_size(8) == 0
    tn = add_leaf_noise(t, 0.3, seed=5)
    assert tn.tau_level == 8
    assert np.all(tn.tau == 0)


def test_determinism():
    a = sample_tree("gw", 2.5, 6, seed=42)
    b = sample_tree("gw", 2.5, 6, seed=42)
    assert np.array_equal(a.parent, b.parent)
    ba = run_broadcast(a, 0.3, seed=9)
    bb = run_broadcast(b, 0.3, seed=9)
    assert np.array_equal(ba.sigma, bb.sigma)


def test_tree_from_parents_roundtrip():
    t = tree_from_parents([-1, 0, 0, 1, 1, 2])
    assert t.n_nodes == 6
    assert t.depth == 2
    assert [t.level_size(j) for j in range(3)] == [1, 2, 3]
    with pytest.raises(ValueError):
        tree_from_parents([0, -1])
    with pytest.raises(ValueError):
        tree_from_parents([-1, 5])


def test_bad_inputs():
    with pytest.raises(ValueError):
        sample_tree("dary", 2.5, 3)
    with pytest.raises(ValueError):
        sample_tree("weird", 2, 3)
    with pytest.raises(ValueError):
        run_broadcast(sample_tree("dary", 2, 1), 1.5)
    t = sample_tree("dary", 2, 1)
    with pytest.raises(ValueError):
        add_leaf_noise(t, 0.1)  # no spins yet
