import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from blockbp.params import ModelParams
from blockbp.partition import Partition, _check_blackbox, blackbox_partition, overlap
from blockbp.randgraph import graph_from_edges, sample_sbm


def test_oracle_noise_zero_is_exact():
    g = sample_sbm(ModelParams(n=500, a=8, b=2), seed=0)
    p = blackbox_partition(g, impl="oracle-noise", seed=1, delta0=0.0)
    rep = overlap(p, g.labels)
    assert rep.delta_frac == 0.0
    assert rep.accuracy == 1.0


def test_oracle_noise_rate():
    g = sample_sbm(ModelParams(n=10_000, a=8, b=2), seed=2)
    p = blackbox_partition(g, impl="oracle-noise", seed=3, delta0=0.3)
    rep = overlap(p, g.labels)
    se = np.sqrt(0.3 * 0.7 / g.n)
    assert abs(rep.delta_frac - 0.3) < 3 * se


def test_overlap_examples():
    truth = np.array([1, 1, -1, -1], dtype=np.int8)
    same = overlap(Partition(side=truth.copy()), truth)
    assert same.accuracy == 1.0 and same.delta_frac == 0.0 and same.aligned_sign == 1
    flipped = overlap(Partition(side=(-truth).astype(np.int8)), truth)
    assert flipped.accuracy == 1.0 and flipped.delta_frac == 0.0
    assert flipped.aligned_sign == -1


def test_overlap_random_labels_near_half():
    rng = np.random.default_rng(4)
    truth = np.where(rng.random(10_000) < 0.5, 1, -1).astype(np.int8)
    guess = np.where(rng.random(10_000) < 0.5, 1, -1).astype(np.int8)
    rep = overlap(Partition(side=guess), truth)
    assert 0.5 <= rep.accuracy < 0.52


@given(st.lists(st.sampled_from([1, -1]), min_size=2, max_size=40))
def test_overlap_flip_invariance(sides):
    rng = np.random.default_rng(5)
    truth = np.where(rng.random(len(sides)) < 0.5, 1, -1).astype(np.int8)
    p = Partition(side=np.asarray(sides, dtype=np.int8))
    r1 = overlap(p, truth)
    r2 = overlap(p.flipped(), truth)
    r3 = overlap(p, -truth)
    assert r1.delta_frac == r2.delta_frac == r3.delta_frac
    assert r1.accuracy == r2.accuracy == r3.accuracy


def test_overlap_size_mismatch():
    with pytest.raises(ValueError):
        overlap(Partition(side=np.ones(3, dtype=np.int8)), np.ones(4, dtype=np.int8))


def test_empty_graph_rejected():
    g = graph_from_edges(1, [], [1])
    empty = g.__class__(n=0, indptr=np.zeros(1, np.int64),
                        indices=np.zeros(0, np.int64), labels=np.zeros(0, np.int8))
    with pytest.raises(ValueError):
        blackbox_partition(empty, impl="oracle-noise", delta0=0.1)


def test_oracle_noise_needs_delta0():
    g = sample_sbm(ModelParams(n=50, a=5, b=1), seed=6)
    with pytest.raises(ValueError, match="delta0"):
        blackbox_partition(g, impl="oracle-noise")
    for delta0 in (0.5, -0.1):
        with pytest.raises(ValueError, match=r"delta0 must lie in \[0, 1/2\)"):
            blackbox_partition(g, impl="oracle-noise", delta0=delta0)
    for delta0 in (float("nan"), True):
        with pytest.raises(ValueError, match=rf"'delta0' must be a finite number, not {delta0}"):
            blackbox_partition(g, impl="oracle-noise", delta0=delta0)
    with pytest.raises(ValueError):
        blackbox_partition(g, impl="unknown")


def test_spectral_takes_no_delta0():
    # a spectral run applies no noise, so a given delta0 would be recorded
    # beside rows it never touched
    for delta0 in (0.9, 0.25, 0.0):
        with pytest.raises(ValueError, match="spectral takes no delta0"):
            _check_blackbox("spectral", delta0)
    _check_blackbox("spectral", None)
    g = sample_sbm(ModelParams(n=50, a=5, b=1), seed=6)
    with pytest.raises(ValueError, match="delta0"):
        blackbox_partition(g, impl="spectral", delta0=0.25)


def test_spectral_deterministic():
    g = sample_sbm(ModelParams(n=2_000, a=20, b=4), seed=7)
    p1 = blackbox_partition(g, impl="spectral", seed=8)
    p2 = blackbox_partition(g, impl="spectral", seed=8)
    assert np.array_equal(p1.side, p2.side)


def test_spectral_regression_high_snr():
    # benchmark fixture: strong signal, 20 seeds, at most one miss of 0.3
    misses = 0
    for s in range(20):
        g = sample_sbm(ModelParams(n=20_000, a=30, b=4), seed=100 + s)
        p = blackbox_partition(g, impl="spectral", seed=s)
        misses += overlap(p, g.labels).delta_frac > 0.3
    assert misses <= 1


@pytest.mark.parametrize("a, b", [(8, 2), (2, 8)])
def test_spectral_beats_chance_in_sparse_regime(a, b):
    # theta^2 d = 1.8 at n = 20 000, assortative and disassortative: the
    # adjacency matrix's top eigenvectors localise on high-degree vertices
    # here (a power iteration split 0.53-0.71 and 0.63-0.77 over these seeds),
    # the Bethe Hessian's negative eigenvalue does not
    g = sample_sbm(ModelParams(n=20_000, a=a, b=b), seed=0)
    for seed in range(4):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = blackbox_partition(g, impl="spectral", seed=seed)
        assert p.informative and p.flipped().informative
        assert overlap(p, g.labels).accuracy > 0.75
        assert np.array_equal(p.side, blackbox_partition(g, impl="spectral", seed=seed).side)


def test_spectral_good_split_is_silent():
    g = sample_sbm(ModelParams(n=20_000, a=12, b=3), seed=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p = blackbox_partition(g, impl="spectral", seed=1)
    assert p.informative
    assert overlap(p, g.labels).accuracy > 0.85
    q = blackbox_partition(g, impl="oracle-noise", seed=1, delta0=0.1)
    assert q.informative


def test_spectral_below_threshold_says_so():
    # (a - b)^2 / (2(a + b)) = 0.1: H(+r)'s second eigenvalue is +0.006 and
    # H(-r)'s smallest +0.015, so the split is the start vector's signs
    g = sample_sbm(ModelParams(n=10_000, a=3, b=2), seed=0)
    with pytest.warns(RuntimeWarning, match="no negative Bethe-Hessian eigenvalue"):
        p = blackbox_partition(g, impl="spectral", seed=0)
    assert not p.informative and not p.flipped().informative
    v0 = np.random.default_rng(0).standard_normal(g.n)
    assert np.array_equal(p.side, np.where(v0 >= 0.0, 1, -1))


@pytest.mark.parametrize("n, edges", [
    (5, []),                   # r is not defined
    (4, [(0, 1), (2, 3)]),     # r^2 = 0
    (3, [(0, 1), (1, 2)]),     # r^2 = 1/2
    (3, [(0, 1), (1, 2), (0, 2)]),  # r^2 = 1
    (1, []),
], ids=["edgeless", "perfect-matching", "path-of-three", "triangle", "one-vertex"])
def test_spectral_degenerate_graphs_warn(n, edges):
    g = graph_from_edges(n, edges, [1] * n)
    with pytest.warns(RuntimeWarning, match="no negative Bethe-Hessian eigenvalue"):
        p = blackbox_partition(g, impl="spectral", seed=3)
    assert not p.informative and p.n == n
    v0 = np.random.default_rng(3).standard_normal(n)
    assert np.array_equal(p.side, np.where(v0 >= 0.0, 1, -1))
