import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from blockbp.params import ModelParams
from blockbp.partition import Partition, blackbox_partition, overlap, save_partition
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
    with pytest.raises(ValueError):
        blackbox_partition(g, impl="oracle-noise")
    with pytest.raises(ValueError):
        blackbox_partition(g, impl="unknown")


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


def test_save_partition(tmp_path):
    p = Partition(side=np.array([1, -1, 1], dtype=np.int8))
    path = tmp_path / "part.txt"
    save_partition(p, path)
    assert path.read_text().splitlines() == ["0 +1", "1 -1", "2 +1"]


def test_spectral_non_convergence_warns():
    # theta^2 d = 1.8 at n = 20 000: at the cap the iterate still swings
    # between two eigenvectors, moving about half the vertices each step; the
    # run says so and the partition records it
    g = sample_sbm(ModelParams(n=20_000, a=8, b=2), seed=0)
    with pytest.warns(RuntimeWarning, match="200-iteration cap"):
        p = blackbox_partition(g, impl="spectral", seed=0)
    assert p.iters == 200 and not p.converged
    # the record survives relabelling, and the count follows the cap
    assert p.flipped().iters == 200 and not p.flipped().converged
    with pytest.warns(RuntimeWarning, match="5-iteration cap"):
        short = blackbox_partition(g, impl="spectral", seed=0, iters=5)
    assert short.iters == 5


def test_spectral_cap_with_settled_sides_is_silent():
    # a = 12, b = 3 at n = 20 000, seed 1 stops at the cap just short of
    # tol = 1e-8, but its last step moves 1 vertex in 20 000 across the split:
    # converged stays false, no warning, and the split is good
    g = sample_sbm(ModelParams(n=20_000, a=12, b=3), seed=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p = blackbox_partition(g, impl="spectral", seed=1)
    assert p.iters == 200 and not p.converged
    assert overlap(p, g.labels).accuracy > 0.85
    # a converging run stops early; the oracle black box runs no iterations
    g = sample_sbm(ModelParams(n=2_000, a=12, b=3), seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p = blackbox_partition(g, impl="spectral", seed=0)
    assert p.converged and 0 < p.iters < 200
    q = blackbox_partition(g, impl="oracle-noise", seed=1, delta0=0.1)
    assert q.iters == 0 and q.converged
