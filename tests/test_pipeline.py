import math
import warnings

import numpy as np
import pytest

from _oracles import label_one, recover_loop
from blockbp import popdyn, randgraph
from blockbp.bpcore import bp_combine
from blockbp.params import ModelParams
from blockbp.partition import Partition
from blockbp.pipeline import (
    STAGES,
    AlgoConfig,
    _label_balls,
    align_partition,
    choose_anchor,
    recover,
    resolve_radius,
    save_vertex_csv,
)
from blockbp.randgraph import (
    LabelledGraph,
    bfs_balls,
    graph_from_edges,
    remove_set,
    sample_sbm,
)
from blockbp.seeding import derived_rng


def held_out_mask(seed: int, n: int) -> np.ndarray:
    # recompute the hold-out set exactly as recover derives it
    u = np.sort(derived_rng(seed, "hold-out").choice(n, size=int(math.isqrt(n)),
                                                     replace=False))
    mask = np.zeros(n, dtype=bool)
    mask[u] = True
    return mask


# --- radius resolution -------------------------------------------------------


def test_resolve_radius_modes():
    cfg_auto = AlgoConfig(R_mode="auto", K=1)
    assert resolve_radius(cfg_auto, 20_000, 30, 4) == 1  # 17^2 > n^(1/8)
    assert resolve_radius(cfg_auto, 20_000, 1.4, 1.0) == 6  # tiny d hits the cap
    cfg_fixed = AlgoConfig(R=3, R_mode="fixed", K=1)
    assert resolve_radius(cfg_fixed, 1000, 30, 4) == 3
    with pytest.raises(ValueError, match="exceeds"):
        resolve_radius(AlgoConfig(R=1, R_mode="fixed", K=2), 1000, 30, 4)


def test_config_validation():
    with pytest.raises(ValueError):
        AlgoConfig(R_mode="fixed")
    with pytest.raises(ValueError):
        AlgoConfig(R_mode="strange")
    with pytest.raises(ValueError):
        AlgoConfig(batch=0)
    with pytest.raises(ValueError):
        AlgoConfig(K=-1)
    with pytest.raises(ValueError, match="delta"):
        AlgoConfig(weights_delta=0.7)


# --- anchor choice -----------------------------------------------------------


def test_anchor_single_candidate():
    g = graph_from_edges(6, [(0, 1), (0, 2), (0, 3), (0, 4)], [1] * 6)
    u, fallback = choose_anchor(g, [0], derived_rng(0, "t"), min_degree=3)
    assert u == 0 and not fallback


def test_anchor_fallback_max_degree():
    g = graph_from_edges(6, [(0, 1), (0, 2), (3, 4)], [1] * 6)
    u, fallback = choose_anchor(g, [0, 3, 5], derived_rng(0, "t"), min_degree=10)
    assert u == 0 and fallback  # highest out-degree wins, flagged


def test_anchor_counts_only_outside_neighbors():
    g = graph_from_edges(5, [(0, 1), (0, 2), (0, 3)], [1] * 5)
    # 1 and 2 are in the hold-out, so 0 has out-degree 1
    u, fallback = choose_anchor(g, [0, 1, 2], derived_rng(0, "t"), min_degree=2)
    assert fallback
    with pytest.raises(ValueError):
        choose_anchor(g, [], derived_rng(0, "t"))


def test_anchor_regression_high_snr():
    # strong graphs: a qualifying anchor exists in at least 19 of 20 seeds
    fallbacks = 0
    for s in range(20):
        g = sample_sbm(ModelParams(n=10_000, a=30, b=4), seed=300 + s)
        hold = np.sort(derived_rng(s, "h").choice(g.n, 100, replace=False))
        _, fb = choose_anchor(g, hold, derived_rng(s, "a"))
        fallbacks += fb
    assert fallbacks <= 1


# --- alignment ---------------------------------------------------------------


def _star_with_sides(sides):
    n = len(sides) + 1
    edges = [(0, i) for i in range(1, n)]
    g = graph_from_edges(n, edges, [1] * n)
    p = Partition(side=np.array([1] + list(sides), dtype=np.int8))
    return g, p


def test_align_examples():
    g, p = _star_with_sides([1] * 5 + [-1] * 2)
    out, info = align_partition(p, g, 0, a=3, b=1)
    assert not info.swapped and np.array_equal(out.side, p.side)
    out, info = align_partition(p.flipped(), g, 0, a=3, b=1)
    assert info.swapped and np.array_equal(out.side, p.side)
    # a < b reverses the rule
    out, info = align_partition(p, g, 0, a=1, b=3)
    assert info.swapped and np.array_equal(out.side, p.flipped().side)


def test_align_tie_flagged():
    g, p = _star_with_sides([1, 1, -1, -1])
    out, info = align_partition(p, g, 0, a=3, b=1)
    assert info.tie and not info.swapped
    assert np.array_equal(out.side, p.side)


# --- single-vertex labelling ------------------------------------------------


def _label_one(g, v, side, radius, big_k, theta, seed=0, weights_delta=None):
    """The batched engine on the one-centre ball of v; outputs of centre 0."""
    out = _label_balls(bfs_balls(g, [v], radius), np.asarray(side, dtype=np.int8),
                       big_k, theta, weights_delta, 1e-12, derived_rng(seed, "label-one", v))
    return {name: value[0] for name, value in out._asdict().items()}


def test_label_vertex_composition_example():
    # v with sphere observations (+, +, -) at R=1, K=0: BP on the signs
    g = graph_from_edges(4, [(0, 1), (0, 2), (0, 3)], [1, 1, 1, -1])
    theta = (2 - 1) / (2 + 1)
    out = _label_one(g, 0, [1, 1, 1, -1], 1, 0, theta)
    want = bp_combine([1, 1, -1], theta)
    assert out["magnetization"] == pytest.approx(want, abs=1e-12)
    assert out["sign"] == 1 and not out["coin"]


def test_label_vertex_k1_equals_weighted_vote_sign():
    g = graph_from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)], [1] * 5)
    out = _label_one(g, 0, [1, -1, 1, 1, 1], 1, 1, 0.5)
    assert out["sign"] == 1  # 3 of 4 sphere votes are +
    assert out["magnetization"] == pytest.approx(1.0)  # hard vote at the root


def test_label_vertex_empty_sphere_is_coin():
    g = graph_from_edges(3, [(1, 2)], [1, 1, 1])  # vertex 0 isolated
    signs = set()
    for s in range(30):
        out = _label_one(g, 0, np.ones(3), 1, 0, 1 / 3, seed=s)
        assert out["coin"] and out["empty_sphere"] and out["magnetization"] == 0.0
        signs.add(out["sign"])
    assert signs == {1, -1}


def test_label_vertex_nontree_flag():
    g = graph_from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)], [1, 1, 1, 1])
    assert bfs_balls(g, [0], 1).nontree(g)[0]
    assert not bfs_balls(g, [3], 1).nontree(g)[0]


# --- full recovery -----------------------------------------------------------


def test_recover_self_consistency_perfect_boundary():
    # with an exact initial partition the pipeline loses only the hold-out coins
    m = ModelParams(n=2000, a=30, b=4)
    g = sample_sbm(m, seed=50)
    cfg = AlgoConfig(R=2, R_mode="fixed", K=1)
    res = recover(g, cfg, m, impl="oracle-noise", seed=0, delta0=0.0)
    mask = ~held_out_mask(0, g.n)
    frac = float((res.side[mask] == g.labels[mask]).mean())
    frac = max(frac, 1 - frac)
    assert frac >= 0.995
    assert res.accuracy >= 1.0 - (0.75 * mask.size ** 0.5) / mask.size


def test_recover_r1_k1_does_not_degrade_initial():
    # initial partition restricted to V \ U is perfect; the relabelled one may
    # lose at most a CI width
    m = ModelParams(n=2000, a=30, b=4)
    g = sample_sbm(m, seed=51)
    cfg = AlgoConfig(R=1, R_mode="fixed", K=1)
    res = recover(g, cfg, m, impl="oracle-noise", seed=1, delta0=0.0)
    mask = ~held_out_mask(1, g.n)
    frac = float((res.side[mask] == g.labels[mask]).mean())
    frac = max(frac, 1 - frac)
    n_eff = int(mask.sum())
    ci = 2.576 * math.sqrt(frac * (1 - frac) / n_eff) + 2.576 * 0.5 / math.sqrt(n_eff)
    assert frac >= 1.0 - ci


def test_recover_flip_equivariance():
    # flipping every hidden label flips the oracle partition, which the
    # anchor alignment flips straight back: the output is identical and the
    # symmetric accuracy unchanged, exactly
    m = ModelParams(n=1200, a=30, b=4)
    g = sample_sbm(m, seed=52)
    g_flipped = LabelledGraph(n=g.n, indptr=g.indptr, indices=g.indices,
                              labels=(-g.labels).astype(np.int8))
    cfg = AlgoConfig(R=2, R_mode="fixed", K=1)
    r1 = recover(g, cfg, m, impl="oracle-noise", seed=3, delta0=0.2)
    r2 = recover(g_flipped, cfg, m, impl="oracle-noise", seed=3, delta0=0.2)
    assert np.array_equal(r2.side, r1.side)
    assert r1.accuracy == r2.accuracy
    assert r1.report.aligned_sign == -r2.report.aligned_sign


def test_recover_monotone_snr():
    accs = []
    for a, b in ((30, 4), (21, 5), (3, 2)):
        m = ModelParams(n=4000, a=a, b=b)
        vals = []
        for s in range(2):
            g = sample_sbm(m, seed=400 + s)
            cfg = AlgoConfig(R=2, R_mode="fixed", K=1)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                res = recover(g, cfg, m, impl="oracle-noise", seed=s, delta0=0.25)
            vals.append(res.accuracy)
        accs.append(float(np.mean(vals)))
    assert accs[0] > accs[1] > accs[2]
    assert accs[0] - accs[1] > 0.005
    assert accs[1] - accs[2] > 0.05


def test_recover_below_threshold_warns():
    m = ModelParams(n=500, a=3, b=2)
    g = sample_sbm(m, seed=53)
    cfg = AlgoConfig(R=1, R_mode="fixed", K=0)
    with pytest.warns(UserWarning, match="recoverable"):
        recover(g, cfg, m, impl="oracle-noise", seed=0, delta0=0.25)


def test_recover_batch_one_removal_independence():
    # the literal per-vertex variant: the black-box input graph must contain
    # no vertex (hence no edge) of the inner ball B(v, R-1)
    m = ModelParams(n=400, a=8, b=2)
    g = sample_sbm(m, seed=54)
    sub = remove_set(g, [0, 1, 2])
    h = sub.graph
    from blockbp.randgraph import extract_neighborhood

    r = 2
    for v in (0, 5, 11):
        nb = extract_neighborhood(h, v, r - 1)
        inner = remove_set(h, nb.ball)
        for u in nb.ball:
            assert inner.old_to_new[u] == -1
        # every surviving edge avoids the ball entirely
        src = np.repeat(np.arange(inner.graph.n), inner.graph.degrees)
        mapped_back = inner.new_to_old[src]
        ball_set = set(nb.ball.tolist())
        assert not any(int(x) in ball_set for x in mapped_back)


def test_recover_batch_one_runs_blackbox_per_vertex():
    m = ModelParams(n=120, a=10, b=2)
    g = sample_sbm(m, seed=55)
    cfg = AlgoConfig(R=1, R_mode="fixed", K=0, batch=1)
    res = recover(g, cfg, m, impl="oracle-noise", seed=4, delta0=0.1)
    n_labelled = g.n - int(math.isqrt(g.n))
    assert res.diagnostics.blackbox_runs == n_labelled
    assert res.accuracy > 0.8


def test_recover_coupling_with_tree_process():
    # K=0 boundary BP on the graph vs the identical estimator on simulated
    # noisy trees at matched parameters; agreement within combined MC error
    m = ModelParams(n=4000, a=30, b=4)
    pipe = []
    for s in range(4):
        g = sample_sbm(m, seed=70 + s)
        cfg = AlgoConfig(R=2, R_mode="fixed", K=0)
        res = recover(g, cfg, m, impl="oracle-noise", seed=s, delta0=0.2)
        mask = ~held_out_mask(s, g.n)
        frac = float((res.side[mask] == g.labels[mask]).mean())
        pipe.append(max(frac, 1 - frac))
    pipe = np.asarray(pipe)
    n_eff = 4 * (m.n - int(math.isqrt(m.n)))

    _, pools = popdyn.magnetization_chain(
        "gw", 17.0, 13 / 17, 2, 100_000, np.random.default_rng(1),
        delta=0.2, y_init="signs",
    )
    y = pools["y"]
    tree_succ = float((y > 0).mean() + 0.5 * (y == 0).mean())
    se_tree = float(y.std()) / math.sqrt(len(y))
    se_pipe = math.sqrt(max(pipe.mean() * (1 - pipe.mean()), 1e-8) / n_eff)
    assert abs(pipe.mean() - tree_succ) <= 2 * (se_tree + se_pipe) + 5e-4


def test_recover_json_and_csv_outputs(tmp_path):
    m = ModelParams(n=600, a=20, b=4)
    g = sample_sbm(m, seed=56)
    cfg = AlgoConfig(R=1, R_mode="fixed", K=1)
    res = recover(g, cfg, m, impl="oracle-noise", seed=5, delta0=0.2)
    d = res.to_json_dict()
    assert set(d) >= {"accuracy", "delta_frac", "diagnostics"}
    assert d["diagnostics"]["r_used"] == 1
    path = tmp_path / "vertices.csv"
    save_vertex_csv(res, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "v,assigned_sign,magnetization"
    assert len(lines) == g.n + 1


def test_recover_deterministic():
    m = ModelParams(n=800, a=20, b=4)
    g = sample_sbm(m, seed=57)
    cfg = AlgoConfig(R=2, R_mode="fixed", K=1)
    r1 = recover(g, cfg, m, impl="oracle-noise", seed=6, delta0=0.2)
    r2 = recover(g, cfg, m, impl="oracle-noise", seed=6, delta0=0.2)
    assert np.array_equal(r1.side, r2.side)
    assert np.array_equal(r1.magnetization, r2.magnetization)


def test_recover_inverted_model():
    # a < b (anti-correlated channel): the sign conventions flow through the
    # whole pipeline, alignment rule included
    m = ModelParams(n=2000, a=4, b=30)
    g = sample_sbm(m, seed=60)
    cfg = AlgoConfig(R=2, R_mode="fixed", K=1)
    res = recover(g, cfg, m, impl="oracle-noise", seed=8, delta0=0.25)
    assert res.accuracy > 0.95


def test_recover_logs_anchor_ball_violations():
    # in a small dense graph the radius-2 balls cover most vertices, so the
    # anchor's neighbors must land inside some inner balls; the audit counter
    # has to see it
    m = ModelParams(n=400, a=30, b=4)
    g = sample_sbm(m, seed=58)
    cfg = AlgoConfig(R=2, R_mode="fixed", K=1)
    res = recover(g, cfg, m, impl="oracle-noise", seed=7, delta0=0.1)
    assert res.diagnostics.u_star_ball_violations > 0


# --- batched engine against the per-vertex loop ------------------------------


ORACLE_CASES = [
    # (n, a, b, R, K, batch, impl, delta0, weights_delta)
    (600, 8, 2, 2, 0, None, "oracle-noise", 0.2, None),     # K = 0
    (600, 8, 2, 2, 1, None, "oracle-noise", 0.2, None),     # 0 < K < R
    (600, 8, 2, 2, 2, None, "oracle-noise", 0.2, None),     # K = R
    (600, 5, 1, 3, 1, None, "oracle-noise", 0.3, None),     # deeper, sparser balls
    (600, 2, 8, 2, 1, None, "oracle-noise", 0.2, None),     # a < b
    (400, 3, 1, 2, 1, None, "oracle-noise", 0.2, None),     # isolated centres
    (600, 8, 2, 2, 1, None, "oracle-noise", 0.25, 0.3),     # terminal resistors
    (600, 8, 2, 1, 1, None, "spectral", None, None),
    (150, 8, 2, 2, 1, 1, "oracle-noise", 0.2, None),        # batch = 1
    (300, 8, 2, 3, 2, 7, "oracle-noise", 0.2, None),        # batch = j > 1
]


@pytest.mark.parametrize("budget", [None, 64])
@pytest.mark.parametrize("case", ORACLE_CASES)
def test_recover_matches_per_vertex_oracle(case, budget, monkeypatch):
    # labels, magnetizations and diagnostic counts are bit-identical to the
    # per-vertex loop: with one chunk per graph, and with chunk boundaries
    # falling mid-graph (a tiny gathered-neighbour budget)
    n, a, b, r, k, batch, impl, delta0, wd = case
    if budget is not None:
        monkeypatch.setattr(randgraph, "_BALL_BUDGET", budget)
    m = ModelParams(n=n, a=a, b=b)
    cfg = AlgoConfig(R=r, R_mode="fixed", K=k, batch=batch, weights_delta=wd)
    for seed in range(2):
        g = sample_sbm(m, seed=90 + seed)
        h_n = g.n - int(math.isqrt(g.n))
        chunks = math.ceil(h_n / randgraph._chunk_size(g, r))
        assert (chunks > 2) == (budget is not None)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = recover(g, cfg, m, impl=impl, seed=seed, delta0=delta0)
            side, mag, counts = recover_loop(g, cfg, m, impl=impl, seed=seed,
                                             delta0=delta0)
        assert np.array_equal(res.side, side)
        assert np.array_equal(res.magnetization, mag)
        for name, value in counts.items():
            assert getattr(res.diagnostics, name) == value, name
        if (a, b) == (3, 1):
            assert res.diagnostics.empty_spheres > 0


def test_zero_root_redraw_keeps_coin_stream():
    # R = 2, K = 1: a root whose two level-1 votes cancel is exactly 0 and
    # takes one more uniform after its tie coins; the batch must redraw so
    # that every later centre's coins shift by one, as in the per-vertex loop
    # centre 0: children 1 (+ leaf 3) and 2 (- leaf 4): votes cancel -> root 0
    # centre 5: children 6 (+ leaf 8) and 7 (unobserved leaf 9): one tie
    # coin, and a - coin cancels the + vote, so its own coin decides whether
    # the root is 0
    edges = [(0, 1), (0, 2), (1, 3), (2, 4), (5, 6), (5, 7), (6, 8), (7, 9)]
    g = graph_from_edges(10, edges, [1] * 10)
    side = np.array([1, 1, 1, 1, -1, 1, 1, 1, 1, 0], dtype=np.int8)
    theta = 0.6
    for seed in range(20):
        centres = [0, 5, 0, 5]
        balls = bfs_balls(g, centres, 2)
        got = _label_balls(balls, side, 1, theta, None, 1e-12, derived_rng(seed, "z"))
        rng = derived_rng(seed, "z")
        visited = np.zeros(g.n, dtype=bool)
        for i, v in enumerate(centres):
            want = label_one(g.indptr, g.indices, v, 2, 1, theta, None, 1e-12, side,
                             visited, rng)
            assert got.sign[i] == want["sign"]
            assert got.magnetization[i] == want["magnetization"]
            assert got.coin[i] == want["coin"]
        assert got.coin[0] and got.coin[2]


# --- terminal-resistor weights (weights_delta) -------------------------------


def _hand_vote(theta, delta, leaf_groups):
    """Conductance-weighted K = R = 2 vote at the root, by hand.

    ``leaf_groups`` lists, per root child, the +-1 observations of its
    leaves.  Conductances are in level-local units: a terminal resistor of
    conductance (1-2 delta)^2 / (4 delta (1-delta)) (infinite when delta is
    None), each tree edge of resistance (1 - theta^2) / theta^2.
    """
    t2 = theta * theta
    g_term = math.inf if delta is None else (1 - 2 * delta) ** 2 / (4 * delta * (1 - delta))

    def series(z):  # subtree conductance z behind one more tree edge
        return t2 / ((1 - t2) + (0.0 if z == math.inf else 1.0 / z))

    leaf_c = series(g_term)
    child_c = [series(leaf_c * len(obs)) for obs in leaf_groups]
    total = sum(child_c)
    vote = 0.0
    for c, obs in zip(child_c, leaf_groups):
        for x in obs:  # the child's current splits evenly over equal leaves
            vote += (c / total) * (1.0 / len(obs)) * theta ** -2 * x
    return vote


def test_weights_delta_hard_vote_star():
    # root 0; child 1 with ten leaves (4 +, 6 -), child 2 with one + leaf.
    # Without terminal resistors the big subtree's weight saturates and the
    # lone + leaf wins; with heavy terminal noise each leaf counts about
    # equally and the - majority wins.
    leaves_1 = list(range(3, 13))
    edges = [(0, 1), (0, 2), (2, 13)] + [(1, u) for u in leaves_1]
    g = graph_from_edges(14, edges, [1] * 14)
    side = np.ones(14, dtype=np.int8)
    side[leaves_1[4:]] = -1
    theta = 0.5  # a = 3, b = 1
    groups = [[int(side[u]) for u in leaves_1], [1]]
    signs = {}
    for delta in (None, 0.45):
        want = math.copysign(1.0, _hand_vote(theta, delta, groups))
        out = _label_one(g, 0, side, 2, 2, theta, weights_delta=delta)
        assert out["magnetization"] == want and not out["coin"]
        signs[delta] = want
        # the batched engine over a multi-centre batch and the per-vertex loop agree
        balls = bfs_balls(g, [1, 0, 2], 2)
        got = _label_balls(balls, side, 2, theta, delta, 1e-12, derived_rng(0, "w"))
        loop = label_one(g.indptr, g.indices, 0, 2, 2, theta, delta, 1e-12, side,
                         np.zeros(g.n, dtype=bool), derived_rng(0, "w"))
        assert got.magnetization[1] == loop["magnetization"] == want
    assert signs[None] == 1.0 and signs[0.45] == -1.0


# --- per-stage seconds -------------------------------------------------------


def test_recover_stage_seconds():
    m = ModelParams(n=600, a=20, b=4)
    g = sample_sbm(m, seed=56)
    cfg = AlgoConfig(R=2, R_mode="fixed", K=1)
    res = recover(g, cfg, m, impl="oracle-noise", seed=5, delta0=0.2)
    assert tuple(res.stage_seconds) == STAGES
    assert all(v >= 0.0 for v in res.stage_seconds.values())
    assert sum(res.stage_seconds.values()) <= res.seconds
    d = res.to_json_dict()
    assert d["stage_seconds"] == res.stage_seconds
    assert d["diagnostics"]["blackbox_informative"] is True


# --- the spectral black box at the wide benchmark point ----------------------


@pytest.mark.parametrize("bench_seed", [500, 503, 600])
def test_wide_benchmark_point_black_box_is_silent(bench_seed):
    # recover() at n = 2e5, a = 12, b = 3, R = 1, K = 1 with the spectral
    # black box, on the graphs and recover seeds that the recover-wide
    # benchmark derives from its --seed: every black-box run finds its
    # community eigenvalue, with no warning
    m = ModelParams(n=200_000, a=12, b=3)
    graph_ss, recover_ss, _ = np.random.SeedSequence(bench_seed).spawn(3)
    g = sample_sbm(m, seed=np.random.default_rng(graph_ss))
    seed = int(np.random.default_rng(recover_ss).integers(2 ** 62))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = recover(g, AlgoConfig(R=1, R_mode="fixed", K=1), m, seed=seed)
    assert res.diagnostics.blackbox_informative
    assert res.accuracy > 0.85
