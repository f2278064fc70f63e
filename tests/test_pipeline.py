import dataclasses
import hashlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from _oracles import (
    bfs_extra_edges,
    conductance_up,
    current_down,
    label_one,
    magnetization_chain_per_slot,
    pair_slots,
    recover_loop,
    revisits,
    walk_tree,
)
from blockbp import pipeline
from blockbp.bpcore import bp_combine
from blockbp.params import ModelParams
from blockbp.partition import Partition
from blockbp.pipeline import (
    STAGES,
    AlgoConfig,
    _check_pairs,
    _edge_pairs,
    _label_edges,
    _nontree_estimate,
    _revisiting,
    align_partition,
    choose_anchor,
    recover,
    resolve_radius,
    save_vertex_csv,
)
from blockbp.randgraph import (
    LabelledGraph,
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
    with pytest.raises(ValueError, match="R_mode"):
        AlgoConfig(R=3)  # auto would ignore R and pick its own radius
    with pytest.raises(ValueError):
        AlgoConfig(K=-1)
    for cfg in ({"R": 2.5, "R_mode": "fixed"}, {"R": 2.0, "R_mode": "fixed"},
                {"R": True, "R_mode": "fixed"}, {"K": 1.5}, {"K": True}, {"K": None}):
        with pytest.raises(ValueError, match="integer"):
            AlgoConfig(**cfg)


# --- anchor choice -----------------------------------------------------------


# the degree floor is ceil(sqrt(ln n)): 2 at n = 5 and n = 6


def test_anchor_single_candidate():
    g = graph_from_edges(6, [(0, 1), (0, 2), (0, 3), (0, 4)], [1] * 6)
    u, fallback = choose_anchor(g, [0], derived_rng(0, "t"))
    assert u == 0 and not fallback


def test_anchor_fallback_max_degree():
    g = graph_from_edges(6, [(0, 1), (3, 4)], [1] * 6)
    u, fallback = choose_anchor(g, [0, 3, 5], derived_rng(0, "t"))
    assert u == 0 and fallback  # highest out-degree wins, smallest id on ties, flagged


def test_anchor_counts_only_outside_neighbors():
    g = graph_from_edges(5, [(0, 1), (0, 2), (0, 3)], [1] * 5)
    # 1 and 2 are in the hold-out, so 0 has out-degree 1
    u, fallback = choose_anchor(g, [0, 1, 2], derived_rng(0, "t"))
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
    ids = np.arange(g.n)
    out, info = align_partition(p, g, 0, a=3, b=1, old_to_new=ids)
    assert not info.swapped and np.array_equal(out.side, p.side)
    out, info = align_partition(p.flipped(), g, 0, a=3, b=1, old_to_new=ids)
    assert info.swapped and np.array_equal(out.side, p.side)
    # a < b reverses the rule
    out, info = align_partition(p, g, 0, a=1, b=3, old_to_new=ids)
    assert info.swapped and np.array_equal(out.side, p.flipped().side)


def test_align_tie_flagged():
    g, p = _star_with_sides([1, 1, -1, -1])
    out, info = align_partition(p, g, 0, a=3, b=1, old_to_new=np.arange(g.n))
    assert info.tie and not info.swapped
    assert np.array_equal(out.side, p.side)


# --- single-vertex labelling ------------------------------------------------


def _label_all(g, side, radius, big_k, theta, seed=0):
    """The edge engine on all of g, with the coin streams ``recover`` derives."""
    return _label_edges(g, np.asarray(side, dtype=np.int8), radius, big_k, theta,
                        derived_rng(seed, "labels"),
                        derived_rng(seed, "zero-roots").random(g.n))


def _label_one(g, v, side, radius, big_k, theta, seed=0):
    """Vertex v's outputs of the edge engine."""
    out = _label_all(g, side, radius, big_k, theta, seed)
    return {name: value[v] for name, value in out._asdict().items()
            if name != "rounding_zeros"}


def _oracle_one(g, v, side, radius, big_k, theta, seed=0):
    """Vertex v's label by the per-vertex BFS oracle, with the same coin keys."""
    slot_u = derived_rng(seed, "labels").random(len(g.indices))
    slot_u = slot_u[pair_slots(g.indptr, g.indices)]
    root_u = derived_rng(seed, "zero-roots").random(g.n)
    return label_one(g.indptr, g.indices, v, radius, big_k, theta, 1e-12,
                     np.asarray(side, dtype=np.int8), np.zeros(g.n, dtype=bool), slot_u,
                     root_u[v])


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
        assert out["coin"] and out["no_walk"] and out["magnetization"] == 0.0
        assert not out["zero_root"]
        signs.add(out["sign"])
    assert signs == {1, -1}
    # a path 0 - 1 - 2 has a walk of length 2 from 0 but none of length 3;
    # around a triangle every walk goes on
    g = graph_from_edges(4, [(0, 1), (1, 2)], [1] * 4)
    assert _label_all(g, np.ones(4), 3, 1, 0.5).no_walk.tolist() == [True, True, True, True]
    assert _label_all(g, np.ones(4), 2, 1, 0.5).no_walk.tolist() == [False, True, False, True]
    g = graph_from_edges(3, [(0, 1), (1, 2), (0, 2)], [1] * 3)
    assert not _label_all(g, np.ones(3), 4, 1, 0.5).no_walk.any()


def test_label_vertex_nontree_flag():
    # a triangle 0-1-2 with a pendant 3 on 2: the walk tree of 0 at depth 2
    # comes back to 1 and 2, the BFS sees the edge 1-2 inside a scanned
    # level; at depth 1 that edge lies on the sphere and counts for nothing
    g = graph_from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)], [1, 1, 1, 1])
    visited = np.zeros(g.n, dtype=bool)
    for v, r, nontree in ((0, 2, True), (0, 1, False), (3, 2, False), (3, 3, True)):
        assert (bfs_extra_edges(g.indptr, g.indices, v, r, visited) > 0) == nontree
        assert revisits(walk_tree(g.indptr, g.indices, v, r)[0]) == nontree
        assert _revisiting(g, r, np.array([v])).tolist() == [nontree]


def _count_graphs():
    """Small SBMs, K6 (every walk tree revisits from R = 2) and a triangle
    with a pendant (a sphere-sphere edge at R = 1), each with an isolated
    vertex."""
    def with_isolated(g):
        src = np.repeat(np.arange(g.n), g.degrees)
        edges = [(int(x), int(y)) for x, y in zip(src, g.indices) if x < y]
        return graph_from_edges(g.n + 1, edges, np.ones(g.n + 1))

    graphs = [sample_sbm(ModelParams(n=n, a=a, b=b), seed=seed)
              for n, a, b, seed in ((12, 6, 2, 1), (60, 5, 1, 2), (200, 3, 1, 3))]
    graphs.append(graph_from_edges(6, [(x, y) for x in range(6) for y in range(x + 1, 6)],
                                   np.ones(6)))
    graphs.append(graph_from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)], np.ones(4)))
    return [with_isolated(g) for g in graphs]


def test_nontree_flag_iff_walk_tree_revisits():
    # the batched search flags a centre exactly where its explicit walk tree
    # visits a vertex twice, whatever the other centres of the batch and
    # their order; the reach pass finds a walk of length R exactly where
    # the walk tree has a node at depth R
    flags, no_walks = set(), set()
    for g in _count_graphs():
        assert g.degrees[g.n - 1] == 0
        for r in range(1, 6):
            trees = [walk_tree(g.indptr, g.indices, v, r)[0] for v in range(g.n)]
            want = np.array([revisits(levels) for levels in trees])
            assert np.array_equal(_revisiting(g, r, np.arange(g.n)), want), (g.n, r)
            order = np.random.default_rng(r).permutation(g.n)
            assert np.array_equal(_revisiting(g, r, order), want[order]), (g.n, r)
            out = _label_all(g, np.ones(g.n), r, 1, 0.5)
            assert out.no_walk.tolist() == [len(levels[r]) == 0 for levels in trees], (g.n, r)
            flags.update(want.tolist())
            no_walks.update(out.no_walk.tolist())
    assert flags == no_walks == {True, False}


def _pair_graphs():
    return [*_count_graphs(), sample_sbm(ModelParams(n=2000, a=30, b=4), seed=4),
            graph_from_edges(5, [], np.ones(5))]


def test_edge_pairs():
    # slot 2e + 1 is the reverse of slot 2e; each vertex's slots hold its
    # CSR row's neighbours in the same ascending order, so the row counts
    # are the degrees and an isolated vertex has no slot
    for g in _pair_graphs():
        row, nbr = _edge_pairs(g)
        assert len(row) == len(nbr) == len(g.indices)
        assert np.array_equal(row[1::2], nbr[::2]) and np.array_equal(nbr[1::2], row[::2])
        assert np.all(row[::2] < nbr[::2])
        by_row = np.argsort(row, kind="stable")
        assert np.array_equal(nbr[by_row], g.indices)
        assert np.array_equal(np.bincount(row, minlength=g.n), g.degrees)
        assert not np.isin(np.flatnonzero(g.degrees == 0), row).any()


@pytest.mark.parametrize("indptr, indices", [
    ([0, 1, 1], [1]),              # the edge 0 - 1 held in row 0 only
    ([0, 0, 1], [0]),              # ... in row 1 only
    ([0, 1, 1], [0]),              # a self-loop
    ([0, 2, 3, 5], [1, 2, 0, 0, 2]),  # two edges both ways, and a self-loop
])
def test_edge_pairs_refuse_unpaired_slots(indptr, indices):
    # a CSR whose slots do not pair up is refused, by _edge_pairs and by
    # the edge passes at R >= 2, rather than labelled from a wrong layout
    n = len(indptr) - 1
    g = LabelledGraph(n=n, indptr=np.array(indptr, dtype=np.int64),
                      indices=np.array(indices, dtype=np.int64),
                      labels=np.ones(n, dtype=np.int8))
    with pytest.raises(ValueError, match="do not pair up"):
        _edge_pairs(g)
    with pytest.raises(ValueError, match="do not pair up"):
        _label_all(g, np.ones(n), 2, 1, 0.5)
    with pytest.raises(ValueError, match="do not pair up"):
        _check_pairs(g)


def test_wide_keys_give_the_same_results(monkeypatch):
    # the searches and the pairing check take int32 keys when they fit;
    # int64 keys, which a large enough graph would need, give the same flags
    graphs = _pair_graphs()
    want = [_revisiting(g, 3, np.arange(g.n)) for g in graphs]
    monkeypatch.setattr(pipeline, "_key_type", lambda bound: np.int64)
    for g, flags in zip(graphs, want):
        assert np.array_equal(_revisiting(g, 3, np.arange(g.n)), flags)
        _check_pairs(g)


def test_nontree_sample_holds_one_chunk_of_keys():
    # at the recover-deep point (n = 2e4, a = 30, b = 4, R = 3) the sample's
    # traced peak stays below one chunk's keys counted at 8 bytes each, for
    # balls the size of a depth-3 tree of mean degree 17: the centres run
    # _NONTREE_CHUNK at a time, where all 500 at once held about 11 MiB
    m = ModelParams(n=20_000, a=30, b=4)
    h = sample_sbm(m, seed=61)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        count = _nontree_estimate(h, 3, np.random.default_rng(62))
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert count > 0
    assert peak < 8 * pipeline._NONTREE_CHUNK * sum(17 ** j for j in range(4))


def _one_way_graph(seed: int) -> LabelledGraph:
    """An SBM graph with a one-way 4-cycle added on four vertices outside
    ``recover``'s hold-out set: slots (a, c), (b, d), (c, b), (d, a) with
    a < b < c < d, two of them with row < neighbour, so the slot count
    still balances."""
    g = sample_sbm(ModelParams(n=400, a=12, b=3), seed=9)
    a, b, c, d = np.flatnonzero(~held_out_mask(seed, g.n))[[0, 1, 2, 3]]
    row = np.repeat(np.arange(g.n), g.degrees)
    assert not (np.isin(row, [a, b, c, d]) & np.isin(g.indices, [a, b, c, d])).any()
    row = np.concatenate((row, [a, b, c, d]))
    nbr = np.concatenate((g.indices, [c, d, b, a]))
    order = np.lexsort((nbr, row))
    indptr = np.concatenate(([0], np.cumsum(np.bincount(row, minlength=g.n))))
    return LabelledGraph(n=g.n, indptr=indptr, indices=nbr[order], labels=g.labels)


@pytest.mark.parametrize("cores", [1, 2])
def test_recover_refuses_one_way_edges(cores, monkeypatch):
    # a one-way 4-cycle passes _edge_pairs' slot count, and the edge passes
    # would label from a layout that is not H; the exact pairing check,
    # beside the edge passes or after them, makes recover raise instead
    monkeypatch.setattr(pipeline.popdyn, "_usable_cores", lambda: cores)
    g = _one_way_graph(seed=3)
    _edge_pairs(g)
    with pytest.raises(ValueError, match="do not pair up"):
        _check_pairs(g)
    m = ModelParams(n=g.n, a=12, b=3)
    with pytest.raises(ValueError, match="do not pair up"):
        recover(g, AlgoConfig(R=2, R_mode="fixed", K=1), m, impl="oracle-noise",
                seed=3, delta0=0.25)


@pytest.mark.parametrize("rows", [1, 7, 1024])
def test_pairing_check_reads_rows_in_blocks(rows, monkeypatch):
    # the check reads _PAIR_ROWS rows at a time; any block size passes a
    # paired graph and refuses the one-way 4-cycle, and a one-way edge
    # beside a self-loop, whose slot counts balance
    monkeypatch.setattr(pipeline, "_PAIR_ROWS", rows)
    for g in _pair_graphs():
        _check_pairs(g)
    loop = LabelledGraph(n=3, indptr=np.array([0, 1, 1, 2]), indices=np.array([1, 2]),
                         labels=np.ones(3, dtype=np.int8))
    _edge_pairs(loop)
    for g in (_one_way_graph(seed=3), loop):
        with pytest.raises(ValueError, match="do not pair up"):
            _check_pairs(g)


@pytest.mark.parametrize("cores", [1, 2])
def test_side_error_is_raised_over_main_error(cores, monkeypatch):
    # both units run whether the side unit runs beside the main one or
    # after it, and the side unit's error (the pairing check's) is raised
    monkeypatch.setattr(pipeline.popdyn, "_usable_cores", lambda: cores)
    ran = []

    def main():
        ran.append("main")
        raise KeyError("main")

    def side():
        ran.append("side")
        raise ValueError("side")

    with pytest.raises(ValueError, match="side"):
        pipeline._beside(main, side)
    assert sorted(ran) == ["main", "side"]


@pytest.mark.parametrize("cores, units, workers", [(2, 1, [1]), (2, 2, []), (2, 3, []),
                                                   (4, 2, [1, 1]), (4, 3, [])])
def test_chain_threads_start_a_side_worker_only_with_cores_to_spare(
        cores, units, workers, monkeypatch):
    # graph-recover runs its repetitions on _map_chains threads; a unit
    # there starts its side worker only when its share of the usable cores
    # is two or more, and runs the side after the main unit otherwise
    pools = []

    class Pool(pipeline.ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(pipeline, "ThreadPoolExecutor", Pool)
    monkeypatch.setattr(pipeline.popdyn, "_usable_cores", lambda: cores)
    out = pipeline.popdyn._map_chains(
        lambda i, unit: pipeline._beside(lambda: i, lambda: -unit), list(range(units)))
    assert out == [(i, -i) for i in range(units)]
    assert pools == workers
    assert pipeline.popdyn._cores_per_thread() == cores


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

    # Y starts from the bare noisy signs: the K = 0 estimator's leaves
    _, pools = magnetization_chain_per_slot(
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
    assert res.accuracy == res.report.accuracy and 0.0 <= res.report.delta_frac <= 1.0
    assert res.diagnostics.r_used == 1
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


# --- the edge engine against the per-vertex loop ------------------------------


ORACLE_CASES = [
    # (n, a, b, R, K, impl, delta0)
    (600, 8, 2, 2, 0, "oracle-noise", 0.2),     # K = 0
    (600, 8, 2, 2, 1, "oracle-noise", 0.2),     # 0 < K < R
    (600, 8, 2, 2, 2, "oracle-noise", 0.2),     # K = R
    (600, 5, 1, 3, 1, "oracle-noise", 0.3),     # deeper, sparser balls
    (600, 2, 8, 2, 1, "oracle-noise", 0.2),     # a < b
    (400, 3, 1, 2, 1, "oracle-noise", 0.2),     # isolated centres
    (600, 8, 2, 2, 1, "oracle-noise", 0.25),    # a noisier black box
    (600, 8, 2, 1, 1, "spectral", None),
    (150, 8, 2, 3, 3, "oracle-noise", 0.2),     # K = R = 3
    (300, 8, 2, 3, 2, "oracle-noise", 0.2),     # K >= 2 votes below the root
]


def _run_both(case, seed, **loop_kw):
    n, a, b, r, k, impl, delta0 = case
    m = ModelParams(n=n, a=a, b=b)
    cfg = AlgoConfig(R=r, R_mode="fixed", K=k)
    g = sample_sbm(m, seed=90 + seed)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = recover(g, cfg, m, impl=impl, seed=seed, delta0=delta0)
        loop = recover_loop(g, cfg, m, impl=impl, seed=seed, delta0=delta0, **loop_kw)
    return g, res, loop


@pytest.mark.parametrize("sample", [None, 64])
@pytest.mark.parametrize("case", ORACLE_CASES)
def test_recover_matches_per_vertex_oracle(case, sample, monkeypatch):
    # signs and diagnostic counts equal the per-vertex loop on explicit walk
    # trees, and magnetizations agree to rtol 1e-12 (the cavity step sums in
    # another order); the non-tree count comes from the default sample, or
    # from a 64-centre one
    if sample is not None:
        monkeypatch.setattr(pipeline, "_NONTREE_SAMPLE", sample)
    for seed in range(2):
        g, res, (side, mag, counts, _) = _run_both(
            case, seed, nontree_sample=pipeline._NONTREE_SAMPLE)
        assert np.array_equal(res.side, side)
        np.testing.assert_allclose(res.magnetization, mag, rtol=1e-12, atol=0)
        for name, value in counts.items():
            assert getattr(res.diagnostics, name) == value, name
        if case[1:3] == (3, 1):
            assert res.diagnostics.empty_spheres > 0
            assert res.diagnostics.zero_roots > 0
        if case[3] > 1 and case[0] > 500:
            assert 0 < res.diagnostics.nontree_neighborhoods < g.n


@pytest.mark.parametrize("case", ORACLE_CASES)
def test_walk_tree_oracle_equals_bfs_oracle_on_tree_balls(case):
    # where the BFS of B(v, R) sees no extra edge off the sphere the walk
    # tree is the BFS tree: labels and magnetizations are equal bit for bit,
    # and the walk tree revisits a vertex exactly where the BFS sees one
    for seed in range(2):
        g, res, (side, mag, _, revisit) = _run_both(case, seed)
        _, _, (side_bfs, mag_bfs, _, _) = _run_both(case, seed, tree="bfs")
        h_ids = np.flatnonzero(~held_out_mask(seed, g.n))
        h = remove_set(g, np.flatnonzero(held_out_mask(seed, g.n))).graph
        visited = np.zeros(h.n, dtype=bool)
        extra = np.array([bfs_extra_edges(h.indptr, h.indices, v, case[3], visited)
                          for v in range(h.n)])
        assert np.array_equal(revisit[h_ids], extra > 0)
        tree = h_ids[extra == 0]
        assert len(tree) > 0
        assert np.array_equal(side[tree], side_bfs[tree])
        assert np.array_equal(mag[tree], mag_bfs[tree])


def test_zero_root_coin_is_keyed_by_vertex():
    # R = 2, K = 1.  Centre 0: children 1 (+ leaf 3) and 2 (- leaf 4), whose
    # votes cancel, so its root is exactly 0 with no tie coin.  Centre 5:
    # children 6 (+ leaf 8) and 7, whose leaves 9 (+) and 10 (-) tie, so 7's
    # vote is the coin of its slot (row 5, neighbour 7): a - coin cancels
    # the + vote and that root is 0 only on some seeds.
    edges = [(0, 1), (0, 2), (1, 3), (2, 4), (5, 6), (5, 7), (6, 8), (7, 9), (7, 10)]
    g = graph_from_edges(11, edges, [1] * 11)
    side = np.array([1, 1, 1, 1, -1, 1, 1, 1, 1, 1, -1], dtype=np.int8)
    theta = 0.6
    slot_57 = 2 * 5  # pair slot 2e of edge e = 5, (5, 7), in sorted order
    assert [int(x[slot_57]) for x in _edge_pairs(g)] == [5, 7]
    signs0, zero5 = set(), set()
    for seed in range(20):
        got = _label_all(g, side, 2, 1, theta, seed=seed)
        root_u = derived_rng(seed, "zero-roots").random(g.n)
        slot_u = derived_rng(seed, "labels").random(len(g.indices))
        assert got.zero_root[0] and got.coin[0]
        assert got.sign[0] == (1 if root_u[0] < 0.5 else -1)
        signs0.add(int(got.sign[0]))
        assert got.zero_root[5] == (slot_u[slot_57] >= 0.5)
        zero5.add(bool(got.zero_root[5]))
        # the per-vertex oracle reads the same keys
        for v in range(g.n):
            want = _oracle_one(g, v, side, 2, 1, theta, seed=seed)
            for name in ("sign", "magnetization", "coin", "zero_root"):
                assert getattr(got, name)[v] == want[name], (v, name)
    assert signs0 == {1, -1} and zero5 == {True, False}


# --- hard-vote ties ----------------------------------------------------------


def _star(n_leaves, sides):
    """Centre 0 with leaves 1..n_leaves and the given leaf sides."""
    g = graph_from_edges(n_leaves + 1, [(0, i) for i in range(1, n_leaves + 1)],
                         [1] * (n_leaves + 1))
    return g, np.array([1] + list(sides), dtype=np.int8)


def test_tied_root_vote_is_a_coin():
    # R = K: the vote is the root's own value, and a tie decides nothing.
    # R = K = 1 on a star with two + and two - leaves; R = K = 2 on a root
    # whose two children each see one + and one - leaf
    g1, side1 = _star(4, [1, -1, 1, -1])
    edges = [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)]
    g2 = graph_from_edges(7, edges, [1] * 7)
    side2 = np.array([1, 1, -1, 1, -1, -1, 1], dtype=np.int8)
    for g, side, r in ((g1, side1, 1), (g2, side2, 2)):
        signs = set()
        for seed in range(20):
            out = _label_one(g, 0, side, r, r, 0.5, seed=seed)
            assert out["coin"] and out["zero_root"] and not out["no_walk"]
            assert out["magnetization"] == 0.0
            root_u = derived_rng(seed, "zero-roots").random(g.n)
            assert out["sign"] == (1 if root_u[0] < 0.5 else -1)
            assert _oracle_one(g, 0, side, r, r, 0.5, seed=seed)["sign"] == out["sign"]
            signs.add(out["sign"])
        assert signs == {1, -1}
    # counted in recover's coin_labels beside the hold-out coins
    m = ModelParams(n=2000, a=12, b=3)
    res = recover(sample_sbm(m, seed=61), AlgoConfig(R=1, R_mode="fixed", K=1), m,
                  impl="oracle-noise", seed=9, delta0=0.25)
    d = res.diagnostics
    assert d.zero_roots > 0
    assert d.coin_labels == math.isqrt(m.n) + d.zero_roots + d.empty_spheres
    assert np.count_nonzero(res.magnetization == 0.0) == d.coin_labels


def test_nine_against_nine_vote_is_a_tie():
    # 18 observed children, 9 at +1 and 9 at -1 in the order below, whose
    # current-weighted float sum (each current about 1/18) comes out
    # -2.8e-17: the K = 1 vote sums the sides as integers, so it is a tie and
    # draws a coin
    order = [-1, 1, 1, -1, -1, 1, 1, 1, -1, 1, 1, -1, -1, -1, 1, -1, 1, -1]
    theta = 0.5
    levels = [None, np.zeros(18, dtype=np.int64)]
    cur, anc = current_down(*conductance_up(np.full(18, np.inf), levels, [1, 18], theta),
                            levels)
    assert sum(order) == 0
    assert np.bincount(anc, weights=cur * theta ** -1 * np.array(order))[0] != 0.0
    # below the root (R = 2): vertex 1 votes towards the root 0 from the
    # leaves 2..19, and the coin is that of slot (row 0, neighbour 1)
    edges = [(0, 1)] + [(1, i) for i in range(2, 20)]
    g = graph_from_edges(20, edges, [1] * 20)
    side = np.array([1, 1] + order, dtype=np.int8)
    signs = set()
    for seed in range(20):
        out = _label_one(g, 0, side, 2, 1, theta, seed=seed)
        coin = 1 if derived_rng(seed, "labels").random(len(g.indices))[0] < 0.5 else -1
        assert not out["coin"] and out["sign"] == coin
        assert out["magnetization"] == pytest.approx(coin * theta, rel=1e-12)
        signs.add(out["sign"])
    assert signs == {1, -1}
    # at the root (R = K = 1) the same tie is a root coin
    g, side = _star(18, order)
    out = _label_one(g, 0, side, 1, 1, theta)
    assert out["coin"] and out["zero_root"]


def test_relative_tie_test_catches_a_rounding_residue(monkeypatch):
    # K = R = 2.  Root 0 (+) has children 1 and 2 with leaves 3, 4 (both +)
    # and 5, 6 (both -): U is +1 and -1 on equal conductances, so the vote is
    # exactly 0.  But 1's cavity sums fl(3c) - c over the leaf conductance c
    # of its row (the root's term included) where 2's row cancels at once,
    # so the float sum keeps a residue, and only the relative tie test makes
    # the root a coin
    edges = [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)]
    g = graph_from_edges(7, edges, [1] * 7)
    side = np.array([1, 1, 1, 1, 1, -1, -1], dtype=np.int8)
    out = _label_one(g, 0, side, 2, 2, 0.5)
    assert out["coin"] and out["zero_root"] and out["magnetization"] == 0.0
    assert _oracle_one(g, 0, side, 2, 2, 0.5)["zero_root"]
    monkeypatch.setattr(pipeline, "_TIE_ULPS", 0)
    out = _label_one(g, 0, side, 2, 2, 0.5)
    assert not out["coin"] and abs(out["magnetization"]) == 1.0


def test_rounding_zeros_counts_the_residues_set_to_zero(monkeypatch):
    # K5 with sides (+, +, +, -, -) at R = 2, K = 0.  A + root hears -L from
    # each + neighbour and +L from each - one, which cancel exactly; the
    # float root sum keeps a residue (-2.2e-16 after tanh) that the relative
    # test sets to 0, so the three + roots are coins and the count is 3.
    # With the test off nothing is set to 0 and nothing is counted
    clique = graph_from_edges(5, [(i, j) for i in range(5) for j in range(i + 1, 5)],
                              [1] * 5)
    side = np.array([1, 1, 1, -1, -1], dtype=np.int8)
    out = _label_all(clique, side, 2, 0, 0.5)
    assert out.rounding_zeros == 3
    assert out.zero_root.tolist() == [True, True, True, False, False]
    m = ModelParams(n=600, a=20, b=4)
    g = sample_sbm(m, seed=56)
    cfg = AlgoConfig(R=3, R_mode="fixed", K=1)
    res = recover(g, cfg, m, impl="oracle-noise", seed=5, delta0=0.2)
    assert res.diagnostics.rounding_zeros > 0
    monkeypatch.setattr(pipeline, "_TIE_ULPS", 0)
    out = _label_all(clique, side, 2, 0, 0.5)
    assert out.rounding_zeros == 0 and not out.coin.any()
    assert 0.0 < abs(out.magnetization[0]) < 1e-15
    res = recover(g, cfg, m, impl="oracle-noise", seed=5, delta0=0.2)
    assert res.diagnostics.rounding_zeros == 0


# --- conductance-weighted votes ----------------------------------------------


def _hand_vote(theta, leaf_groups):
    """Conductance-weighted K = R = 2 vote at the root, by hand.

    ``leaf_groups`` lists, per root child, the +-1 observations of its
    leaves.  Conductances are in level-local units: the leaves are noiseless
    terminals and each tree edge has resistance (1 - theta^2) / theta^2.
    """
    t2 = theta * theta

    def series(z):  # subtree conductance z behind one more tree edge
        return t2 / ((1 - t2) + 1.0 / z)

    leaf_c = t2 / (1 - t2)
    child_c = [series(leaf_c * len(obs)) for obs in leaf_groups]
    total = sum(child_c)
    vote = 0.0
    for c, obs in zip(child_c, leaf_groups):
        for x in obs:  # the child's current splits evenly over equal leaves
            vote += (c / total) * (1.0 / len(obs)) * theta ** -2 * x
    return vote


def test_conductance_vote_star():
    # root 0; child 1 with ten leaves (4 +, 6 -), child 2 with one + leaf.
    # With noiseless leaves the big subtree's weight saturates and the lone
    # + leaf outweighs the - majority.
    leaves_1 = list(range(3, 13))
    edges = [(0, 1), (0, 2), (2, 13)] + [(1, u) for u in leaves_1]
    g = graph_from_edges(14, edges, [1] * 14)
    side = np.ones(14, dtype=np.int8)
    side[leaves_1[4:]] = -1
    theta = 0.5  # a = 3, b = 1
    groups = [[int(side[u]) for u in leaves_1], [1]]
    want = math.copysign(1.0, _hand_vote(theta, groups))
    assert want == 1.0
    out = _label_one(g, 0, side, 2, 2, theta)
    assert out["magnetization"] == want and not out["coin"]
    # the per-vertex BFS oracle agrees
    assert _oracle_one(g, 0, side, 2, 2, theta)["magnetization"] == want


# --- per-stage seconds -------------------------------------------------------


def test_recover_stage_seconds():
    m = ModelParams(n=600, a=20, b=4)
    g = sample_sbm(m, seed=56)
    cfg = AlgoConfig(R=2, R_mode="fixed", K=1)
    res = recover(g, cfg, m, impl="oracle-noise", seed=5, delta0=0.2)
    assert tuple(res.stage_seconds) == STAGES
    assert all(v >= 0.0 for v in res.stage_seconds.values())
    assert sum(res.stage_seconds.values()) <= res.seconds
    assert res.diagnostics.blackbox_informative is True


@pytest.mark.parametrize("r, k, impl, delta0", [(1, 1, "spectral", None),
                                                 (2, 1, "oracle-noise", 0.25),
                                                 (3, 2, "spectral", None)])
def test_recover_results_do_not_depend_on_cores(r, k, impl, delta0, monkeypatch):
    # at R >= 2 the pairing check and the non-tree sample run on one worker
    # thread beside the edge passes when two cores are usable, and after
    # them on one; at R = 1 no thread starts.  Every output is the same
    pools = []

    class Pool(pipeline.ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(pipeline, "ThreadPoolExecutor", Pool)
    m = ModelParams(n=3000, a=12, b=3)
    g = sample_sbm(m, seed=7)
    runs = []
    for cores in (1, 2):
        monkeypatch.setattr(pipeline.popdyn, "_usable_cores", lambda: cores)
        runs.append(recover(g, AlgoConfig(R=r, R_mode="fixed", K=k), m, impl=impl,
                            seed=3, delta0=delta0))
    assert pools == ([] if r == 1 else [1])
    one, two = runs
    assert np.array_equal(one.side, two.side)
    assert one.magnetization.tobytes() == two.magnetization.tobytes()
    assert dataclasses.asdict(one.diagnostics) == dataclasses.asdict(two.diagnostics)
    assert one.report == two.report


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


# --- pinned outputs ------------------------------------------------------------


PINNED = [
    # (a, b, R, K, impl, delta0, digest of side and magnetization,
    #  (coin_labels, zero_roots, empty_spheres, nontree_neighborhoods,
    #   u_star_ball_violations))
    (12, 3, 2, 0, "oracle-noise", 0.25, "41aaf397bfadd554", (81, 25, 2, 1202, 43)),
    (12, 3, 2, 1, "oracle-noise", 0.0, "62b2bcce45ff4765", (234, 178, 2, 1202, 43)),
    (12, 3, 2, 2, "oracle-noise", 0.25, "a9b14bda9d21f716", (62, 6, 2, 1202, 43)),
    (12, 3, 3, 0, "oracle-noise", 0.0, "daae9b23733e3bb3", (56, 0, 2, 2934, 318)),
    (12, 3, 3, 1, "oracle-noise", 0.25, "ae7940a33d3add37", (66, 10, 2, 2934, 318)),
    (12, 3, 3, 2, "oracle-noise", 0.25, "c6abcc75046b2f6f", (297, 241, 2, 2934, 318)),
    (12, 3, 3, 3, "oracle-noise", 0.0, "8c599c6abcd7da2d", (56, 0, 2, 2934, 318)),
    (12, 3, 6, 0, "oracle-noise", 0.25, "fc38a82f0831af2c", (56, 0, 2, 2946, 2944)),
    (12, 3, 6, 1, "oracle-noise", 0.25, "4c9b089c07e16936", (56, 0, 2, 2946, 2944)),
    (12, 3, 6, 2, "oracle-noise", 0.0, "afbde0ceb6c50bd2", (56, 0, 2, 2946, 2944)),
    (12, 3, 6, 6, "oracle-noise", 0.25, "e03b3a352e0fb776", (56, 0, 2, 2946, 2944)),
    (12, 3, 3, 1, "spectral", None, "e95c89f12b74644b", (62, 6, 2, 2934, 318)),
    (12, 3, 6, 2, "spectral", None, "deac29e4ad7dd2d7", (56, 0, 2, 2946, 2944)),
    # a = 5, b = 1: a sparser graph, where the spectral split is rougher
    (5, 1, 3, 1, "spectral", None, "bc997aca1ca05c3d", (420, 168, 198, 501, 37)),
    (5, 1, 6, 2, "spectral", None, "ac5cddfb7d872854", (263, 11, 198, 2704, 795)),
    (30, 4, 3, 1, "oracle-noise", 0.25, "55bd335c94bbaf94", (54, 0, 0, 2946, 2131)),
]


def _pinned_run(a, b, r, k, impl, delta0):
    """recover() on one n = 3000 graph: the digest of its outputs and its counts."""
    m = ModelParams(n=3000, a=a, b=b)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = recover(sample_sbm(m, seed=7), AlgoConfig(R=r, R_mode="fixed", K=k), m,
                      impl=impl, seed=3, delta0=delta0)
    d = res.diagnostics
    digest = hashlib.sha256(res.side.tobytes() + res.magnetization.tobytes()).hexdigest()
    return digest[:16], (d.coin_labels, d.zero_roots, d.empty_spheres,
                         d.nontree_neighborhoods, d.u_star_ball_violations)


@pytest.mark.parametrize("case", PINNED, ids=lambda c: "-".join(map(str, c[:6])))
def test_recover_outputs_are_pinned(case, monkeypatch):
    # every sign, magnetization bit and count is the one recorded; the
    # digests hold float64 bits, so another libm may need them recorded
    # anew.  Below the root (0 < K < R) vote ties occur and their coins
    # decide labels: with the tie-coin stream shifted the digest moves
    *config, digest, counts = case
    assert _pinned_run(*config) == (digest, counts)
    r, k = config[2], config[3]
    if 0 < k < r:
        keyed = pipeline.derived_rng
        monkeypatch.setattr(pipeline, "derived_rng", lambda seed, *key: keyed(
            seed + 1 if key == ("labels",) else seed, *key))
        assert _pinned_run(*config)[0] != digest
