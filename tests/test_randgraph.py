import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from _oracles import bfs_levels
from blockbp.params import ModelParams
from blockbp.randgraph import (
    LabelledGraph,
    _index_type,
    extract_neighborhood,
    graph_from_edges,
    remove_set,
    sample_sbm,
)


def test_symmetry_and_no_self_loops():
    g = sample_sbm(ModelParams(n=500, a=6, b=2), seed=0)
    for v in range(0, 500, 37):
        for u in g.neighbors(v):
            assert v in g.neighbors(int(u))
            assert u != v
        nb = g.neighbors(v)
        assert np.all(np.diff(nb) > 0)  # sorted, deduplicated


def test_probability_validation():
    with pytest.raises(ValueError, match="probability"):
        ModelParams(n=2, a=4, b=0.5)


def test_empty_graph():
    g = sample_sbm(ModelParams(n=4, a=0, b=0), seed=1)
    assert g.n == 4 and g.m == 0
    assert not g.degrees.any()


def test_edge_count_concentration():
    # conditioned on the labels, the three edge blocks are exact binomials
    m = ModelParams(n=10_000, a=5, b=1)
    g = sample_sbm(m, seed=3)
    n_plus = int((g.labels == 1).sum())
    n_minus = g.n - n_plus
    src = np.repeat(np.arange(g.n), g.degrees)
    once = src < g.indices
    su, sv = src[once], g.indices[once]
    within = int((g.labels[su] == g.labels[sv]).sum())
    between = int(g.m - within)
    pairs_within = n_plus * (n_plus - 1) // 2 + n_minus * (n_minus - 1) // 2
    pairs_between = n_plus * n_minus
    for count, pairs, p in ((within, pairs_within, m.p_within),
                            (between, pairs_between, m.p_between)):
        mean = pairs * p
        sd = math.sqrt(pairs * p * (1 - p))
        assert abs(count - mean) < 5 * sd
    # mean degree near (a + b) / 2 = 3
    mean_deg = 2 * g.m / g.n
    assert abs(mean_deg - 3.0) < 5 * math.sqrt(3.0 / g.n)


def test_reproducible():
    m = ModelParams(n=300, a=4, b=1)
    g1 = sample_sbm(m, seed=9)
    g2 = sample_sbm(m, seed=9)
    assert np.array_equal(g1.indices, g2.indices)
    assert np.array_equal(g1.labels, g2.labels)


def _levels(nb):
    """The non-empty levels of a ball."""
    return [lvl for lvl in nb.vertex if len(lvl)]


def test_neighborhood_radius_zero():
    g = sample_sbm(ModelParams(n=50, a=4, b=1), seed=2)
    nb = extract_neighborhood(g, 7, 0)
    assert list(nb.ball) == [7]
    assert list(nb.vertex[0]) == [7]
    assert nb.centre == 7 and nb.radius == 0 and len(nb.vertex) == 1
    with pytest.raises(ValueError, match="out of range"):
        extract_neighborhood(g, 50, 1)
    with pytest.raises(ValueError, match="'radius' must be >= 0, not -1"):
        extract_neighborhood(g, 7, -1)


def test_neighborhood_path():
    g = graph_from_edges(3, [(0, 1), (1, 2)], [1, 1, 1])
    nb = extract_neighborhood(g, 0, 2)
    assert [list(l) for l in _levels(nb)] == [[0], [1], [2]]
    assert list(nb.vertex[2]) == [2]
    # a ball that ends before the radius keeps its empty deeper levels
    assert [len(l) for l in extract_neighborhood(g, 0, 4).vertex] == [1, 1, 1, 0, 0]


def test_neighborhood_triangle():
    g = graph_from_edges(3, [(0, 1), (1, 2), (0, 2)], [1, 1, -1])
    nb = extract_neighborhood(g, 0, 1)
    assert sorted(nb.ball) == [0, 1, 2]
    assert sorted(nb.vertex[1]) == [1, 2]
    assert [list(l) for l in extract_neighborhood(g, 0, 2).vertex] == [[0], [1, 2], []]


def test_ball_monotone_in_radius():
    g = sample_sbm(ModelParams(n=400, a=5, b=1), seed=4)
    for v in (0, 13, 77):
        prev = set()
        for r in range(4):
            nb = extract_neighborhood(g, v, r)
            ball = set(nb.ball.tolist())
            assert prev <= ball
            assert set(nb.vertex[r].tolist()) <= ball
            prev = ball


def test_local_tree_likeness():
    m = ModelParams(n=10_000, a=5, b=1)  # a + b <= 10
    g = sample_sbm(m, seed=5)
    r = int(math.log(m.n) / (4 * math.log((m.a + m.b) / 2 + 1)))
    rng = np.random.default_rng(6)
    centers = rng.choice(m.n, 400, replace=False)
    visited = np.zeros(g.n, dtype=bool)
    non_tree = 0
    for v in centers:
        size = len(extract_neighborhood(g, int(v), r).ball)
        levels, _, induced = bfs_levels(g.indptr, g.indices, int(v), r, visited)
        assert size == sum(len(l) for l in levels)
        non_tree += induced > size - 1  # an induced edge outside the BFS tree
    assert non_tree / len(centers) < 0.05


def test_remove_set_cases():
    g = graph_from_edges(3, [(0, 1), (1, 2), (0, 2)], [1, -1, 1])
    same = remove_set(g, [])
    assert same.graph.m == 3 and same.graph.n == 3
    assert np.array_equal(same.new_to_old, [0, 1, 2])
    none = remove_set(g, [0, 1, 2])
    assert none.graph.n == 0 and none.graph.m == 0
    one = remove_set(g, [2])
    assert one.graph.n == 2 and one.graph.m == 1
    assert np.array_equal(one.new_to_old, [0, 1])
    assert list(one.old_to_new) == [0, 1, -1]
    assert one.graph.labels.tolist() == [1, -1]
    with pytest.raises(ValueError):
        remove_set(g, [5])
    for bad in ([1.7], [[2]], [-1]):
        with pytest.raises(ValueError, match="victims"):
            remove_set(g, bad)


def _induced_by_edge_list(g, victims):
    """The induced subgraph built from scratch through ``graph_from_edges``."""
    keep = np.ones(g.n, dtype=bool)
    keep[victims] = False
    new_id = np.cumsum(keep) - 1
    src = np.repeat(np.arange(g.n), g.degrees)
    edges = [(int(new_id[u]), int(new_id[v])) for u, v in zip(src, g.indices)
             if u < v and keep[u] and keep[v]]
    return graph_from_edges(int(keep.sum()), edges, g.labels[keep]), keep


def test_remove_set_matches_induced_edge_list():
    rng = np.random.default_rng(21)
    star = graph_from_edges(6, [(0, 1), (1, 2), (1, 3)], [1, -1, 1, 1, -1, -1])
    cases = [(star, [1]), (star, [4, 4, 5]), (star, [])]
    for seed in range(4):
        g = sample_sbm(ModelParams(n=300, a=4.0, b=1.0), seed=seed)
        assert np.any(g.degrees == 0)  # isolated vertices
        cases += [
            (g, rng.choice(g.n, size=int(rng.integers(1, 60)), replace=False)),
            (g, rng.integers(0, g.n, size=80)),  # repeats
            (g, []),
            (g, rng.permutation(np.repeat(np.arange(g.n), 2))),  # every vertex
        ]
    for g, victims in cases:
        got = remove_set(g, victims)
        want, keep = _induced_by_edge_list(g, np.asarray(victims, dtype=np.int64))
        assert got.graph.n == want.n
        for name in ("indptr", "indices", "labels"):
            a, b = getattr(got.graph, name), getattr(want, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        assert np.array_equal(got.new_to_old, np.flatnonzero(keep))
        assert np.array_equal(got.old_to_new[keep], np.arange(want.n))
        assert np.all(got.old_to_new[~keep] == -1)


# --- the one-centre BFS against the per-vertex BFS ---------------------------


def _assert_matches_bfs(g, nb, v, r, visited):
    """A ball's shells equal the per-vertex BFS's."""
    levels, _, _ = bfs_levels(g.indptr, g.indices, v, r, visited)
    assert len(_levels(nb)) == len(levels)
    assert nb.centre == v and nb.radius == r and len(nb.vertex) == r + 1
    for j, lvl in enumerate(levels):
        assert np.array_equal(nb.vertex[j], lvl)


def test_extract_neighborhood_matches_per_vertex_bfs():
    # the shells equal the per-vertex BFS, empty past a dead end
    for m, radii in ((ModelParams(n=300, a=6, b=2), (0, 1, 2, 3)),
                     (ModelParams(n=300, a=2, b=1), (1, 4)),
                     (ModelParams(n=120, a=30, b=4), (1, 2))):
        g = sample_sbm(m, seed=11)
        visited = np.zeros(g.n, dtype=bool)
        for v in range(0, g.n, 7):
            for r in radii:
                _assert_matches_bfs(g, extract_neighborhood(g, v, r), v, r, visited)


@pytest.mark.parametrize("centre, radius, match", [
    (5, 1, "centre 5 is out of range"),
    (-1, 1, "centre -1 is out of range"),
    (1.7, 1, r"'centre' must be an integer, not 1\.7"),
    ([0, 1], 1, r"'centre' must be an integer, not \[0, 1\]"),
    (0, -1, "'radius' must be >= 0, not -1"),
    (0, True, "'radius' must be an integer, not True"),
], ids=["id-too-large", "negative-id", "float-id", "list-id", "negative-radius", "bool-radius"])
def test_extract_neighborhood_rejects_bad_input(centre, radius, match):
    g = graph_from_edges(4, [(0, 1), (1, 2)], [1, 1, 1, 1])
    with pytest.raises(ValueError, match=match):
        extract_neighborhood(g, centre, radius)


# --- edge-list input ---------------------------------------------------------


def test_graph_from_edges_rejects_out_of_range_ids():
    with pytest.raises(ValueError, match=r"edge 0 \(-1, 1\)"):
        graph_from_edges(3, [(-1, 1)], [1, 1, 1])
    with pytest.raises(ValueError, match=r"edge 1 \(2, 3\).*\[0, 3\)"):
        graph_from_edges(3, [(0, 1), (2, 3)], [1, 1, 1])
    with pytest.raises(ValueError, match="pairs"):
        graph_from_edges(3, [(0, 1, 2)], [1, 1, 1])


@pytest.mark.parametrize("edges, match", [
    ([(0, 1.9)], r"edge 0 \(0, 1.9\) has a non-integer vertex id"),
    ([(0, 1), (1, 2.0)], r"edge 1 \(1, 2.0\) has a non-integer vertex id"),
    ([(0, "1")], r"edge 0 \(0, '1'\) has a non-integer vertex id"),
    (np.array([[0.0, 1.5]]), r"edge 0 \(0.0, 1.5\) has a non-integer vertex id"),
    ([(0, 1), (0, True)], r"edge 1 \(0, True\) has a non-integer vertex id"),
], ids=["float", "integral-float", "string", "float-array", "bool"])
def test_graph_from_edges_rejects_non_integer_ids(edges, match):
    # a non-integer id is refused, not truncated or parsed into one
    with pytest.raises(ValueError, match=match):
        graph_from_edges(3, edges, [1, 1, 1])


@pytest.mark.parametrize("labels, match", [
    ([1.7, -1.2], r"label 0 is 1.7"),
    ([1, float("nan")], r"label 1 is nan"),
    (["1", "1"], r"label 0 is '1'"),
    ([1, None], r"label 1 is None"),
    ([True, True], r"label 0 is True"),
], ids=["float", "nan", "string", "none", "bool"])
def test_graph_from_edges_rejects_bad_labels(labels, match):
    # a label is refused, not truncated to +-1
    with pytest.raises(ValueError, match=match + r", not -1 or \+1"):
        graph_from_edges(2, [(0, 1)], labels)


def test_graph_from_edges_takes_an_edge_array():
    want = graph_from_edges(4, [(2, 0), (1, 3)], [1, -1, 1, -1])
    for edges in (np.array([[2, 0], [1, 3]]), np.array([[2, 0], [1, 3]], dtype=np.uint8)):
        g = graph_from_edges(4, edges, np.array([1.0, -1.0, 1.0, -1.0]))
        assert np.array_equal(g.indptr, want.indptr)
        assert np.array_equal(g.indices, want.indices)
        assert np.array_equal(g.labels, want.labels) and g.labels.dtype == np.int8
    assert graph_from_edges(4, np.empty((0, 2), dtype=np.int64), [1] * 4).indices.size == 0


def test_graph_from_edges_csr_and_rejections():
    # rows and sorted neighbour lists from one sort of the directed-edge keys
    g = graph_from_edges(5, [(2, 0), (1, 3), (0, 1)], [1] * 5)
    assert g.indptr.tolist() == [0, 2, 4, 5, 6, 6]
    assert g.indices.tolist() == [1, 2, 0, 3, 0, 1]
    with pytest.raises(ValueError, match="self-loops"):
        graph_from_edges(3, [(1, 1)], [1] * 3)
    for edges in ([(0, 1), (0, 1)], [(0, 1), (1, 0)]):
        with pytest.raises(ValueError, match="duplicate"):
            graph_from_edges(3, edges, [1] * 3)
    # the keys x*n + y are int64, so n^2 must stay below 2^63; both
    # constructors refuse before allocating anything of size n
    with pytest.raises(ValueError, match=r"n\^2 < 2\^63"):
        graph_from_edges(3_037_000_500, [], [])
    with pytest.raises(ValueError, match=r"n\^2 < 2\^63"):
        sample_sbm(ModelParams(n=2 ** 32, a=3, b=1))


def test_index_type_boundary():
    # ids and keys in [0, bound) are int32 while they fit, int64 from 2^31
    assert _index_type(0) is _index_type(2 ** 31 - 1) is np.int32
    assert _index_type(2 ** 31) is _index_type(2 ** 62) is np.int64


def test_builders_give_the_index_type():
    # every builder's graph holds int32 neighbour ids below n = 2^31 and
    # int64 row bounds; remove_set's id map takes its input's id type
    g = sample_sbm(ModelParams(n=400, a=8, b=2), seed=3)
    small = graph_from_edges(4, np.array([[2, 0], [1, 3]], dtype=np.int64), [1, -1, 1, -1])
    sub = remove_set(g, [0, 7, 7])
    for graph in (g, small, sub.graph, graph_from_edges(3, [], [1] * 3)):
        assert graph.indices.dtype == _index_type(graph.n) == np.int32
        assert graph.indptr.dtype == np.int64
    assert sub.old_to_new.dtype == np.int32


def test_hand_built_graphs_take_the_index_type():
    # a LabelledGraph holds its neighbour ids as _index_type(n) whatever
    # integer type they come in, and refuses float ids
    g = sample_sbm(ModelParams(n=300, a=12, b=3), seed=1)
    for dtype in (np.int64, np.uint16, np.int32):
        built = LabelledGraph(n=g.n, indptr=g.indptr, indices=g.indices.astype(dtype),
                              labels=g.labels)
        assert built.indices.dtype == np.int32
        assert np.array_equal(built.indices, g.indices)
    with pytest.raises(TypeError):
        LabelledGraph(n=g.n, indptr=g.indptr, indices=g.indices.astype(float),
                      labels=g.labels)


@st.composite
def _edge_lists(draw):
    n = draw(st.integers(1, 12))
    pairs = st.tuples(st.integers(-3, n + 3), st.integers(-3, n + 3))
    return n, draw(st.lists(pairs, max_size=20))


@given(_edge_lists())
def test_edge_list_range_property(case):
    n, edges = case
    if any(not (0 <= x < n) for e in edges for x in e):
        with pytest.raises(ValueError, match="outside"):
            graph_from_edges(n, edges, [1] * n)
        return
    # keep one copy of each undirected edge and no self-loops
    simple = sorted({(min(u, v), max(u, v)) for u, v in edges if u != v})
    g = graph_from_edges(n, simple, [1] * n)
    assert g.n == n and g.m == len(simple)
