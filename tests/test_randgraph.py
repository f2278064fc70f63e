import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from _oracles import bfs_levels
from blockbp.params import ModelParams
from blockbp.randgraph import (
    _max_ball_centres,
    bfs_balls,
    extract_neighborhood,
    graph_from_edges,
    load_edge_list,
    load_labels,
    remove_set,
    sample_sbm,
    save_edge_list,
    save_labels,
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
    assert all(g.degree(v) == 0 for v in range(4))


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


def test_reproducible_and_mode_fixed_sets():
    m = ModelParams(n=300, a=4, b=1)
    g1 = sample_sbm(m, seed=9)
    g2 = sample_sbm(m, seed=9)
    assert np.array_equal(g1.indices, g2.indices)
    assert np.array_equal(g1.labels, g2.labels)
    lab = np.ones(300, dtype=np.int8)
    lab[:150] = -1
    g3 = sample_sbm(m, mode="fixed-sets", seed=9, labels=lab)
    assert np.array_equal(g3.labels, lab)
    with pytest.raises(ValueError):
        sample_sbm(m, mode="fixed-sets", seed=9)
    with pytest.raises(ValueError):
        sample_sbm(m, mode="uniform-random", seed=9, labels=lab)
    with pytest.raises(ValueError):
        sample_sbm(m, mode="elsewise", seed=9)


def _levels(nb):
    """The non-empty levels of a ball."""
    return [lvl for lvl in nb.vertex if len(lvl)]


def _extra_edges(g, nb):
    """Induced edges of a one-centre ball outside its BFS tree."""
    return int(nb.scan_extra[0] + nb.sphere_edges(g)[0])


def test_neighborhood_radius_zero():
    g = sample_sbm(ModelParams(n=50, a=4, b=1), seed=2)
    nb = extract_neighborhood(g, 7, 0)
    assert list(nb.ball) == [7]
    assert list(nb.vertex[0]) == [7]
    assert not nb.nontree(g)[0]
    with pytest.raises(ValueError, match="out of range"):
        extract_neighborhood(g, 50, 1)
    with pytest.raises(ValueError, match="nonnegative"):
        extract_neighborhood(g, 7, -1)


def test_neighborhood_path():
    g = graph_from_edges(3, [(0, 1), (1, 2)], [1, 1, 1])
    nb = extract_neighborhood(g, 0, 2)
    assert [list(l) for l in _levels(nb)] == [[0], [1], [2]]
    assert list(nb.vertex[2]) == [2]
    assert not nb.nontree(g)[0]


def test_neighborhood_triangle():
    g = graph_from_edges(3, [(0, 1), (1, 2), (0, 2)], [1, 1, -1])
    nb = extract_neighborhood(g, 0, 1)
    assert sorted(nb.ball) == [0, 1, 2]
    assert sorted(nb.vertex[1]) == [1, 2]
    assert nb.nontree(g)[0]
    assert _extra_edges(g, nb) == 1


def test_bfs_parent_is_smallest_id_discoverer():
    #    0 - 1, 0 - 2, 1 - 3, 2 - 3: node 3 discovered from both 1 and 2
    g = graph_from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)], [1, 1, 1, 1])
    nb = extract_neighborhood(g, 0, 2)
    assert list(nb.vertex[2]) == [3]
    assert nb.vertex[1][nb.parent_pos[2]][0] == 1  # smaller-id discoverer wins


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


def test_bfs_tree_spans_ball():
    g = sample_sbm(ModelParams(n=400, a=5, b=1), seed=4)
    nb = extract_neighborhood(g, 3, 3)
    levels = _levels(nb)
    # every non-center ball vertex has exactly one parent, one level up
    spanned = {int(levels[0][0])}
    for j in range(1, len(levels)):
        parents = levels[j - 1][nb.parent_pos[j]]
        for u, p in zip(levels[j], parents):
            assert int(p) in spanned or int(p) in set(levels[j - 1].tolist())
            assert u in g.neighbors(int(p))
        spanned.update(int(x) for x in levels[j])
    assert spanned == set(nb.ball.tolist())


def test_local_tree_likeness():
    m = ModelParams(n=10_000, a=5, b=1)  # a + b <= 10
    g = sample_sbm(m, seed=5)
    r = int(math.log(m.n) / (4 * math.log((m.a + m.b) / 2 + 1)))
    rng = np.random.default_rng(6)
    centers = rng.choice(m.n, 400, replace=False)
    non_tree = sum(extract_neighborhood(g, int(v), r).nontree(g)[0] for v in centers)
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


def test_dump_round_trip(tmp_path):
    g = sample_sbm(ModelParams(n=60, a=6, b=2), seed=8)
    epath, lpath = tmp_path / "g.txt", tmp_path / "labels.txt"
    save_edge_list(g, epath)
    save_labels(g, lpath)
    first = epath.read_text().splitlines()[0]
    assert first == f"{g.n} {g.m}"
    labels = load_labels(lpath, g.n)
    g2 = load_edge_list(epath, labels=labels)
    assert np.array_equal(g2.indptr, g.indptr)
    assert np.array_equal(g2.indices, g.indices)
    assert np.array_equal(g2.labels, g.labels)


@pytest.mark.parametrize("lines, match", [
    (["0 +1", "1 -1", "-1 +1"], r"line 3 '-1 \+1' is not a new vertex id in \[0, 3\)"),
    (["0 +1", "1 -1", "3 +1"], r"line 3 '3 \+1' is not"),
    (["0 +1", "1 -1", "2 5"], r"line 3 '2 5' is not"),
    (["0 +1", "1 0", "2 -1"], r"line 2 '1 0' is not"),
    (["0 +1", "0 -1", "2 +1"], r"line 2 '0 -1' is not a new vertex id"),
    (["0 +1", "1", "2 +1"], r"line 2 '1' is not"),
    (["0 +1", "1 -1 7", "2 +1"], r"line 2 '1 -1 7' is not"),
    (["0 +1", "x -1", "2 +1"], r"line 2 'x -1' is not"),
    (["0 +1", "2 -1"], "labels missing"),
], ids=["negative-id", "id-too-large", "label-5", "label-0", "duplicate-id", "one-field",
        "three-fields", "not-an-int", "missing-vertex"])
def test_load_labels_rejects_bad_lines(tmp_path, lines, match):
    # each of these used to load (or crash) without naming the line; a
    # negative id wrapped round to the last vertex
    path = tmp_path / "labels.txt"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=match):
        load_labels(path, 3)


def test_load_labels_skips_blank_lines(tmp_path):
    path = tmp_path / "labels.txt"
    path.write_text("2 -1\n\n0 +1\n1 -1\n")
    assert load_labels(path, 3).tolist() == [1, -1, -1]


@pytest.mark.parametrize("lines, match", [
    (["3 2", "0 1", "x 2"], r"line 3 'x 2' is not two integers"),
    (["3 2", "0 1 2", "1 2"], r"line 2 '0 1 2' is not two integers"),
    (["3", "0 1", "1 2"], r"line 1 '3' is not two integers"),
    (["-1 0"], r"line 1 header 'n m' is -1 0"),
], ids=["not-an-int", "three-fields", "one-field-header", "negative-n"])
def test_load_edge_list_rejects_bad_lines(tmp_path, lines, match):
    # these used to raise int()'s, numpy's or tuple unpacking's own message,
    # which named neither the file nor the line
    path = tmp_path / "g.txt"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=match) as err:
        load_edge_list(path)
    assert str(path) in str(err.value)


def test_load_edge_list_skips_blank_lines(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("3 2\n0 1\n\n1 2\n")
    g = load_edge_list(path)
    assert g.n == 3 and g.m == 2
    assert g.neighbors(1).tolist() == [0, 2]


# --- batched balls against the per-vertex BFS --------------------------------


def test_extract_neighborhood_matches_per_vertex_bfs():
    # shells, parents and the exact extra-edge count of the one-centre engine
    # call equal the per-vertex BFS with its second induced-edge scan
    for m, radii in ((ModelParams(n=300, a=6, b=2), (0, 1, 2, 3)),
                     (ModelParams(n=300, a=2, b=1), (1, 4)),
                     (ModelParams(n=120, a=30, b=4), (1, 2))):
        g = sample_sbm(m, seed=11)
        visited = np.zeros(g.n, dtype=bool)
        for v in range(0, g.n, 7):
            for r in radii:
                nb = extract_neighborhood(g, v, r)
                levels, parent_pos, induced = bfs_levels(g.indptr, g.indices, v, r, visited)
                assert len(_levels(nb)) == len(levels)
                for j, lvl in enumerate(levels):
                    assert np.array_equal(nb.vertex[j], lvl)
                    if j:
                        assert np.array_equal(nb.parent_pos[j], parent_pos[j])
                extra = induced - (sum(len(l) for l in levels) - 1)
                assert _extra_edges(g, nb) == extra
                assert nb.nontree(g)[0] == (extra != 0)


def test_bfs_balls_batch_equals_single_centres():
    # one batch over repeated and isolated centres splits into the per-centre balls
    g = sample_sbm(ModelParams(n=200, a=3, b=1), seed=12)
    centres = np.array([5, 0, 5, 199, 17, 42, 0], dtype=np.int64)
    r = 3
    balls = bfs_balls(g, centres, r)
    assert balls.parent_pos[0] is None
    extra = balls.scan_extra + balls.sphere_edges(g)
    assert np.array_equal(balls.nontree(g), extra > 0)
    for i, v in enumerate(centres):
        nb = extract_neighborhood(g, int(v), r)
        for j in range(r + 1):
            mine = balls.owner[j] == i
            want = nb.vertex[j]
            assert np.array_equal(balls.vertex[j][mine], want)
            if j and len(want):
                base = np.flatnonzero(balls.owner[j - 1] == i)[0]
                assert np.array_equal(balls.parent_pos[j][mine] - base, nb.parent_pos[j])
        assert extra[i] == _extra_edges(g, nb)
    # a subset scan reads 0 outside the selection
    select = np.zeros(len(centres), dtype=bool)
    select[1] = True
    assert not balls.sphere_edges(g, select)[~select].any()


def test_bfs_balls_centre_limit():
    assert _max_ball_centres(2 ** 20) == 1 << 21
    assert _max_ball_centres(2 ** 40) == 0
    g = graph_from_edges(3, [(0, 1)], [1, 1, 1])
    assert bfs_balls(g, [], 2).vertex[2].size == 0


# --- edge-list input ---------------------------------------------------------


def test_graph_from_edges_rejects_out_of_range_ids():
    with pytest.raises(ValueError, match=r"edge 0 \(-1, 1\)"):
        graph_from_edges(3, [(-1, 1)], [1, 1, 1])
    with pytest.raises(ValueError, match=r"edge 1 \(2, 3\).*\[0, 3\)"):
        graph_from_edges(3, [(0, 1), (2, 3)], [1, 1, 1])
    with pytest.raises(ValueError, match="pairs"):
        graph_from_edges(3, [(0, 1, 2)], [1, 1, 1])


@st.composite
def _edge_lists(draw):
    n = draw(st.integers(1, 12))
    pairs = st.tuples(st.integers(-3, n + 3), st.integers(-3, n + 3))
    return n, draw(st.lists(pairs, max_size=20))


@given(_edge_lists())
def test_edge_list_range_property(tmp_path_factory, case):
    n, edges = case
    if any(not (0 <= x < n) for e in edges for x in e):
        with pytest.raises(ValueError, match="outside"):
            graph_from_edges(n, edges, [1] * n)
        return
    # keep one copy of each undirected edge and no self-loops
    simple = sorted({(min(u, v), max(u, v)) for u, v in edges if u != v})
    g = graph_from_edges(n, simple, [1] * n)
    path = tmp_path_factory.mktemp("edges") / "g.txt"
    save_edge_list(g, path)
    g2 = load_edge_list(path)
    assert g2.n == g.n
    assert np.array_equal(g2.indptr, g.indptr)
    assert np.array_equal(g2.indices, g.indices)
