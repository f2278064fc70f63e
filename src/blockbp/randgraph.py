"""Labelled sparse two-class random graphs and BFS neighborhoods.

Graphs live in CSR-style arrays (indptr/indices) with sorted, deduplicated
neighbor lists and an int8 +-1 label per vertex.  The neighbour ids are int32
when n < 2^31 and int64 otherwise (``_index_type``, which also sizes the
pipeline's keys); the row bounds are int64.  Edge sampling walks the
lexicographic stream of candidate pairs with geometric jumps, so generating a
graph costs O(edges) rather than O(n^2) Bernoulli trials; n up to 1e6 is fine
on a desktop.  The CSR comes from one sort of the int64 keys x*n + y of both
directions of every edge, so n must satisfy n^2 < 2^63.

``extract_neighborhood`` is a one-centre BFS that returns the ball's levels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .params import ModelParams, _integer
from .seeding import as_generator

__all__ = [
    "Ball",
    "LabelledGraph",
    "SubgraphMap",
    "sample_sbm",
    "graph_from_edges",
    "extract_neighborhood",
    "remove_set",
]


def _index_type(bound: int) -> type:
    """The integer type of indices or keys in [0, ``bound``): int32 when they fit."""
    return np.int32 if bound < 2 ** 31 else np.int64


@dataclass(frozen=True)
class LabelledGraph:
    """Undirected graph in CSR form plus hidden +-1 labels.

    Each edge {x, y} is held in both rows, x's and y's; each row is sorted
    with no repeat, and no vertex is its own neighbour.  The graphs built
    here keep this; ``pipeline._edge_pairs`` needs it and checks it by count.
    ``indices`` may come in any integer type and is held as
    ``_index_type(n)``, so every graph, a hand-built one too, has one width.
    """

    n: int
    indptr: np.ndarray   # int64, length n+1
    indices: np.ndarray  # _index_type(n): int32 below n = 2^31; sorted within each row
    labels: np.ndarray   # int8, +-1

    def __post_init__(self):
        object.__setattr__(self, "indices", self.indices.astype(
            _index_type(self.n), casting="same_kind", copy=False))

    @property
    def m(self) -> int:
        """Number of undirected edges."""
        return len(self.indices) // 2

    def neighbors(self, v: int) -> np.ndarray:
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)


def _check_key_room(n: int) -> None:
    """Edge keys x*n + y are int64, so n^2 must stay below 2^63."""
    if n * n >= 2 ** 63:
        raise ValueError(f"n = {n} is too large: edge keys need n^2 < 2^63")


def _csr_from_edges(n: int, us: list, vs: list, labels: np.ndarray) -> LabelledGraph:
    """Build CSR from one copy of each undirected edge, the pairs of the
    chunks ``us[i]``, ``vs[i]`` (int64 arrays).

    One sort of the int64 keys x*n + y of both directions (x, y) of every
    edge, written straight from the chunks, gives the rows, whose bounds are
    where the keys x*n fall, and the sorted neighbours (key % n); a repeated
    key is a duplicate edge.
    """
    key = np.empty(2 * sum(map(len, us)), dtype=np.int64)
    at = 0
    for x, y in (*zip(us, vs), *zip(vs, us)):
        out = key[at:at + len(x)]
        np.multiply(x, n, out=out)
        out += y
        at += len(x)
    key.sort()
    if np.any(key[1:] == key[:-1]):
        raise ValueError("duplicate edges")
    indptr = np.searchsorted(key, np.arange(n + 1, dtype=np.int64) * n)
    np.remainder(key, n, out=key)
    return LabelledGraph(n=n, indptr=indptr, indices=key.astype(_index_type(n)),
                         labels=labels.astype(np.int8))


def graph_from_edges(n: int, edges, labels) -> LabelledGraph:
    """Small-graph constructor from an iterable or an (m, 2) array of (u, v)
    pairs of integer vertex ids, and n labels, each -1 or +1."""
    _check_key_room(n)
    lab = np.asarray(labels)
    if lab.shape != (n,):
        raise ValueError("labels must be n values in {-1, +1}")
    for i, x in enumerate(lab.tolist()):
        if isinstance(x, bool) or x not in (-1, 1):
            raise ValueError(f"label {i} is {x!r}, not -1 or +1")
    pairs = edges if isinstance(edges, np.ndarray) else list(edges)
    e = np.asarray(pairs) if len(pairs) else np.empty((0, 2), dtype=np.int64)
    if e.ndim != 2 or e.shape[1] != 2:
        raise ValueError("edges must be (u, v) pairs")
    # name the first pair that is not two integers (numpy reads True beside ints as 1)
    if not isinstance(pairs, np.ndarray) or e.dtype.kind not in "iu":
        rows = e.tolist() if isinstance(pairs, np.ndarray) else pairs
        for i, (x, y) in enumerate(rows):
            if not all(isinstance(z, (int, np.integer)) and not isinstance(z, bool)
                       for z in (x, y)):
                raise ValueError(f"edge {i} ({x!r}, {y!r}) has a non-integer vertex id")
    bad = np.flatnonzero(((e < 0) | (e >= n)).any(axis=1))
    if len(bad):
        i = int(bad[0])
        raise ValueError(f"edge {i} ({e[i, 0]}, {e[i, 1]}) has a vertex id "
                         f"outside [0, {n})")
    u, v = e[:, 0].astype(np.int64), e[:, 1].astype(np.int64)
    if np.any(u == v):
        raise ValueError("self-loops are not allowed")
    return _csr_from_edges(n, [u], [v], lab)


def _bernoulli_positions(rng: np.random.Generator, n_pairs: int, p: float) -> np.ndarray:
    """Indices of successes in a Bernoulli(p) stream of length n_pairs.

    Walks the stream with Geometric(p) jumps, drawing jump batches sized by
    the expected remaining count plus a safety margin.
    """
    if n_pairs <= 0 or p <= 0.0:
        return np.empty(0, dtype=np.int64)
    if p >= 1.0:
        return np.arange(n_pairs, dtype=np.int64)
    chunks = []
    pos = -1
    while True:
        remaining = n_pairs - pos - 1
        expect = int(remaining * p) + 1
        size = expect + int(10.0 * np.sqrt(expect)) + 16
        gaps = rng.geometric(p, size)
        steps = np.cumsum(gaps, dtype=np.int64) + pos
        cut = np.searchsorted(steps, n_pairs, side="left")
        chunks.append(steps[:cut])
        if cut < len(steps):
            break
        pos = int(steps[-1])
    return np.concatenate(chunks) if len(chunks) > 1 else chunks[0]


def _unrank_within(t: np.ndarray, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Map pair ranks t in [0, m(m-1)/2) to (ids[i], ids[j]) with i < j.

    Row-major order: (0,1), (0,2), ..., (0,m-1), (1,2), ...  The float sqrt
    can land one row off; two correction passes make it exact.
    """
    m = len(ids)
    tm = 2 * m - 1
    i = np.floor((tm - np.sqrt(tm * tm - 8.0 * t.astype(np.float64))) / 2.0).astype(np.int64)
    for _ in range(2):
        row_start = i * (tm - i) // 2
        too_big = row_start > t
        i -= too_big.astype(np.int64)
        row_start = i * (tm - i) // 2
        next_start = (i + 1) * (tm - i - 1) // 2
        too_small = t >= next_start
        i += too_small.astype(np.int64)
    row_start = i * (tm - i) // 2
    j = t - row_start + i + 1
    return ids[i], ids[j]


def sample_sbm(m: ModelParams, seed=0) -> LabelledGraph:
    """Sample a labelled graph: i.i.d. uniform +-1 labels, within-class pairs
    at a/n, between at b/n.  Deterministic given the seed.
    """
    rng = as_generator(seed)
    n = m.n
    _check_key_room(n)
    lab = np.where(rng.random(n) < 0.5, 1, -1).astype(np.int8)
    plus = np.flatnonzero(lab == 1).astype(np.int64)
    minus = np.flatnonzero(lab == -1).astype(np.int64)
    us, vs = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    for ids in (plus, minus):
        cnt = len(ids) * (len(ids) - 1) // 2
        t = _bernoulli_positions(rng, cnt, m.p_within)
        if len(t):
            u, v = _unrank_within(t, ids)
            us.append(u)
            vs.append(v)
    cross = len(plus) * len(minus)
    t = _bernoulli_positions(rng, cross, m.p_between)
    if len(t) and len(minus):
        us.append(plus[t // len(minus)])
        vs.append(minus[t % len(minus)])
    return _csr_from_edges(n, us, vs, lab)


@dataclass(frozen=True)
class Ball:
    """BFS ball B(centre, radius) by levels.

    ``vertex[j]`` holds the vertices at distance j from the centre in
    ascending id order.  A ball that ends before the radius has empty deeper
    levels.
    """

    centre: int
    radius: int
    vertex: list

    @property
    def ball(self) -> np.ndarray:
        """The vertices of B(centre, radius), level by level."""
        return np.concatenate(self.vertex)


def _vertex_ids(ids, n: int, name: str) -> np.ndarray:
    """``ids`` as int64, which must be a 1-d array of integer vertex ids in [0, n)."""
    ids = np.asarray(ids)
    if ids.ndim != 1 or (ids.size and ids.dtype.kind not in "iu"):
        raise ValueError(f"{name} must be a 1-d array of integer vertex ids")
    ids = ids.astype(np.int64, copy=False)
    if ids.size and not (0 <= ids.min() and ids.max() < n):
        raise ValueError(f"{name} hold a vertex id out of range [0, {n})")
    return ids


def _row_slots(g: LabelledGraph, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The CSR slots of ``rows``, row after row, and each row's degree."""
    degs = g.indptr[rows + 1] - g.indptr[rows]
    slots = np.repeat(g.indptr[rows] - (np.cumsum(degs) - degs), degs)
    slots += np.arange(len(slots), dtype=np.int64)
    return slots, degs


def extract_neighborhood(g: LabelledGraph, v: int, radius: int) -> Ball:
    """BFS ball B(v, radius): each level is the sorted, deduplicated set of
    the previous level's neighbours not yet visited.

    ``v`` must be an integer vertex id in [0, n) and ``radius`` >= 0.
    """
    if not 0 <= _integer("centre", v) < g.n:
        raise ValueError(f"centre {v} is out of range [0, {g.n})")
    _integer("radius", radius, low=0)
    visited = np.zeros(g.n, dtype=bool)
    visited[v] = True
    vertex = [np.array([v], dtype=g.indices.dtype)]
    for _ in range(radius):
        nbrs = g.indices[_row_slots(g, vertex[-1])[0]]
        nbrs = nbrs[~visited[nbrs]]
        nbrs.sort()
        first = np.empty(len(nbrs), dtype=bool)
        first[:1] = True
        np.not_equal(nbrs[1:], nbrs[:-1], out=first[1:])
        found = nbrs[first]
        visited[found] = True
        vertex.append(found)
    return Ball(centre=int(v), radius=radius, vertex=vertex)


@dataclass(frozen=True)
class SubgraphMap:
    """Induced subgraph together with the stable id maps both ways."""

    graph: LabelledGraph
    new_to_old: np.ndarray
    old_to_new: np.ndarray  # the graph's index type; -1 for removed vertices


def remove_set(g: LabelledGraph, victims) -> SubgraphMap:
    """Induced subgraph on V minus victims (integer vertex ids, repeats allowed).

    Filters the CSR rather than rebuilding it: the kept slots of kept rows
    stay sorted, and a prefix count of kept slots gives the new row bounds.
    The id map and the prefix count take ``_index_type`` of their ranges.
    """
    keep = np.ones(g.n, dtype=bool)
    keep[_vertex_ids(victims, g.n, "victims")] = False
    new_to_old = np.flatnonzero(keep)
    old_to_new = np.full(g.n, -1, dtype=g.indices.dtype)
    old_to_new[new_to_old] = np.arange(len(new_to_old))
    slot = keep[g.indices]
    slot &= np.repeat(keep, g.degrees)
    kept_before = np.zeros(len(slot) + 1, dtype=_index_type(len(slot) + 1))
    np.cumsum(slot, out=kept_before[1:])
    indptr = kept_before[g.indptr[np.append(new_to_old, g.n)]].astype(np.int64)
    del kept_before
    sub = LabelledGraph(n=len(new_to_old), indptr=indptr,
                        indices=old_to_new[g.indices[slot]],
                        labels=g.labels[new_to_old])
    return SubgraphMap(graph=sub, new_to_old=new_to_old, old_to_new=old_to_new)
