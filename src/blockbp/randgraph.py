"""Labelled sparse two-class random graphs and BFS neighborhoods.

Graphs live in CSR-style arrays (indptr/indices) with sorted, deduplicated
neighbor lists and an int8 +-1 label per vertex.  Edge sampling walks the
lexicographic stream of candidate pairs with geometric jumps, so generating a
graph costs O(edges) rather than O(n^2) Bernoulli trials; n up to 1e6 is fine
on a desktop.  The CSR comes from one sort of the int64 keys x*n + y of both
directions of every edge, so n must satisfy n^2 < 2^63.

``extract_neighborhood`` is a one-centre BFS that returns the ball's levels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .params import ModelParams
from .seeding import as_generator

__all__ = [
    "Ball",
    "LabelledGraph",
    "SubgraphMap",
    "sample_sbm",
    "graph_from_edges",
    "extract_neighborhood",
    "remove_set",
    "save_edge_list",
    "load_edge_list",
    "save_labels",
    "load_labels",
]


@dataclass(frozen=True)
class LabelledGraph:
    """Undirected graph in CSR form plus hidden +-1 labels."""

    n: int
    indptr: np.ndarray   # int64, length n+1
    indices: np.ndarray  # int64, sorted within each row
    labels: np.ndarray   # int8, +-1

    @property
    def m(self) -> int:
        """Number of undirected edges."""
        return len(self.indices) // 2

    def neighbors(self, v: int) -> np.ndarray:
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def degree(self, v: int) -> int:
        return int(self.indptr[v + 1] - self.indptr[v])

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)


def _check_key_room(n: int) -> None:
    """Edge keys x*n + y are int64, so n^2 must stay below 2^63."""
    if n * n >= 2 ** 63:
        raise ValueError(f"n = {n} is too large: edge keys need n^2 < 2^63")


def _csr_from_edges(n: int, u: np.ndarray, v: np.ndarray, labels: np.ndarray) -> LabelledGraph:
    """Build CSR from one copy of each undirected edge (arrays u, v).

    One sort of the int64 keys x*n + y of both directions (x, y) of every
    edge gives the rows (key // n) and the sorted neighbours (key % n); a
    repeated key is a duplicate edge.
    """
    key = np.concatenate((u * n + v, v * n + u))
    key.sort()
    if np.any(key[1:] == key[:-1]):
        raise ValueError("duplicate edges")
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(key // n, minlength=n), out=indptr[1:])
    return LabelledGraph(n=n, indptr=indptr, indices=key % n,
                         labels=labels.astype(np.int8))


def graph_from_edges(n: int, edges, labels) -> LabelledGraph:
    """Small-graph constructor from an iterable of (u, v) pairs."""
    _check_key_room(n)
    labels = np.asarray(labels, dtype=np.int8)
    if labels.shape != (n,) or not np.all(np.abs(labels) == 1):
        raise ValueError("labels must be n values in {-1, +1}")
    u = v = np.empty(0, dtype=np.int64)
    if edges:
        e = np.asarray(list(edges), dtype=np.int64)
        if e.ndim != 2 or e.shape[1] != 2:
            raise ValueError("edges must be (u, v) pairs")
        bad = np.flatnonzero(((e < 0) | (e >= n)).any(axis=1))
        if len(bad):
            i = int(bad[0])
            raise ValueError(f"edge {i} ({e[i, 0]}, {e[i, 1]}) has a vertex id "
                             f"outside [0, {n})")
        u, v = e[:, 0], e[:, 1]
        if np.any(u == v):
            raise ValueError("self-loops are not allowed")
    return _csr_from_edges(n, u, v, labels)


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
    return _csr_from_edges(n, np.concatenate(us), np.concatenate(vs), lab)


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


def extract_neighborhood(g: LabelledGraph, v: int, radius: int) -> Ball:
    """BFS ball B(v, radius): each level is the sorted, deduplicated set of
    the previous level's neighbours not yet visited.

    ``v`` must be an integer vertex id in [0, n) and ``radius`` >= 0.
    """
    if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
        raise ValueError(f"centre must be an integer vertex id, got {v!r}")
    if not 0 <= v < g.n:
        raise ValueError(f"centre {v} is out of range [0, {g.n})")
    if radius < 0:
        raise ValueError(f"radius must be nonnegative, got {radius}")
    visited = np.zeros(g.n, dtype=bool)
    visited[v] = True
    vertex = [np.array([v], dtype=np.int64)]
    for _ in range(radius):
        front = vertex[-1]
        degs = g.indptr[front + 1] - g.indptr[front]
        slots = np.repeat(g.indptr[front] - (np.cumsum(degs) - degs), degs)
        slots += np.arange(len(slots), dtype=np.int64)
        nbrs = g.indices[slots]
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
    old_to_new: np.ndarray  # -1 for removed vertices


def remove_set(g: LabelledGraph, victims) -> SubgraphMap:
    """Induced subgraph on V minus victims (integer vertex ids, repeats allowed).

    Filters the CSR rather than rebuilding it: the kept slots of kept rows
    stay sorted, and a prefix count of kept slots gives the new row bounds.
    """
    keep = np.ones(g.n, dtype=bool)
    keep[_vertex_ids(victims, g.n, "victims")] = False
    new_to_old = np.flatnonzero(keep)
    old_to_new = np.full(g.n, -1, dtype=np.int64)
    old_to_new[new_to_old] = np.arange(len(new_to_old))
    slot = keep[g.indices] & np.repeat(keep, g.degrees)
    kept_before = np.concatenate(([0], np.cumsum(slot)))
    sub = LabelledGraph(n=len(new_to_old),
                        indptr=kept_before[g.indptr[np.append(new_to_old, g.n)]],
                        indices=old_to_new[g.indices[slot]],
                        labels=g.labels[new_to_old])
    return SubgraphMap(graph=sub, new_to_old=new_to_old, old_to_new=old_to_new)


def save_edge_list(g: LabelledGraph, path) -> None:
    """Text dump: header "n m", then one "u v" line per undirected edge."""
    src = np.repeat(np.arange(g.n, dtype=np.int64), g.degrees)
    mask = src < g.indices
    with open(path, "w") as fh:
        fh.write(f"{g.n} {g.m}\n")
        for u, v in zip(src[mask], g.indices[mask]):
            fh.write(f"{u} {v}\n")


def load_edge_list(path, labels=None) -> LabelledGraph:
    """Inverse of save_edge_list; labels default to all +1 if no file given.

    The header "n m" (two nonnegative counts) and every non-blank line after
    it must be two integers; any other line raises a ValueError that names
    the file, line and text.
    """

    def pair(i: int, line: str) -> tuple[int, int]:
        try:
            x, y = map(int, line.split())
        except ValueError:
            raise ValueError(f"{path}: line {i} {line.strip()!r} is not two "
                             "integers") from None
        return x, y

    with open(path) as fh:
        n, m = pair(1, fh.readline())
        if n < 0 or m < 0:
            raise ValueError(f"{path}: line 1 header 'n m' is {n} {m}; counts "
                             "must be nonnegative")
        edges = [pair(i, line) for i, line in enumerate(fh, 2) if line.strip()]
    if len(edges) != m:
        raise ValueError(f"{path}: header claims {m} edges, found {len(edges)}")
    lab = labels if labels is not None else np.ones(n, dtype=np.int8)
    return graph_from_edges(n, edges, lab)


def save_labels(g: LabelledGraph, path) -> None:
    """Text dump: one "v +1" / "v -1" line per vertex."""
    with open(path, "w") as fh:
        for v in range(g.n):
            fh.write(f"{v} {'+1' if g.labels[v] > 0 else '-1'}\n")


def load_labels(path, n: int) -> np.ndarray:
    """Inverse of save_labels: exactly one "v +-1" line per vertex id in [0, n)."""
    out = np.zeros(n, dtype=np.int8)
    with open(path) as fh:
        for i, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                v, s = map(int, line.split())
                if not (0 <= v < n and s in (1, -1) and out[v] == 0):
                    raise ValueError
            except ValueError:
                raise ValueError(f"{path}: line {i} {line.strip()!r} is not a new vertex "
                                 f"id in [0, {n}) and a label +1 or -1") from None
            out[v] = s
    if not out.all():
        raise ValueError(f"{path}: labels missing for some vertices")
    return out
