"""Labelled sparse two-class random graphs and BFS neighborhoods.

Graphs live in CSR-style arrays (indptr/indices) with sorted, deduplicated
neighbor lists and an int8 +-1 label per vertex.  Edge sampling walks the
lexicographic stream of candidate pairs with geometric jumps, so generating a
graph costs O(edges) rather than O(n^2) Bernoulli trials; n up to 1e6 is fine
on a desktop.

BFS neighborhoods use a deterministic tie-break: neighbor lists are scanned
in ascending id order and the BFS parent of a newly discovered vertex is its
smallest-id neighbor in the previous shell.  ``bfs_balls`` builds the balls
of many centres at once, one sort per level over keys tagged by the owning
centre, into one ``Balls``; ``extract_neighborhood`` is its one-centre case.
A key packs (owner, vertex, discoverer tag) into fields of
bit_length(c - 1), bit_length(n - 1) and bit_length(largest per-owner front)
bits for c centres on n vertices, and a level sorts its keys as uint32 when
the three fields fit in 32 bits, as int64 otherwise.
``ball_batches`` cuts a long list of centres into batches of about
``_BALL_BUDGET`` gathered neighbour slots, which bounds the working set and
is not a setting, and ``Balls.nontree`` flags the balls that are not trees.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .params import ModelParams
from .seeding import as_generator

__all__ = [
    "Balls",
    "LabelledGraph",
    "SubgraphMap",
    "sample_sbm",
    "graph_from_edges",
    "bfs_balls",
    "ball_batches",
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


def _csr_from_edges(n: int, u: np.ndarray, v: np.ndarray, labels: np.ndarray) -> LabelledGraph:
    """Build CSR from one copy of each undirected edge (arrays u, v)."""
    src = np.concatenate((u, v))
    dst = np.concatenate((v, u))
    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(indptr, src + 1, 1)
    np.cumsum(indptr, out=indptr)
    return LabelledGraph(n=n, indptr=indptr, indices=dst.astype(np.int64),
                         labels=labels.astype(np.int8))


def graph_from_edges(n: int, edges, labels) -> LabelledGraph:
    """Small-graph constructor from an iterable of (u, v) pairs."""
    labels = np.asarray(labels, dtype=np.int8)
    if labels.shape != (n,) or not np.all(np.abs(labels) == 1):
        raise ValueError("labels must be n values in {-1, +1}")
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
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        key = lo * n + hi
        if len(np.unique(key)) != len(key):
            raise ValueError("duplicate edges")
        u, v = lo, hi
    else:
        u = v = np.empty(0, dtype=np.int64)
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


def sample_sbm(m: ModelParams, mode: str = "uniform-random", seed=0,
               labels=None) -> LabelledGraph:
    """Sample a labelled graph: within-class pairs at a/n, between at b/n.

    mode "uniform-random" draws i.i.d. uniform +-1 labels; mode "fixed-sets"
    uses the supplied label vector (for fixed near-balanced classes).
    Deterministic given the seed.
    """
    rng = as_generator(seed)
    n = m.n
    if mode == "uniform-random":
        if labels is not None:
            raise ValueError("labels are drawn internally in uniform-random mode")
        lab = np.where(rng.random(n) < 0.5, 1, -1).astype(np.int8)
    elif mode == "fixed-sets":
        if labels is None:
            raise ValueError("fixed-sets mode needs a label vector")
        lab = np.asarray(labels, dtype=np.int8)
        if lab.shape != (n,) or not np.all(np.abs(lab) == 1):
            raise ValueError("labels must be n values in {-1, +1}")
    else:
        raise ValueError(f"unknown partition mode {mode!r}")

    plus = np.flatnonzero(lab == 1).astype(np.int64)
    minus = np.flatnonzero(lab == -1).astype(np.int64)
    us, vs = [], []
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
    if us:
        u = np.concatenate(us)
        v = np.concatenate(vs)
    else:
        u = v = np.empty(0, dtype=np.int64)
    return _csr_from_edges(n, u, v, lab)


def _vertex_bits(n: int) -> int:
    """Bits for one key field: vertex ids (< n) and scan tags (<= n) both fit."""
    return max(1, int(n).bit_length())


# Gathered neighbour slots one ball batch aims at: a few MiB of keys, so a
# batch holds tens of centres on balls of thousands of vertices and tens of
# thousands on balls of ten.
_BALL_BUDGET = 1 << 17


def _max_ball_centres(n: int) -> int:
    """Most centres one ``bfs_balls`` call takes on an n-vertex graph.

    A scan key packs (owner, vertex, tag) into one int64, so owners get the
    bits that two vertex-sized fields leave free.
    """
    free = 63 - 2 * _vertex_bits(n)
    return 1 << free if free > 0 else 0


def _gather(indptr, indices, front):
    """Neighbour slices of ``front`` in one flat array, and the front's degrees."""
    degs = indptr[front + 1] - indptr[front]
    flat = np.repeat(indptr[front] - (np.cumsum(degs) - degs), degs)
    flat += np.arange(len(flat), dtype=np.int64)
    return indices[flat], degs


def _owner_cut(owner: np.ndarray, n_owners: int) -> np.ndarray:
    """Bounds of each owner's run in an owner-sorted array: owner o spans
    positions [cut[o], cut[o + 1])."""
    return np.searchsorted(owner, np.arange(n_owners + 1))


def _run_sums(values: np.ndarray, cut: np.ndarray) -> np.ndarray:
    """Sums of ``values`` over the runs [cut[o], cut[o + 1]), from prefix sums."""
    return np.diff(np.concatenate(([0], np.cumsum(values)))[cut])


@dataclass(frozen=True)
class Balls:
    """BFS balls of one radius around a batch of centres, as flat level arrays.

    Level j holds, for all centres at once, the vertices at distance exactly
    j from their centre, sorted by (owner, vertex id): ``vertex[j]`` the ids,
    ``owner[j]`` each entry's index into ``centres``, and ``parent_pos[j]``
    (j >= 1) the position of its BFS parent within level j - 1.  These are
    the level lists of a ``BroadcastTree`` forest with one root per centre,
    plus each entry's owner.  A ball that ends before the radius has no
    entries at the deeper levels.

    ``scan_extra`` counts, per owner, the induced edges outside the BFS tree
    that the scans of levels 0..radius-1 saw: repeated discoveries and edges
    inside a scanned level.  Edges inside the sphere need ``sphere_edges``.
    """

    centres: np.ndarray
    radius: int
    vertex: list
    owner: list
    parent_pos: list
    scan_extra: np.ndarray

    @property
    def ball(self) -> np.ndarray:
        """The vertices of the balls, level by level: B(centre, radius) for one centre."""
        return np.concatenate(self.vertex)

    def sphere_edges(self, g: LabelledGraph, select=None) -> np.ndarray:
        """Per owner, the edges with both ends on the sphere S(centre, radius).

        Only owners where ``select`` (a bool per owner) is set are scanned;
        the others read 0.
        """
        r, c = self.radius, len(self.centres)
        own, ver = self.owner[r], self.vertex[r]
        if select is not None:
            keep = select[own]
            own, ver = own[keep], ver[keep]
        vb = _vertex_bits(g.n)
        nbrs, degs = _gather(g.indptr, g.indices, ver)
        reach = np.repeat(own << vb, degs) | nbrs
        reach.sort()
        on_sphere = (own << vb) | ver
        ends = (np.searchsorted(reach, on_sphere, "right")
                - np.searchsorted(reach, on_sphere, "left"))
        return _run_sums(ends, _owner_cut(own, c)) // 2

    def nontree(self, g: LabelledGraph) -> np.ndarray:
        """Per owner: does the ball hold an induced edge outside its BFS tree?

        The BFS scans settle every ball with a repeated discovery or an edge
        inside a scanned level; only balls still tree-like after them, with a
        full sphere, need the scan for sphere-sphere edges, done in groups of
        about ``_BALL_BUDGET`` gathered neighbours.
        """
        r = self.radius
        nontree = self.scan_extra > 0
        cut = _owner_cut(self.owner[r], len(nontree))
        open_ = ~nontree & (np.diff(cut) > 0)
        if not open_.any():
            return nontree
        cost = _run_sums(g.degrees[self.vertex[r]], cut)
        group = np.cumsum(np.where(open_, cost, 0)) // _BALL_BUDGET
        for k in np.unique(group[open_]):
            select = open_ & (group == k)
            nontree |= self.sphere_edges(g, select) > 0
        return nontree


def _vertex_ids(ids, n: int, name: str) -> np.ndarray:
    """``ids`` as int64, which must be a 1-d array of integer vertex ids in [0, n)."""
    ids = np.asarray(ids)
    if ids.ndim != 1 or (ids.size and ids.dtype.kind not in "iu"):
        raise ValueError(f"{name} must be a 1-d array of integer vertex ids")
    ids = ids.astype(np.int64, copy=False)
    if ids.size and not (0 <= ids.min() and ids.max() < n):
        raise ValueError(f"{name} hold a vertex id out of range [0, {n})")
    return ids


def bfs_balls(g: LabelledGraph, centres, radius: int) -> Balls:
    """BFS balls B(v, radius) of every centre, built level by level at once.

    Each level is one vectorised step over the whole batch: gather the
    front's neighbour slices, drop vertices the same owner placed at the
    previous or the current level, and keep the smallest-id discoverer of
    each new (owner, vertex).  Shells, parents and their order match a BFS
    of each centre on its own that scans neighbours in ascending id order.

    The step sorts keys (owner, vertex, tag), packed as the module docstring
    says.  A neighbour's tag is 1 + its discoverer's position within the
    owner's front and a placed vertex's tag is 0, so a placed entry sorts
    first in its (owner, vertex) group and the smallest-id discoverer next.
    ``centres`` must be integer vertex ids in [0, n) and ``radius`` >= 0.
    """
    centres = _vertex_ids(centres, g.n, "centres")
    if radius < 0:
        raise ValueError(f"radius must be nonnegative, got {radius}")
    c = len(centres)
    if c > _max_ball_centres(g.n):
        raise ValueError(f"at most {_max_ball_centres(g.n)} centres per call at n={g.n}")
    ob, vb = max(c - 1, 0).bit_length(), max(g.n - 1, 0).bit_length()
    cut = np.arange(c + 1)  # owner o's entries of a level span [cut[o], cut[o + 1])
    owner = [cut[:-1]]
    vertex = [centres]
    parent_pos: list = [None]
    # (owner, vertex) groups of the two levels a scan may not place again
    placed = [np.empty(0, dtype=np.int64), (owner[0] << vb) | centres]
    scan_extra = np.zeros(c, dtype=np.int64)
    up = 0
    for j in range(radius):
        front, fown = vertex[j], owner[j]
        tb = int(np.diff(cut).max(initial=0)).bit_length()
        shift, tmask = vb + tb, (1 << tb) - 1
        nbrs, degs = _gather(g.indptr, g.indices, front)
        old_groups = np.concatenate(placed)
        keys = np.empty(len(old_groups) + len(nbrs),
                        dtype=np.uint32 if ob + shift <= 32 else np.int64)
        np.left_shift(old_groups, tb, out=keys[: len(old_groups)], casting="unsafe")
        tagged = keys[len(old_groups) :]
        np.left_shift(nbrs, tb, out=tagged, casting="unsafe")
        head = (fown << shift) | (np.arange(1, len(front) + 1) - cut[fown])
        tagged |= np.repeat(head.astype(keys.dtype), degs)
        keys.sort()
        group = keys >> tb
        bound = np.ones(len(keys) + 1, dtype=bool)
        np.not_equal(group[1:], group[:-1], out=bound[1:-1])
        bound = np.flatnonzero(bound)
        first = keys[bound[:-1]]
        new = (first & tmask) != 0
        # neighbours that landed on a placed vertex, from the placed groups
        old = np.flatnonzero(~new)
        hits = np.bincount(first[old] >> shift, weights=bound[old + 1] - bound[old] - 1,
                           minlength=c).astype(np.int64)
        first = first[new]
        found = (first >> tb).astype(np.int64, copy=False)
        own = found >> vb
        new_cut = _owner_cut(own, c)
        found_per_owner = np.diff(new_cut)
        # neighbours that discovered a vertex found at this level once more
        rep = _run_sums(degs, cut) - hits - found_per_owner
        # hits on level j-1 are the tree edges up plus the previous level's
        # repeated discoveries; the rest lie inside level j, seen from both ends
        scan_extra += rep + (hits - up) // 2
        up = found_per_owner + rep
        pos = np.repeat(cut[:-1] - 1, found_per_owner)
        pos += first & tmask
        parent_pos.append(pos)
        owner.append(own)
        vertex.append(found & ((1 << vb) - 1))
        placed = [placed[1], found]
        cut = new_cut
    return Balls(centres=centres, radius=radius, vertex=vertex, owner=owner,
                 parent_pos=parent_pos, scan_extra=scan_extra)


def _chunk_size(g: LabelledGraph, radius: int) -> int:
    """Centres per ball batch: about ``_BALL_BUDGET`` gathered neighbours each.

    With mean degree dbar, the scan of level R-1, the largest, gathers about
    (1 + dbar)^R neighbour slots per centre.
    """
    dbar = len(g.indices) / max(g.n, 1)
    size = int(_BALL_BUDGET // ((1.0 + dbar) ** radius))
    return max(1, min(size, _max_ball_centres(g.n)))


def ball_batches(g: LabelledGraph, centres, radius: int):
    """``bfs_balls`` over consecutive batches of ``centres``, in order, each
    batch sized by ``_chunk_size``."""
    centres = np.asarray(centres, dtype=np.int64)
    size = _chunk_size(g, radius)
    for start in range(0, len(centres), size):
        yield bfs_balls(g, centres[start : start + size], radius)


def extract_neighborhood(g: LabelledGraph, v: int, radius: int) -> Balls:
    """BFS ball B(v, radius) of the one centre v."""
    return bfs_balls(g, [v], radius)


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
