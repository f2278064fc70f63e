"""Graph recovery by neighborhood hold-out and boundary BP.

For each vertex v, the idea is: hide v's neighborhood, run a rough black-box
partitioner on the rest of the graph, read the inferred sides on the sphere
S(v, R) as noisy leaf observations, and recover v's label by robust tree
reconstruction on the depth-R tree around v.  Because the black box is only
defined up to a global label flip, the run is aligned through one held-out
high-degree anchor vertex u*: with a > b the anchor should see most of its
neighbors on its own side (rule reversed when a < b).

The black box runs once, on the graph H = G minus the hold-out set U of
floor(sqrt(n)) uniform vertices, and every vertex of H is labelled from that
one aligned partition.  Vertices in U get no inferred sides, take no part in
the observations and are labelled by fair coins at the end.

Label computation is two-stage, mirroring the fact that the boundary noise
level is unknown: first, every node at depth R-K gets a hard +-1 vote, the
sign of the noiseless conductance-weighted sum of the observations in its
depth-K subtree; then exact BP runs on those signs from depth R-K up to v.
K = 0 degenerates to BP straight on the observations.

The tree is v's depth-R non-backtracking walk tree, which is the BFS tree of
B(v, R) whenever that ball is a tree, the regime of the theory (R of order
log n).  On a ball with cycles the walk tree also reads sides inside
B(v, R - 1) that a cycle leads back to, where BP on the BFS tree would read
the sphere only.  Walk trees share their subtrees, so ``_label_edges``
labels every vertex at once by messages on the directed edges of H.  At
R >= 2 those edges are held in pair order (``_edge_pairs``), where the
reverse of slot 2e is slot 2e + 1.  Coins are keyed rather than drawn in
order: a tie below the root by its directed edge's pair slot, a root coin
by vertex.  What reads H alone, the exact check that H's slots pair up and
the non-tree sample, runs beside the edge passes on a worker thread when
the calling thread has two usable cores to itself (``_beside``).
"""

from __future__ import annotations

import math
import numbers
import time
import warnings
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import popdyn
from .levels import _compose_through_edge, _edge_llr, _magnetize
from .params import ModelParams, derive_tree_params, ks_signal
from .partition import Partition, OverlapReport, blackbox_partition, overlap
from .randgraph import LabelledGraph, _row_slots, remove_set
from .seeding import derived_rng

__all__ = [
    "AlgoConfig",
    "RecoveryDiagnostics",
    "RecoveryResult",
    "resolve_radius",
    "choose_anchor",
    "align_partition",
    "recover",
    "save_vertex_csv",
]

# A sum of the edge passes is 0 when |sum| <= _TIE_ULPS * eps * (sum of |terms|).
_TIE_ULPS = 4096

# Centres of the sample that ``nontree_neighborhoods`` is estimated from.
_NONTREE_SAMPLE = 500

# Centres that ``_revisiting`` searches at once; its keys are one chunk's.
_NONTREE_CHUNK = 50

# CSR rows that ``_check_pairs`` reads at once, beside H's m reversed keys.
_PAIR_ROWS = 1024


@dataclass(frozen=True)
class AlgoConfig:
    """Knobs of the recovery algorithm: the radius R and the vote depth K.

    R_mode "auto" picks the largest R in [1, 6] with (mean degree)^R at most
    n^(1/8), keeping balls small (the theory's floor(log n / (20(a+b))) is 0
    for every n below e^(20(a+b))) and takes no ``R``; "fixed" takes ``R`` as
    given.  K is the depth of the hard-vote stage, 0 <= K <= R.  The hold-out
    size, floor(sqrt(n)), and the noiseless vote weights are not knobs.
    """

    R: int | None = None
    R_mode: str = "auto"  # "auto" | "fixed"
    K: int = 1

    def __post_init__(self):
        for name, value in (("R", 1 if self.R is None else self.R), ("K", self.K)):
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, not {value!r}")
        if self.R_mode not in ("auto", "fixed"):
            raise ValueError("R_mode must be auto or fixed")
        if self.R_mode == "fixed" and (self.R is None or self.R < 1):
            raise ValueError("fixed R_mode needs R >= 1")
        if self.R_mode == "auto" and self.R is not None:
            raise ValueError(f"R={self.R} is ignored under R_mode auto; pass R_mode='fixed'")
        if self.K < 0:
            raise ValueError(f"K must be nonnegative, not {self.K}")


def resolve_radius(cfg: AlgoConfig, n: int, a: float, b: float) -> int:
    if cfg.R_mode == "fixed":
        r = int(cfg.R)
    else:
        d = (a + b) / 2.0
        bound = n ** 0.125
        r = 1
        while r < 6 and d ** (r + 1) <= bound:
            r += 1
    if cfg.K > r:
        raise ValueError(f"K={cfg.K} exceeds the neighborhood radius R={r}")
    return r


def choose_anchor(g: LabelledGraph, hold_out, rng):
    """Uniformly random hold-out vertex with enough neighbors outside the hold-out.

    Enough is at least ceil(sqrt(ln n)) (1 at n = 1).  Falls back to the
    maximum out-degree hold-out vertex (smallest id on ties) when none
    qualifies; the fallback is reported so runs can be audited.  Returns
    (u_star, fallback_used).
    """
    hold_out = np.asarray(hold_out, dtype=np.int64)
    if hold_out.size == 0:
        raise ValueError("hold-out set is empty")
    min_degree = math.ceil(math.sqrt(math.log(g.n))) if g.n > 1 else 1
    in_u = np.zeros(g.n, dtype=bool)
    in_u[hold_out] = True
    out_deg = np.array(
        [int((~in_u[g.neighbors(u)]).sum()) for u in hold_out], dtype=np.int64
    )
    qualifying = hold_out[out_deg >= min_degree]
    if len(qualifying):
        return int(qualifying[rng.integers(len(qualifying))]), False
    return int(hold_out[int(np.argmax(out_deg))]), True


@dataclass(frozen=True)
class AlignInfo:
    swapped: bool
    tie: bool


def align_partition(p: Partition, g: LabelledGraph, u_star: int, a: float,
                    b: float, old_to_new) -> tuple[Partition, AlignInfo]:
    """Relabel the partition so the anchor's neighbor count points the right way.

    With a > b the anchor should have more neighbors on the + side; with
    a < b the rule reverses.  A tie leaves the partition unchanged and is
    flagged.  ``old_to_new`` maps g's vertex ids into p's domain (-1 marks
    vertices absent from the domain).
    """
    mapped = old_to_new[g.neighbors(u_star)]
    sides = p.side[mapped[mapped >= 0]]
    n_plus = int((sides == 1).sum())
    n_minus = int((sides == -1).sum())
    if n_plus == n_minus:
        return p, AlignInfo(swapped=False, tie=True)
    swapped = (n_plus > n_minus) != (a > b)
    return (p.flipped() if swapped else p), AlignInfo(swapped=swapped, tie=False)


class _Labels(NamedTuple):
    """Per-vertex outputs of ``_label_edges``, indexed by H's vertex ids,
    and one count."""

    sign: np.ndarray           # int8 +-1
    magnetization: np.ndarray  # float64, 0 where a coin decided
    coin: np.ndarray
    zero_root: np.ndarray      # the coin decided because the root value is 0
    no_walk: np.ndarray        # no non-backtracking walk of length R
    rounding_zeros: int        # a count: float sums the relative test set to 0


def _edge_pairs(h: LabelledGraph) -> tuple[np.ndarray, np.ndarray]:
    """Row x and neighbour y of every directed edge (x, y) of H, in pair order.

    Edge e = (u, v), u < v, is the e-th CSR slot whose row is below its
    neighbour, so the edges come in (u, v) order with no sort.  Slot 2e is
    (u, v) and slot 2e + 1 is (v, u): the reverse of a slot is its partner
    in the (m, 2) view.  A vertex x still meets its neighbours in ascending
    order, as in its CSR row: first the edges (y, x) with y < x, then the
    edges (x, z).  Raises ValueError when the slots with row < neighbour
    are not half of all, as a self-loop or a one-way edge may leave them; it
    does not match each edge with its partner, which ``_check_pairs`` does
    off the critical path (see ``LabelledGraph``).
    """
    row = np.repeat(np.arange(h.n, dtype=np.int64), h.degrees)
    lo = row < h.indices
    m = int(np.count_nonzero(lo))
    if 2 * m != len(h.indices):
        raise ValueError(
            f"the CSR slots do not pair up: {m} of {len(h.indices)} have row < "
            "neighbour, not half (a self-loop or an edge held in one direction only)")
    row_of, nbr = np.empty(2 * m, dtype=np.int64), np.empty(2 * m, dtype=np.int64)
    np.compress(lo, row, out=row_of[0::2])
    del row
    np.compress(lo, h.indices, out=nbr[0::2])
    del lo
    row_of[1::2] = nbr[0::2]
    nbr[1::2] = row_of[0::2]
    return row_of, nbr


def _label_edges(h: LabelledGraph, side: np.ndarray, r: int, big_k: int,
                 theta: float, rng, root_u: np.ndarray) -> _Labels:
    """Two-stage root values of every vertex of H on its depth-R walk tree.

    The walk tree of v hangs, below each child y reached from x, the subtree
    of y's walks that do not step straight back to x, and the same subtree
    hangs below every node that enters y from x.  So a value at height j
    above the leaves is a message y -> x, carried by the slot (x, y) of a
    directed edge of H, and a round computes height j + 1 from height j for
    all slots at once: the row sum of y's incoming messages minus the one
    from x (the cavity step; the reverse slot (y, x) holds it).  The root is
    a plain row sum.  At R >= 2 the slots are in pair order
    (``_edge_pairs``), so the reverse slot is the pair partner.  At R = 1 no
    message needs its reverse and the CSR slots serve as they are; at
    n = 2e5 the pair arrays raised a run's peak memory by about 8 % and
    doubled the time of the edge passes.
    Either way a row's terms are added in ascending neighbour order.

    The same rounds find the walks: per slot (x, y), whether a
    non-backtracking walk of length j starts x -> y, true at j = 1 and then
    true where y's row holds a true slot other than the one back to x.  v
    has a walk of length R (``no_walk`` is false) when its row holds a true
    slot at j = R.

    ``side`` is every vertex's +-1 side.  Heights up to K carry the vote:
    at K = 1 the vote is the sign of the integer sum of the children's sides,
    a tie when that sum is 0.  At K >= 2 a message carries the branch
    conductance c and the current-weighted average U of the sides below
    (U = side at the leaves, U = sum c_i U_i / sum c_i over the children),
    and sign(sum c_i U_i) is the conductance-weighted vote; a noiseless leaf's
    c is its edge's alone, theta^2 / (1 - theta^2).  K = 0 passes the sides
    as they are.  Then R - K - 1 rounds of the BP level combine and one root
    sum.  The K = 1 vote stays apart from the conductance vote, whose leaves
    all carry one c and so give the same signs, because it needs no per-slot
    conductance arrays: at R = K = 1 and n = 2e5 those raised a run's peak
    memory by about 12 %.

    An exact cancellation in floating point often leaves a residue whose
    sign would decide the label.  So every float sum here (the K >= 2 votes,
    each BP cavity sum and the root sum) counts as 0 when its magnitude is
    at most c * eps * S, with c = ``_TIE_ULPS`` = 4096, eps the float64
    machine epsilon and S the sum of the magnitudes of the terms of the whole
    row; for a cavity sum that includes the parent's own term, which bounds
    the rounding of the subtraction.  A vote of sum 0 is a tie, and a BP sum
    of 0 gives the message 0.  ``rounding_zeros`` counts the sums this test
    sets to 0 that were not exactly 0.

    A vote tie below the root (R > K >= 1) takes a coin from one uniform per
    slot drawn from ``rng``, read at the tied edge's pair slot; a root-level
    coin takes the vertex's entry of ``root_u``.
    """
    n = h.n
    if r >= 2:
        row, nbr = _edge_pairs(h)
    else:
        row, nbr = np.repeat(np.arange(n, dtype=np.int64), h.degrees), h.indices
    xi = side.astype(np.float64)
    tol = _TIE_ULPS * np.finfo(np.float64).eps
    rounded = 0

    def row_sums(w):
        return np.bincount(row, weights=w, minlength=n)

    def zero_ties(s, limit):
        """``s`` with the sums of magnitude at most ``limit`` set to 0."""
        nonlocal rounded
        hit = np.flatnonzero(np.abs(s) <= limit)
        rounded += int(np.count_nonzero(s[hit]))
        s[hit] = 0.0
        return s

    def cavity(w):
        """Per slot (x, y): the sum of ``w`` over y's row less x's own term,
        held by the reverse slot; 0 within rounding."""
        limit = tol * row_sums(np.abs(w))
        s = row_sums(w)[nbr]
        s[0::2] -= w[1::2]
        s[1::2] -= w[0::2]
        return zero_ties(s, limit[nbr])

    def has_walk():
        """Per vertex, whether a non-backtracking walk of length R starts there."""
        per_vertex = h.degrees
        if r >= 2:
            walk = np.ones(len(nbr), dtype=bool)
        for _ in range(r - 1):
            # a true slot of y's row other than the one back to x; read as
            # uint16, a byte-swapped pair of bools holds each slot's reverse
            walk = per_vertex[nbr] > walk.view(np.uint16).byteswap().view(bool)
            per_vertex = np.bincount(row, weights=walk, minlength=n)
        return per_vertex > 0

    reach = has_walk()

    def vote_sums():
        """The votes' sums: per slot below the root, per vertex at K = R."""
        if big_k == 1:
            a = row_sums(xi[nbr])
            return a if big_k == r else a[nbr] - xi[row]
        c = _compose_through_edge(np.full(len(nbr), np.inf), theta)
        cu = c * xi[nbr]
        for _ in range(1, big_k):
            z, a = cavity(c), cavity(cu)
            c = _compose_through_edge(z, theta)
            cu = c * np.divide(a, z, out=np.zeros_like(a), where=z > 0)
        if big_k == r:
            return zero_ties(row_sums(cu), tol * row_sums(np.abs(cu)))
        return cavity(cu)

    if big_k == r:
        val = np.sign(vote_sums())
    else:
        if big_k == 0:
            t = _edge_llr(xi, theta)[nbr]
        else:  # per-slot votes; a tie takes its slot's coin
            t = vote_sums()
            tie = np.flatnonzero(t == 0.0)
            np.sign(t, out=t)
            t[tie] = np.where(rng.random(len(nbr))[tie] < 0.5, 1.0, -1.0)
            _edge_llr(t, theta, out=t)
        for _ in range(big_k + 1, r):
            t = _magnetize(cavity(t))
            _edge_llr(t, theta, out=t)
        val = _magnetize(zero_ties(row_sums(t), tol * row_sums(np.abs(t))))

    zero = reach & (val == 0.0)
    coin = ~reach | zero
    sign = np.where(val > 0, 1, -1).astype(np.int8)
    sign[coin] = np.where(root_u[coin] < 0.5, 1, -1)
    return _Labels(sign=sign, magnetization=np.where(coin, 0.0, val), coin=coin,
                   zero_root=zero, no_walk=~reach, rounding_zeros=rounded)


def _key_type(bound: int) -> type:
    """The integer type of keys in [0, ``bound``): int32 when they fit."""
    return np.int32 if bound < 2 ** 31 else np.int64


def _check_pairs(h: LabelledGraph) -> None:
    """Raises ValueError unless every CSR slot (x, y) of H has its reverse (y, x).

    The exact form of ``_edge_pairs``' count: the keys y*n + x of the slots
    (x, y) with x < y, reversed and sorted, must be the keys x*n + y of the
    slots with x > y, which the sorted CSR rows hold in order.  The rows are
    read ``_PAIR_ROWS`` at a time, twice: once to gather the reversed keys,
    once to compare the others with them, so beside those keys the check
    holds one block's arrays.
    """
    n = h.n
    key = _key_type(n * n)
    blocks = range(0, n, _PAIR_ROWS)
    back = np.empty(len(h.indices) // 2, dtype=key)

    def keys(a: int, reverse: bool) -> np.ndarray:
        """The keys of rows a to a + ``_PAIR_ROWS`` - 1: of their slots with
        x < y reversed, or of those with x > y."""
        b = min(a + _PAIR_ROWS, n)
        x = np.repeat(np.arange(a, b, dtype=key), np.diff(h.indptr[a:b + 1]))
        y = h.indices[h.indptr[a]:h.indptr[b]].astype(key)
        if reverse:
            x, y = y, x
        big = x > y
        out = x[big]
        out *= n
        out += y[big]
        return out

    def paired() -> bool:
        at = 0
        for a in blocks:
            block = keys(a, True)
            if at + len(block) > len(back):
                return False
            back[at:at + len(block)] = block
            at += len(block)
        if 2 * at != len(h.indices):
            return False
        back.sort()
        at = 0
        for a in blocks:
            block = keys(a, False)
            if not np.array_equal(back[at:at + len(block)], block):
                return False
            at += len(block)
        return at == len(back)

    if not paired():
        raise ValueError(
            "the CSR slots do not pair up: a slot (x, y) has no reverse (y, x) "
            "(a self-loop or an edge held in one direction only)")


def _revisiting(h: LabelledGraph, r: int, centres: np.ndarray) -> np.ndarray:
    """Per centre v, whether v's depth-r walk tree visits a vertex twice.

    While that tree has visited no vertex twice, it is the BFS tree of the
    ball so far, and each of its nodes has one image.  It first visits a
    vertex twice where a slot leaves a layer j < r for a vertex that is not
    the node's parent and is already visited or reached twice in that step.
    So the centres run, ``_NONTREE_CHUNK`` at a time, one breadth-first
    search per chunk, a layer at a time, on the keys c*n + y (c the centre's
    position in its chunk, y a vertex), int32 when they fit: one sort of
    the visited keys with the new ones finds the repeated keys, and a
    centre with one is flagged and retired.  Only a centre whose ball is
    still a tree goes on, and a chunk's search stops once none is left.
    The last layer keeps only its keys.
    """
    n = h.n
    flag = np.zeros(len(centres), dtype=bool)
    for lo in range(0, len(centres), _NONTREE_CHUNK):
        front = np.asarray(centres[lo:lo + _NONTREE_CHUNK], dtype=np.int64)
        hit = flag[lo:lo + len(front)]
        key = _key_type(len(front) * n)
        owner = np.arange(len(front), dtype=key)
        parent = np.full(len(front), -1, dtype=np.int64)
        seen = owner * n + front.astype(key)  # sorted: one key per centre
        for layer in range(r):
            slot, deg = _row_slots(h, front)
            nxt = h.indices[slot]
            keep = nxt != np.repeat(parent, deg)
            nxt, own = nxt[keep], np.repeat(owner, deg)[keep]
            new = own * n
            new += nxt
            seen = np.concatenate((seen, new))
            seen.sort()
            hit[seen[1:][seen[1:] == seen[:-1]] // n] = True
            if layer == r - 1:
                break
            live = ~hit[own]
            parent = np.repeat(front, deg)[keep][live]
            front, owner = nxt[live], own[live]
            if len(front) == 0:
                break
            seen = seen[~hit[seen // n]]
    return flag


def _nontree_estimate(h: LabelledGraph, r: int, rng) -> int:
    """Vertices of H whose depth-r walk tree visits a vertex twice, from a sample.

    That is where the walk tree differs from the BFS tree of B(v, r).  The
    count is taken by ``_revisiting`` on min(H.n, ``_NONTREE_SAMPLE``)
    centres drawn from ``rng`` and scaled to H.n (rounded), so it is exact
    when H.n <= ``_NONTREE_SAMPLE``.  It is 0 at r = 1, where no walk tree
    revisits and no sample is drawn.
    """
    size = min(h.n, _NONTREE_SAMPLE)
    if r == 1 or size == 0:
        return 0
    centres = np.arange(h.n) if size == h.n else rng.choice(h.n, size, replace=False)
    hits = int(_revisiting(h, r, centres).sum())
    return (hits * h.n + size // 2) // size


@dataclass
class RecoveryDiagnostics:
    """Counts a recovery run keeps about itself.

    ``coin_labels`` counts every coin-decided label, hold-out vertices
    included; ``zero_roots`` is the part of it decided because the root
    value is 0 (a root BP value of exactly 0, or a tied root vote at K = R),
    and ``empty_spheres`` the part with no non-backtracking walk of length R.
    ``rounding_zeros`` counts the float sums of the edge passes (K >= 2
    votes, BP cavity sums, root sums; per slot or per vertex) that the
    relative zero test, |sum| <= 4096 * eps * (sum of the row's
    magnitudes), set to 0 when they were not exactly 0: the exact
    cancellations that floating point left a residue on.
    ``nontree_neighborhoods`` estimates, from a sample of centres (see
    ``_nontree_estimate``), the vertices whose depth-R walk tree visits a
    vertex twice, where it differs from the BFS tree of B(v, R).
    ``u_star_ball_violations`` counts the vertices within distance R - 1 of
    one of the anchor's neighbours in H, whose walk trees see the anchor
    alignment from inside.  ``blackbox_informative`` is false
    if the black box found no community eigenvalue and returned a coin-flip
    split.
    """

    r_used: int = 0
    u_star: int = -1
    u_star_fallback: bool = False
    align_ties: int = 0
    align_swaps: int = 0
    coin_labels: int = 0
    zero_roots: int = 0
    empty_spheres: int = 0
    rounding_zeros: int = 0
    nontree_neighborhoods: int = 0
    u_star_ball_violations: int = 0
    blackbox_informative: bool = True


STAGES = ("holdout", "blackbox", "align", "roots", "nontree", "coins")
"""Stages of ``recover`` timed in ``RecoveryResult.stage_seconds``, in run
order: the hold-out set, anchor and subgraph; the black-box run; anchor
alignment; the edge passes with their coins, reach pass and the
anchor-distance count; the wait, after them, for the exact pairing check
and the chunked search of the non-tree sample; the hold-out coins and the
overlap report.  At R >= 2 the check and the sample run on a worker thread
while the edge passes run, so ``roots`` overlaps them and ``nontree`` is
what is left of them; with no core to spare (one usable core, or a
``popdyn._map_chains`` thread) they run after the edge passes and
``nontree`` is all of them.  At R = 1 neither runs."""


@dataclass(frozen=True)
class RecoveryResult:
    side: np.ndarray
    magnetization: np.ndarray
    report: OverlapReport
    diagnostics: RecoveryDiagnostics
    seconds: float
    stage_seconds: dict = field(default_factory=dict)

    @property
    def accuracy(self) -> float:
        return self.report.accuracy


def save_vertex_csv(result: RecoveryResult, path) -> None:
    """Per-vertex dump: "v, assigned_sign, magnetization" per line."""
    with open(path, "w") as fh:
        fh.write("v,assigned_sign,magnetization\n")
        for v, (s, m) in enumerate(zip(result.side, result.magnetization)):
            fh.write(f"{v},{int(s)},{m:.10g}\n")


def _beside(main: Callable, side: Callable) -> tuple:
    """``(main(), side())``, with ``side`` on one worker thread while ``main``
    runs on the calling thread when this thread has a core to spare
    (``popdyn._cores_per_thread``), or after ``main`` when it has not, as on
    one core or on a ``popdyn._map_chains`` thread that shares the cores.
    Either way both have run when this returns, and an error of ``side`` is
    raised here before one of ``main``."""
    spare = popdyn._cores_per_thread() >= 2
    with ThreadPoolExecutor(max_workers=1) if spare else nullcontext() as pool:
        wait = pool.submit(side).result if spare else side
        try:
            first = main()
        finally:
            second = wait()
    return first, second


def recover(g: LabelledGraph, cfg: AlgoConfig, params: ModelParams,
            impl: str = "spectral", seed: int = 0,
            delta0: float | None = None) -> RecoveryResult:
    """Run the full recovery: hold-out, anchor, black box, align, label, coins."""
    t0 = time.perf_counter()
    stage = dict.fromkeys(STAGES, 0.0)
    clock = t0

    def lap(name: str) -> None:
        nonlocal clock
        now = time.perf_counter()
        stage[name] += now - clock
        clock = now

    if params.n != g.n:
        raise ValueError("params.n does not match the graph")
    if ks_signal(params) <= 1.0:
        warnings.warn(
            "signal (a-b)^2 / (2(a+b)) is at or below 1; nothing is recoverable",
            stacklevel=2,
        )
    tp = derive_tree_params(params)
    r = resolve_radius(cfg, g.n, params.a, params.b)
    diag = RecoveryDiagnostics(r_used=r)

    u_size = max(1, min(math.isqrt(g.n), g.n - 1))
    hold_out = np.sort(derived_rng(seed, "hold-out").choice(g.n, u_size, replace=False))

    u_star, fallback = choose_anchor(g, hold_out, derived_rng(seed, "anchor"))
    diag.u_star = u_star
    diag.u_star_fallback = fallback

    sub = remove_set(g, hold_out)
    h = sub.graph
    # root-level coins, keyed by vertex; read on h's ids
    root_u = derived_rng(seed, "zero-roots").random(g.n)[sub.new_to_old]
    side_out = np.zeros(g.n, dtype=np.int8)
    mag_out = np.zeros(g.n, dtype=np.float64)
    lap("holdout")

    part = blackbox_partition(h, impl=impl, seed=derived_rng(seed, "bb", 0), delta0=delta0)
    diag.blackbox_informative = part.informative
    lap("blackbox")
    aligned, info = align_partition(part, g, u_star, params.a, params.b,
                                    old_to_new=sub.old_to_new)
    diag.align_ties = int(info.tie)
    diag.align_swaps = int(info.swapped)
    lap("align")

    def edge_passes() -> None:
        out = _label_edges(h, aligned.side, r, cfg.K, tp.theta,
                           derived_rng(seed, "labels"), root_u)
        side_out[sub.new_to_old] = out.sign
        mag_out[sub.new_to_old] = out.magnetization
        diag.coin_labels = int(out.coin.sum())
        diag.zero_roots = int(out.zero_root.sum())
        diag.empty_spheres = int(out.no_walk.sum())
        diag.rounding_zeros = out.rounding_zeros
        # vertices within distance R - 1 of the anchor's neighbours in h
        near = np.zeros(h.n, dtype=bool)
        mapped = sub.old_to_new[g.neighbors(u_star)]
        near[mapped[mapped >= 0]] = True
        for _ in range(r - 1):
            near[h.indices[np.repeat(near, h.degrees)]] = True
        diag.u_star_ball_violations = int(near.sum())
        lap("roots")

    def read_h() -> int:
        """What reads H alone: the exact pairing check and the non-tree sample."""
        _check_pairs(h)
        return _nontree_estimate(h, r, derived_rng(seed, "nontree-sample"))

    if r == 1:  # no pair layout to check and no walk tree revisits
        edge_passes()
    else:
        diag.nontree_neighborhoods = _beside(edge_passes, read_h)[1]
    lap("nontree")

    coins = derived_rng(seed, "hold-out-coins").random(len(hold_out))
    side_out[hold_out] = np.where(coins < 0.5, 1, -1)
    diag.coin_labels += len(hold_out)

    report = overlap(Partition(side=side_out), g.labels)
    lap("coins")
    return RecoveryResult(
        side=side_out,
        magnetization=mag_out,
        report=report,
        diagnostics=diag,
        seconds=time.perf_counter() - t0,
        stage_seconds=stage,
    )
