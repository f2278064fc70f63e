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
labels every vertex at once by messages on the directed edges of H, with
coins keyed by directed edge and by vertex rather than drawn in order.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import asdict, dataclass, field
from typing import NamedTuple

import numpy as np

from .levels import _compose_through_edge, _edge_llr
from .params import ModelParams, derive_tree_params, ks_signal
from .partition import Partition, OverlapReport, blackbox_partition, overlap
from .randgraph import LabelledGraph, extract_neighborhood, remove_set
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

# Clamp of the BP level combine in the root passes: |x| <= 1 - _CLAMP.
_CLAMP = 1e-12

# A sum of the edge passes is 0 when |sum| <= _TIE_ULPS * eps * (sum of |terms|).
_TIE_ULPS = 4096

# Centres of the sample that ``nontree_neighborhoods`` is estimated from.
_NONTREE_SAMPLE = 500


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


def choose_anchor(g: LabelledGraph, hold_out, rng, min_degree: int | None = None):
    """Uniformly random hold-out vertex with enough neighbors outside the hold-out.

    Falls back to the maximum out-degree hold-out vertex (smallest id on
    ties) when none qualifies; the fallback is reported so runs can be
    audited.  Returns (u_star, fallback_used).
    """
    hold_out = np.asarray(hold_out, dtype=np.int64)
    if hold_out.size == 0:
        raise ValueError("hold-out set is empty")
    if min_degree is None:
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
    n_plus: int
    n_minus: int


def align_partition(p: Partition, g: LabelledGraph, u_star: int, a: float,
                    b: float, old_to_new=None) -> tuple[Partition, AlignInfo]:
    """Relabel the partition so the anchor's neighbor count points the right way.

    With a > b the anchor should have more neighbors on the + side; with
    a < b the rule reverses.  A tie leaves the partition unchanged and is
    flagged.  ``old_to_new`` maps g's vertex ids into p's domain (identity
    when None; -1 marks vertices absent from the domain).
    """
    nbrs = g.neighbors(u_star)
    if old_to_new is not None:
        mapped = old_to_new[nbrs]
        mapped = mapped[mapped >= 0]
    else:
        mapped = nbrs
    sides = p.side[mapped]
    n_plus = int((sides == 1).sum())
    n_minus = int((sides == -1).sum())
    if n_plus == n_minus:
        return p, AlignInfo(swapped=False, tie=True, n_plus=n_plus, n_minus=n_minus)
    swapped = (n_plus > n_minus) != (a > b)
    return (p.flipped() if swapped else p), AlignInfo(
        swapped=swapped, tie=False, n_plus=n_plus, n_minus=n_minus
    )


class _Labels(NamedTuple):
    """Per-vertex outputs of ``_label_edges``, indexed by H's vertex ids."""

    sign: np.ndarray           # int8 +-1
    magnetization: np.ndarray  # float64, 0 where a coin decided
    coin: np.ndarray
    zero_root: np.ndarray      # the coin decided because the root value is 0
    no_walk: np.ndarray        # no non-backtracking walk of length R
    walks: np.ndarray          # nodes of the depth-R walk tree, exact while <= n


def _label_edges(h: LabelledGraph, side: np.ndarray, r: int, big_k: int,
                 theta: float, clamp: float, rng,
                 root_u: np.ndarray) -> _Labels:
    """Two-stage root values of every vertex of H on its depth-R walk tree.

    The walk tree of v hangs, below each child y reached from x, the subtree
    of y's walks that do not step straight back to x, and the same subtree
    hangs below every node that enters y from x.  So a value at height j
    above the leaves is a message y -> x, carried by the CSR slot of row x
    holding neighbour y, and a round computes height j + 1 from height j for
    all slots at once: the row sum of y's incoming messages minus the one
    from x (the cavity step; the reverse slot holds it, found by one
    ``searchsorted`` and stored as int32 while 2m < 2^31, and built at
    R >= 2).  The root is a plain row sum.

    The same rounds count the walk tree's nodes: ``walks`` is 1 plus the
    number of non-backtracking walks of each length 1..R from v, and v has a
    walk of length R (``no_walk`` is false) when the last of those counts is
    positive.

    ``side`` is every vertex's +-1 side.  Heights up to K carry the vote:
    at K = 1 the vote is the sign of the integer sum of the children's sides,
    a tie when that sum is 0.  At K >= 2 a message carries the branch
    conductance c and the current-weighted average U of the sides below
    (U = side at the leaves, U = sum c_i U_i / sum c_i over the children),
    and sign(sum c_i U_i) is the conductance-weighted vote; a noiseless leaf's
    c is its edge's alone, theta^2 / (1 - theta^2).  K = 0 passes the sides
    as they are.  Then R - K - 1 rounds of the BP level combine and one root
    sum.

    An exact cancellation in floating point often leaves a residue whose
    sign would decide the label.  So every float sum here (the K >= 2 votes,
    each BP cavity sum and the root sum) counts as 0 when its magnitude is
    at most c * eps * S, with c = ``_TIE_ULPS`` = 4096, eps the float64
    machine epsilon and S the sum of the magnitudes of the terms of the whole
    row; for a cavity sum that includes the parent's own term, which bounds
    the rounding of the subtraction.  A vote of sum 0 is a tie, and a BP sum
    of 0 gives the message 0.

    A vote tie below the root (R > K >= 1) takes the coin of its slot from
    one uniform per slot drawn from ``rng``; a root-level coin takes the
    vertex's entry of ``root_u``.
    """
    n, nbr = h.n, h.indices
    row = np.repeat(np.arange(n, dtype=np.int64), h.degrees)
    rev = None  # per slot (x, y), the slot (y, x): slots sort by the key x*n + y
    if r >= 2:
        rev = np.searchsorted(row * n + nbr, nbr * n + row)
        rev = rev.astype(np.int32) if len(rev) < 2 ** 31 else rev
    xi = side.astype(np.float64)
    lim = 1.0 - clamp
    tol = _TIE_ULPS * np.finfo(np.float64).eps

    def row_sums(w):
        return np.bincount(row, weights=w, minlength=n)

    def zero_ties(s, scale):
        """``s`` with the sums within rounding of 0 set to 0."""
        s[np.abs(s) <= tol * scale] = 0.0
        return s

    def cavity(w):
        """Per slot (x, y): the sum of ``w`` over y's row less x's own term
        ``w[rev]``; 0 within rounding."""
        buf = np.abs(w)
        scale = row_sums(buf)
        s = row_sums(w)[nbr]
        np.take(w, rev, out=buf)
        s -= buf
        np.abs(s, out=buf)
        s[buf <= tol * scale[nbr]] = 0.0
        return s

    def walk_counts():
        """Per vertex, the walk tree's nodes and whether a walk of length R exists.

        Per slot (x, y) the count of walks of length j that start x -> y is
        1 at j = 1, then the row sum of y's counts less the one back to x,
        capped at n.  A count above n already makes walks > n >= |B(v, R)|
        and the walk of length R certain, so the cap changes neither use.
        Each count is an integer <= n, and a float64 sum of them is exact
        while it stays below 2^53; past that it stays far above n.  The slot
        counts are freed before the passes run.
        """
        walks, per_vertex = 1.0 + h.degrees, h.degrees
        if r >= 2:
            count = np.ones(len(nbr))
        for _ in range(r - 1):
            count = np.minimum(per_vertex[nbr] - count[rev], n, out=count)
            per_vertex = row_sums(count)
            walks += per_vertex
        return walks, per_vertex > 0

    walks, reach = walk_counts()

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
            return zero_ties(row_sums(cu), row_sums(np.abs(cu)))
        return cavity(cu)

    def decided(a):
        """Per-slot votes from their sums; a tie takes its slot's coin."""
        tie = a == 0.0
        np.sign(a, out=a)
        a[tie] = np.where(rng.random(len(nbr))[tie] < 0.5, 1.0, -1.0)
        return a

    if big_k == r:
        val = np.sign(vote_sums())
    else:
        if big_k == 0:
            t = _edge_llr(xi, theta, clamp)[nbr]
        else:
            t = _edge_llr(decided(vote_sums()), theta, clamp)
        for _ in range(big_k + 1, r):
            m = cavity(t)
            t = _edge_llr(np.clip(np.tanh(m, out=m), -lim, lim, out=m), theta, clamp)
        val = np.clip(np.tanh(zero_ties(row_sums(t), row_sums(np.abs(t)))), -lim, lim)

    zero = reach & (val == 0.0)
    coin = ~reach | zero
    sign = np.where(val > 0, 1, -1).astype(np.int8)
    sign[coin] = np.where(root_u[coin] < 0.5, 1, -1)
    return _Labels(sign=sign, magnetization=np.where(coin, 0.0, val), coin=coin,
                   zero_root=zero, no_walk=~reach, walks=walks)


def _nontree_estimate(h: LabelledGraph, r: int, walks: np.ndarray, rng) -> int:
    """Vertices of H whose depth-r walk tree visits a vertex twice, from a sample.

    The vertex images of v's walk tree are exactly B(v, r), so the tree
    visits a vertex twice iff it has more nodes, ``walks[v]`` (from
    ``_label_edges``), than the ball has vertices; that is where the walk
    tree differs from the BFS tree of the ball.  The count is taken on
    min(H.n, ``_NONTREE_SAMPLE``) centres drawn from ``rng`` and scaled to
    H.n (rounded), so it is exact when H.n <= ``_NONTREE_SAMPLE``.  It is 0
    at r = 1, where no sample is drawn.
    """
    size = min(h.n, _NONTREE_SAMPLE)
    if r == 1 or size == 0:
        return 0
    centres = np.arange(h.n) if size == h.n else rng.choice(h.n, size, replace=False)
    hits = sum(walks[v] > len(extract_neighborhood(h, int(v), r).ball) for v in centres)
    return int(hits * h.n + size // 2) // size


@dataclass
class RecoveryDiagnostics:
    """Counts a recovery run keeps about itself.

    ``coin_labels`` counts every coin-decided label, hold-out vertices
    included; ``zero_roots`` is the part of it decided because the root
    value is 0 (a root BP value of exactly 0, or a tied root vote at K = R),
    and ``empty_spheres`` the part with no non-backtracking walk of length R.
    ``nontree_neighborhoods`` estimates, from a sample of centres (see
    ``_nontree_estimate``), the vertices whose depth-R walk tree visits a
    vertex twice: it has more nodes than B(v, R) has vertices.
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
    nontree_neighborhoods: int = 0
    u_star_ball_violations: int = 0
    blackbox_informative: bool = True


STAGES = ("holdout", "blackbox", "align", "roots", "balls", "coins")
"""Stages of ``recover`` timed in ``RecoveryResult.stage_seconds``, in run
order: the hold-out set, anchor and subgraph; the black-box run; anchor
alignment; the edge passes with their coins, walk counts and the
anchor-distance count; the BFS ball sizes of the non-tree sample; the
hold-out coins and the overlap report."""


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

    def to_json_dict(self) -> dict:
        return {
            "accuracy": self.report.accuracy,
            "delta_frac": self.report.delta_frac,
            "aligned_sign": self.report.aligned_sign,
            "n": self.report.n,
            "seconds": self.seconds,
            "stage_seconds": dict(self.stage_seconds),
            "diagnostics": asdict(self.diagnostics),
        }


def save_vertex_csv(result: RecoveryResult, path) -> None:
    """Per-vertex dump: "v, assigned_sign, magnetization" per line."""
    with open(path, "w") as fh:
        fh.write("v,assigned_sign,magnetization\n")
        for v, (s, m) in enumerate(zip(result.side, result.magnetization)):
            fh.write(f"{v},{int(s)},{m:.10g}\n")


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

    out = _label_edges(h, aligned.side, r, cfg.K, tp.theta, _CLAMP,
                       derived_rng(seed, "labels"), root_u)
    side_out[sub.new_to_old] = out.sign
    mag_out[sub.new_to_old] = out.magnetization
    diag.coin_labels = int(out.coin.sum())
    diag.zero_roots = int(out.zero_root.sum())
    diag.empty_spheres = int(out.no_walk.sum())
    # vertices within distance R - 1 of the anchor's neighbours in h
    near = np.zeros(h.n, dtype=bool)
    mapped = sub.old_to_new[g.neighbors(u_star)]
    near[mapped[mapped >= 0]] = True
    for _ in range(r - 1):
        near[h.indices[np.repeat(near, h.degrees)]] = True
    diag.u_star_ball_violations = int(near.sum())
    lap("roots")

    diag.nontree_neighborhoods = _nontree_estimate(h, r, out.walks,
                                                   derived_rng(seed, "nontree-sample"))
    lap("balls")

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
