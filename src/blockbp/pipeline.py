"""Graph recovery by per-vertex neighborhood hold-out and boundary BP.

For each vertex v, the idea is: hide v's neighborhood, run a rough black-box
partitioner on the rest of the graph, read the inferred sides on the sphere
S(v, R) as noisy leaf observations, and recover v's label by robust tree
reconstruction on the BFS tree of B(v, R).  Because the black box is only
defined up to a global label flip, all runs are aligned through one held-out
high-degree anchor vertex u*: with a > b the anchor should see most of its
neighbors on its own side (rule reversed when a < b).

Label computation is two-stage, mirroring the fact that the boundary noise
level is unknown: first, every u in S(v, R-K) gets a hard +-1 vote, the sign
of the conductance-weighted sum of the observations in its depth-K subtree;
then exact BP runs on those signs from level R-K up to v.  K = 0 degenerates
to BP straight on the sphere observations.

The default "batch" variant runs the black box once on G minus the hold-out
set U and shares the partition across all vertices (inner balls are excluded
only from the observation read-off).  batch=1 reruns the black box per
vertex on G \\ B(v, R-1) \\ U, the literal per-vertex hold-out; batch=j > 1
shares one run per chunk of j vertices, with the union of the chunk's inner
balls removed.  Held-out vertices in U are labelled by fair coins at the end.

Neighborhoods are taken in the graph with U removed: U gets no inferred
sides, takes no part in the boundary observations, and is coin-labelled
anyway, so paths through it carry nothing the estimator could use.

The per-vertex computations share one partition, so they run batched:
``randgraph.ball_batches`` cuts the vertices into chunks that fit its fixed
budget of gathered neighbour slots and builds the balls of a whole chunk as
flat per-level arrays tagged by the owning centre, and the conductance-up,
current-down, hard-vote and BP-up passes each run once per level across the
chunk.  The output does not depend on the chunking: it is bit-identical to
labelling one vertex at a time.  Coins come from two streams.  The
``"labels"`` stream holds the coins whose number is known before BP (empty
or unobserved spheres, vote ties), drawn in centre order; a root that comes
out exactly 0 reads its vertex's entry of one array of uniforms from the
``"zero-roots"`` stream, drawn once per run (see ``_label_balls``).  The
``nontree`` count (``Balls.nontree``) counts the balls with an induced edge
outside the BFS tree, sphere-sphere edges included.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import asdict, dataclass, field
from typing import NamedTuple

import numpy as np

from .levels import _terminal_conductance, bp_up, conductance_up, current_down
from .params import ModelParams, derive_tree_params, ks_signal
from .partition import Partition, OverlapReport, blackbox_partition, overlap
from .randgraph import Balls, LabelledGraph, _owner_cut, _run_sums, ball_batches, remove_set
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


@dataclass(frozen=True)
class AlgoConfig:
    """Knobs of the recovery algorithm.

    R_mode "auto" picks the largest R in [1, 6] with (mean degree)^R at most
    n^(1/8), keeping balls small (the theory's floor(log n / (20(a+b))) is 0
    for every n below e^(20(a+b))) and takes no ``R``; "fixed" takes ``R`` as
    given.  K is the
    depth of the hard-vote stage, 0 <= K <= R.  ``batch`` None shares one
    black-box run across all vertices; an integer j reruns it per chunk of j
    vertices with the chunk's inner balls held out (j = 1 is the literal
    per-vertex variant).
    ``weights_delta`` sets terminal resistors for the hard-vote weights; the
    boundary noise level is normally unknown, so the default uses none.
    """

    R: int | None = None
    R_mode: str = "auto"  # "auto" | "fixed"
    K: int = 1
    u_size: int | None = None
    batch: int | None = None
    weights_delta: float | None = None

    def __post_init__(self):
        if self.R_mode not in ("auto", "fixed"):
            raise ValueError("R_mode must be auto or fixed")
        if self.R_mode == "fixed" and (self.R is None or self.R < 1):
            raise ValueError("fixed R_mode needs R >= 1")
        if self.R_mode == "auto" and self.R is not None:
            raise ValueError("R is ignored under R_mode auto; pass R_mode='fixed'")
        if self.K < 0:
            raise ValueError("K must be nonnegative")
        if self.batch is not None and self.batch < 1:
            raise ValueError("batch must be None or >= 1")
        _terminal_conductance(self.weights_delta)  # rejects delta outside [0, 1/2)


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


class _BallLabels(NamedTuple):
    """Per-centre outputs of ``_label_balls``, indexed like ``Balls.centres``."""

    sign: np.ndarray           # int8 +-1
    magnetization: np.ndarray  # float64, 0 where a coin decided
    coin: np.ndarray
    zero_root: np.ndarray      # the coin decided because the root came out exactly 0
    empty_sphere: np.ndarray
    missing_obs: np.ndarray
    watch_hit: np.ndarray


def _label_balls(balls: Balls, xi_side: np.ndarray, big_k: int, theta: float,
                 weights_delta, clamp: float, rng, zero_u: np.ndarray,
                 watch=None) -> _BallLabels:
    """Two-stage root values of every ball in the batch, level by level.

    ``xi_side`` gives each vertex's +-1 side (0 = none); it is read on the
    sphere only.  Hard votes at level R-K come from the conductance weights
    of their depth-K subtrees, then BP runs up to the centres (K = 0: BP
    straight on the sphere observations).

    Coins come from ``rng`` in centre order, exactly as labelling one centre
    at a time would draw them: one uniform for an empty sphere or a sphere
    without observations, otherwise one per vote tie in level position order.
    Their number is known before BP, so the batch draws them in one call and
    hands them out by offset.  A root that comes out exactly 0 takes its coin
    from ``zero_u``, one uniform per vertex id, so it depends only on the
    centre and not on the batch.
    """
    r = balls.radius
    c = len(balls.centres)
    level, owner, parent_pos = balls.vertex, balls.owner, balls.parent_pos
    sizes = [len(ids) for ids in level]
    xi = xi_side[level[r]].astype(np.float64)
    observed = xi != 0.0
    cut = _owner_cut(owner[r], c)
    on_sphere = np.diff(cut)
    seen = _run_sums(observed, cut)
    regular = seen > 0
    watch_hit = np.zeros(c, dtype=bool)
    if watch is not None:
        for j in range(r):
            watch_hit[owner[j][watch[level[j]]]] = True

    if big_k > 0:
        j0 = r - big_k
        # conductance up from the terminals, unit current down from level j0
        z = np.where(observed, _terminal_conductance(weights_delta), 0.0)
        zs, cs = conductance_up(z, parent_pos[j0:], sizes[j0:], theta)
        cur, anc = current_down(zs, cs, parent_pos[j0:])
        w = cur * theta ** (-big_k)
        sums = np.bincount(anc, weights=w * xi, minlength=sizes[j0])
        votes = np.sign(sums)
        ties = np.flatnonzero((sums == 0.0) & regular[owner[j0]])
    else:
        j0 = r
        votes = xi
        ties = np.empty(0, dtype=np.int64)
    tie_own = owner[j0][ties]
    tie_cut = _owner_cut(tie_own, c)
    n_ties = np.diff(tie_cut)
    tie_rank = np.arange(len(ties), dtype=np.int64) - tie_cut[tie_own]
    fixed = (~regular).astype(np.int64) + n_ties

    first = np.cumsum(fixed) - fixed
    u = rng.random(int(fixed.sum()))
    votes[ties] = np.where(u[first[tie_own] + tie_rank] < 0.5, 1.0, -1.0)
    vals = bp_up(votes, parent_pos[: j0 + 1], sizes, theta, clamp)
    zero = regular & (vals == 0.0)
    coin = ~regular | zero
    sign = np.where(vals > 0, 1, -1).astype(np.int8)
    sign[~regular] = np.where(u[first[~regular]] < 0.5, 1, -1)
    sign[zero] = np.where(zero_u[balls.centres[zero]] < 0.5, 1, -1)
    return _BallLabels(sign=sign, magnetization=np.where(coin, 0.0, vals), coin=coin,
                       zero_root=zero, empty_sphere=on_sphere == 0,
                       missing_obs=on_sphere - seen, watch_hit=watch_hit)


@dataclass
class RecoveryDiagnostics:
    """Counts a recovery run keeps about itself.

    ``coin_labels`` counts every coin-decided label; ``zero_roots`` is the
    part of it decided because the root value came out exactly 0.
    ``blackbox_informative`` is false if any black-box run found no
    community eigenvalue and returned a coin-flip split.
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
    missing_observations: int = 0
    u_star_ball_violations: int = 0
    blackbox_runs: int = 0
    blackbox_informative: bool = True


STAGES = ("holdout", "blackbox", "align", "balls", "roots", "coins")
"""Stages of ``recover`` timed in ``RecoveryResult.stage_seconds``: the
hold-out set, anchor and subgraphs; the black-box runs; anchor alignment;
ball construction with the non-tree check; the root passes with their vote
coins; the hold-out coins and the overlap report."""


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

    u_size = cfg.u_size if cfg.u_size is not None else int(math.isqrt(g.n))
    u_size = max(1, min(u_size, g.n - 1))
    hold_out = np.sort(
        derived_rng(seed, "hold-out").choice(g.n, size=u_size, replace=False)
    ).astype(np.int64)

    u_star, fallback = choose_anchor(g, hold_out, derived_rng(seed, "anchor"))
    diag.u_star = u_star
    diag.u_star_fallback = fallback

    sub = remove_set(g, hold_out)
    h = sub.graph
    rng_label = derived_rng(seed, "labels")
    # the coin of an exact-0 root, keyed by vertex; read on h's ids
    zero_u = derived_rng(seed, "zero-roots").random(g.n)[sub.new_to_old]

    ustar_nbr_mask = np.zeros(h.n, dtype=bool)
    mapped = sub.old_to_new[g.neighbors(u_star)]
    ustar_nbr_mask[mapped[mapped >= 0]] = True

    side_out = np.zeros(g.n, dtype=np.int8)
    mag_out = np.zeros(g.n, dtype=np.float64)
    lap("holdout")

    def run_blackbox(graph: LabelledGraph, tag: int) -> Partition:
        part = blackbox_partition(graph, impl=impl,
                                  seed=derived_rng(seed, "bb", tag), delta0=delta0)
        diag.blackbox_runs += 1
        diag.blackbox_informative &= part.informative
        lap("blackbox")
        return part

    def align(part: Partition, old_to_new: np.ndarray) -> Partition:
        aligned, info = align_partition(part, g, u_star, params.a, params.b,
                                        old_to_new=old_to_new)
        diag.align_ties += info.tie
        diag.align_swaps += info.swapped
        return aligned

    def label(xi_side_h: np.ndarray, vertices_h: np.ndarray) -> None:
        for balls in ball_batches(h, vertices_h, r):
            nontree = balls.nontree(h)
            lap("balls")
            out = _label_balls(balls, xi_side_h, cfg.K, tp.theta, cfg.weights_delta,
                               _CLAMP, rng_label, zero_u, watch=ustar_nbr_mask)
            orig = sub.new_to_old[balls.centres]
            side_out[orig] = out.sign
            mag_out[orig] = out.magnetization
            diag.coin_labels += int(out.coin.sum())
            diag.zero_roots += int(out.zero_root.sum())
            diag.empty_spheres += int(out.empty_sphere.sum())
            diag.nontree_neighborhoods += int(nontree.sum())
            diag.missing_observations += int(out.missing_obs.sum())
            diag.u_star_ball_violations += int(out.watch_hit.sum())
            lap("roots")

    all_h = np.arange(h.n, dtype=np.int64)
    if cfg.batch is None:
        aligned = align(run_blackbox(h, 0), sub.old_to_new)
        lap("align")
        label(aligned.side, all_h)
    else:
        for start in range(0, h.n, cfg.batch):
            chunk = all_h[start : start + cfg.batch]
            ball_mask = np.zeros(h.n, dtype=bool)
            for balls in ball_batches(h, chunk, r - 1):
                ball_mask[balls.ball] = True
            lap("balls")
            inner = remove_set(h, np.flatnonzero(ball_mask))
            lap("holdout")
            part = run_blackbox(inner.graph, int(chunk[0]) + 1)
            # g-ids -> inner ids, for anchor alignment
            comp = np.full(h.n, -1, dtype=np.int64)
            comp[inner.new_to_old] = np.arange(inner.graph.n, dtype=np.int64)
            old_to_inner = np.full(g.n, -1, dtype=np.int64)
            kept = np.flatnonzero(sub.old_to_new >= 0)
            old_to_inner[kept] = comp[sub.old_to_new[kept]]
            aligned = align(part, old_to_inner)
            # sides on h-ids; vertices inside the removed balls have none
            xi_side_h = np.zeros(h.n, dtype=np.int8)
            ok = comp >= 0
            xi_side_h[ok] = aligned.side[comp[ok]]
            lap("align")
            label(xi_side_h, chunk)

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
