"""Black-box initial partitioners and accuracy accounting.

Two interchangeable implementations of the "rough partition" contract (a
two-way split whose error fraction is bounded away from 1/2):

* "spectral": power iteration on the degree-centered adjacency operator
  A - (dbar/n) J, splitting vertices by the sign of the leading eigenvector.
  Needs no model parameters and is the end-to-end default.
* "oracle-noise": copies the hidden labels and flips each independently with
  probability delta0.  A test-harness implementation: it realizes the
  contract with a known, tunable error rate, so the downstream machinery can
  be validated independently of partitioner quality.

Accuracy bookkeeping follows the symmetric convention: a split is judged up
to a global label flip, and "accuracy" is 1/2 + |correct fraction - 1/2|
(all-wrong scores like all-right, since no algorithm can break the +-
symmetry from the graph alone).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from .randgraph import LabelledGraph
from .seeding import as_generator

__all__ = [
    "Partition",
    "OverlapReport",
    "blackbox_partition",
    "overlap",
    "save_partition",
]


@dataclass(frozen=True)
class Partition:
    """Two-way vertex split as an int8 +-1 side array.

    ``iters`` and ``converged`` record how the spectral black box ended: its
    power-iteration count and whether it stopped before the cap.  Other
    partitions keep the defaults (0, True).
    """

    side: np.ndarray
    iters: int = 0
    converged: bool = True

    def __post_init__(self):
        if self.side.size and not np.all(np.abs(self.side) == 1):
            raise ValueError("partition sides must be +-1")

    @property
    def n(self) -> int:
        return len(self.side)

    def flipped(self) -> "Partition":
        return replace(self, side=(-self.side).astype(np.int8))


@dataclass(frozen=True)
class OverlapReport:
    """Agreement of a partition with the hidden labels, up to relabelling."""

    delta_frac: float    # min over relabelling of the mismatch fraction
    aligned_sign: int    # +1 if the partition as given achieves it, else -1
    accuracy: float      # 1/2 + |correct_frac - 1/2|
    n: int


def _power_iteration_split(g: LabelledGraph, rng: np.random.Generator, iters: int,
                           tol: float) -> tuple[np.ndarray, int, bool, float]:
    """Sign split of the leading eigenvector.

    Returns (side, iterations, converged, unsettled).  Converged means the
    loop stopped before the cap: the direction moved by less than ``tol`` (up
    to sign) or the iterate vanished.  ``unsettled`` is the fraction of
    vertices whose side the last iteration changed, up to a global flip (0
    when converged).
    """
    a = sp.csr_matrix(
        (np.ones(len(g.indices)), g.indices, g.indptr), shape=(g.n, g.n)
    )
    dbar = 2.0 * g.m / g.n
    x = rng.standard_normal(g.n)
    x /= np.linalg.norm(x)
    used, converged, prev = 0, False, x
    for used in range(1, iters + 1):
        y = a @ x - (dbar / g.n) * x.sum()
        norm = np.linalg.norm(y)
        if norm == 0.0:
            converged = True
            break
        y /= norm
        # direction convergence up to sign (the top eigenvalue may be negative)
        if abs(abs(float(y @ x)) - 1.0) < tol:
            x = y
            converged = True
            break
        prev, x = x, y
    side = np.where(x >= 0.0, 1, -1).astype(np.int8)
    unsettled = 0.0
    if not converged:
        changed = float(np.mean((x >= 0.0) != (prev >= 0.0)))
        unsettled = min(changed, 1.0 - changed)
    return side, used, converged, unsettled


# A capped spectral run warns only if its last iteration still moved more than
# this fraction of the vertices across the split.  At n = 2e5, a = 12, b = 3
# capped runs move at most 1e-4 of them and split 0.90 accurately; at
# a = 8, b = 2 the iterate swings between two eigenvectors and moves 0.43.
_UNSETTLED = 0.01


def blackbox_partition(g: LabelledGraph, impl: str = "spectral", seed=0,
                       delta0: float | None = None, iters: int = 200,
                       tol: float = 1e-8) -> Partition:
    """Produce a rough two-way split of g's vertices.

    "spectral" reads only the graph structure; "oracle-noise" reads the
    hidden labels and flips each with probability delta0 (harness use only).
    Deterministic given the seed.  A spectral run that reaches ``iters``
    without converging returns a partition with ``converged`` false; it also
    warns (RuntimeWarning) when the last iteration still moved more than 1 %
    of the vertices across the split, since the returned sides then depend on
    where the loop stopped.
    """
    if g.n == 0:
        raise ValueError("cannot partition an empty graph")
    rng = as_generator(seed)
    if impl == "spectral":
        side, used, converged, unsettled = _power_iteration_split(g, rng, iters, tol)
        if unsettled > _UNSETTLED:
            warnings.warn(
                f"spectral black box stopped at the {iters}-iteration cap with "
                f"{unsettled:.1%} of the vertices still changing side",
                RuntimeWarning, stacklevel=2,
            )
        return Partition(side=side, iters=used, converged=converged)
    if impl == "oracle-noise":
        if delta0 is None or not 0.0 <= delta0 < 0.5:
            raise ValueError("oracle-noise needs delta0 in [0, 1/2)")
        flips = rng.random(g.n) < delta0
        return Partition(side=np.where(flips, -g.labels, g.labels).astype(np.int8))
    raise ValueError(f"unknown partitioner {impl!r}")


def overlap(p: Partition, truth) -> OverlapReport:
    """Compare a partition against true labels, best over global relabelling."""
    truth = np.asarray(truth)
    if truth.shape != p.side.shape:
        raise ValueError("partition and truth cover different vertex sets")
    if p.n == 0:
        raise ValueError("empty partition")
    n = p.n
    # integer arithmetic keeps the report exactly invariant under global flips
    mis = int((p.side != truth).sum())
    return OverlapReport(
        delta_frac=min(mis, n - mis) / n,
        aligned_sign=1 if mis <= n - mis else -1,
        accuracy=0.5 + abs(2 * mis - n) / (2 * n),
        n=n,
    )


def save_partition(p: Partition, path, vertex_ids=None) -> None:
    """Text dump: one "v +1" / "v -1" line per vertex."""
    ids = np.arange(p.n) if vertex_ids is None else np.asarray(vertex_ids)
    with open(path, "w") as fh:
        for v, s in zip(ids, p.side):
            fh.write(f"{v} {'+1' if s > 0 else '-1'}\n")
