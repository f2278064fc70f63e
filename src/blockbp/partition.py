"""Black-box initial partitioners and accuracy accounting.

Two interchangeable implementations of the "rough partition" contract (a
two-way split whose error fraction is bounded away from 1/2):

* "spectral": the Bethe Hessian H(r) = (r^2 - 1) I - r A + D with
  r^2 = E[deg^2] / E[deg] - 1 (Saade, Krzakala and Zdeborova 2014), split by
  the sign of the eigenvector of its negative community eigenvalue, which
  exists down to the Kesten-Stigum threshold.  Needs no model parameters, and
  reports (``Partition.informative``) when it finds no signal.  It is the
  end-to-end default.
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

    ``informative`` is false when the spectral black box found no community
    eigenvalue and returned a coin-flip split.
    """

    side: np.ndarray
    informative: bool = True

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


# ARPACK stopping rule for the Bethe-Hessian solves: an informative eigenvalue
# converges in under 100 matvecs at n = 2e5, and the restart cap stops one at
# the bulk edge after about 200 instead of thousands.
_EIG_TOL = 1e-3
_EIG_MAXITER = 10


def _bethe_hessian_split(g: LabelledGraph, rng: np.random.Generator) -> Partition:
    """Signs of the eigenvector of H(+r)'s second or else H(-r)'s smallest
    eigenvalue, whichever is negative first; the start vector's if neither is."""
    # imported here: scipy.sparse.linalg adds about 0.1 s to `import blockbp`
    from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

    v0 = rng.standard_normal(g.n)
    deg = g.degrees
    r2 = float(deg @ deg / deg.sum()) - 1.0 if g.m else 0.0
    # single precision is ample for tol = 1e-3; in double, ARPACK's two n x 20
    # work arrays (64 MB at n = 2e5) would be recover's largest live allocation
    a = sp.csr_matrix((np.ones(len(g.indices), np.float32), g.indices, g.indptr),
                      shape=(g.n, g.n))
    diag = (deg + (r2 - 1.0)).astype(np.float32)
    # r^2 <= max degree - 1 <= n - 2, so r^2 > 1 also gives n > k
    for r, k in ((r2 ** 0.5, 2), (-(r2 ** 0.5), 1)) if r2 > 1.0 else ():
        h = LinearOperator((g.n, g.n), matvec=lambda x, r=r: diag * x - r * (a @ x),
                           dtype=np.float32)
        try:
            vals, vecs = eigsh(h, k=k, which="SA", v0=v0, tol=_EIG_TOL,
                               maxiter=_EIG_MAXITER)
        except ArpackError:  # ArpackNoConvergence included
            continue
        if vals.max() < 0.0:  # the k-th smallest eigenvalue
            return Partition(side=np.where(vecs[:, vals.argmax()] >= 0.0, 1, -1).astype(np.int8))
    warnings.warn("spectral black box found no negative Bethe-Hessian eigenvalue; "
                  "returning a random split", RuntimeWarning, stacklevel=3)
    return Partition(side=np.where(v0 >= 0.0, 1, -1).astype(np.int8), informative=False)


def blackbox_partition(g: LabelledGraph, impl: str = "spectral", seed=0,
                       delta0: float | None = None) -> Partition:
    """Produce a rough two-way split of g's vertices.

    "spectral" reads only the graph structure; "oracle-noise" reads the
    hidden labels and flips each with probability delta0 (harness use only).
    Deterministic given the seed.  A spectral run that finds no informative
    eigenvalue warns (RuntimeWarning) and returns a coin-flip split with
    ``informative`` false.
    """
    if g.n == 0:
        raise ValueError("cannot partition an empty graph")
    _check_blackbox(impl, delta0)
    rng = as_generator(seed)
    if impl == "spectral":
        return _bethe_hessian_split(g, rng)
    flips = rng.random(g.n) < delta0
    return Partition(side=np.where(flips, -g.labels, g.labels).astype(np.int8))


def _check_blackbox(impl: str, delta0: float | None) -> None:
    if impl not in ("spectral", "oracle-noise"):
        raise ValueError(f"unknown partitioner {impl!r}")
    if impl == "oracle-noise" and (delta0 is None or not 0.0 <= delta0 < 0.5):
        raise ValueError(f"oracle-noise needs delta0 in [0, 1/2), not {delta0!r}")


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
