"""Parameter algebra for the two-class sparse graph model and its tree limit.

A graph instance is described by ``(n, a, b)``: within-class pairs are linked
with probability ``a/n``, between-class pairs with ``b/n``.  Neighborhoods of
such a graph look like Poisson branching trees with mean offspring
``d = (a+b)/2`` carrying a two-state spin channel with flip probability
``eta = b/(a+b)``; the channel strength is ``theta = 1 - 2*eta``.  Everything
downstream speaks in terms of these derived tree parameters, so the
conversions (and the signal statistic ``theta^2 * d``) live here and nowhere
else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "ModelParams",
    "TreeParams",
    "derive_tree_params",
    "ks_signal",
    "model_from_tree",
]


@dataclass(frozen=True)
class ModelParams:
    """Graph-side parameters: vertex count and the two edge intensities."""

    n: int
    a: float
    b: float

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be a positive integer")
        if self.a < 0 or self.b < 0:
            raise ValueError("edge intensities must be nonnegative")
        if self.a > self.n or self.b > self.n:
            raise ValueError(
                f"invalid edge probability: a/n={self.a / self.n:g}, "
                f"b/n={self.b / self.n:g} must not exceed 1"
            )

    @property
    def p_within(self) -> float:
        return self.a / self.n

    @property
    def p_between(self) -> float:
        return self.b / self.n

    @property
    def mean_degree(self) -> float:
        return (self.a + self.b) / 2.0


@dataclass(frozen=True)
class TreeParams:
    """Tree-side parameters: mean offspring, flip probability, leaf noise.

    ``theta`` is stored redundantly with ``eta`` and is required to equal
    ``1 - 2*eta`` exactly; the constructor enforces this.
    """

    d: float
    eta: float
    theta: float
    delta: float = 0.0

    def __post_init__(self):
        if self.d <= 0:
            raise ValueError("mean offspring d must be positive")
        if not 0.0 <= self.eta <= 1.0 or self.eta == 0.5:
            raise ValueError("eta must lie in [0, 1] with eta != 1/2")
        if self.theta != 1.0 - 2.0 * self.eta:
            raise ValueError("theta must equal 1 - 2*eta exactly")
        if not 0.0 <= self.delta < 0.5:
            raise ValueError("leaf noise delta must lie in [0, 1/2)")

    @property
    def signal(self) -> float:
        """The reconstruction signal theta^2 * d."""
        return self.theta * self.theta * self.d


def derive_tree_params(m: ModelParams, delta: float = 0.0) -> TreeParams:
    """Tree parameters of the local neighborhood limit of ``m``.

    d = (a+b)/2, eta = b/(a+b), theta = (a-b)/(a+b).  Rejects ``a == b``,
    which has theta = 0 and carries no signal; where b/(a+b) rounds to 1/2
    with a != b, eta is the next float off 1/2 on b's side.
    """
    if m.a == m.b:
        raise ValueError("degenerate signal: a == b gives theta = 0")
    s = m.a + m.b
    if s <= 0:
        raise ValueError("a + b must be positive")
    eta = m.b / s if m.b / s != 0.5 else math.nextafter(0.5, float(m.b > m.a))
    return TreeParams(d=s / 2.0, eta=eta, theta=1.0 - 2.0 * eta, delta=delta)


def ks_signal(m: ModelParams) -> float:
    """(a-b)^2 / (2(a+b)); reconstruction beyond chance is possible iff > 1."""
    s = m.a + m.b
    if s <= 0:
        raise ValueError("a + b must be positive")
    return (m.a - m.b) ** 2 / (2.0 * s)


def model_from_tree(t: TreeParams, n: int) -> ModelParams:
    """Inverse map: a = d(1+theta), b = d(1-theta)."""
    return ModelParams(n=n, a=t.d * (1.0 + t.theta), b=t.d * (1.0 - t.theta))
