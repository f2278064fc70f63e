"""Parameter algebra for the two-class sparse graph model and its tree limit.

A graph instance is described by ``(n, a, b)``: within-class pairs are linked
with probability ``a/n``, between-class pairs with ``b/n``.  Neighborhoods of
such a graph look like Poisson branching trees with mean offspring
``d = (a+b)/2`` carrying a two-state spin channel with flip probability
``eta = b/(a+b)``; the channel strength is ``theta = 1 - 2*eta``.  Everything
downstream speaks in terms of these derived tree parameters, so the
conversions (and the signal statistic ``theta^2 * d``) live here and nowhere
else.  So does the package's one rule for an integer or a number argument:
``_integer`` takes an int or a numpy integer and ``_real`` a finite real,
neither takes a bool, and each error names the argument.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

__all__ = [
    "ModelParams",
    "TreeParams",
    "derive_tree_params",
    "ks_signal",
]


def _integer(name: str, value, low: int | None = None) -> int:
    """``value`` as an int, at least ``low`` when one is given: an int or a
    numpy integer, not a bool or a float."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name!r} must be an integer, not {value!r}")
    if low is not None and value < low:
        raise ValueError(f"{name!r} must be >= {low}, not {int(value)}")
    return int(value)


def _real(name: str, value) -> float:
    """``value`` as a float: a finite real number, not a bool, a string or None."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise ValueError(f"{name!r} must be a finite number, not {value!r}")
    return float(value)


@dataclass(frozen=True)
class ModelParams:
    """Graph-side parameters: vertex count and the two edge intensities."""

    n: int
    a: float
    b: float

    def __post_init__(self):
        _integer("n", self.n, low=1)
        if min(_real("a", self.a), _real("b", self.b)) < 0:
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


@dataclass(frozen=True)
class TreeParams:
    """Tree-side parameters: mean offspring and flip probability."""

    d: float
    eta: float

    def __post_init__(self):
        if not 0 < _real("d", self.d):
            raise ValueError(f"mean offspring d must be positive and finite, not {self.d!r}")
        if not 0.0 <= _real("eta", self.eta) <= 1.0 or self.eta == 0.5:
            raise ValueError("eta must lie in [0, 1] with eta != 1/2")

    @property
    def theta(self) -> float:
        """The channel strength 1 - 2*eta."""
        return 1.0 - 2.0 * self.eta

    @property
    def signal(self) -> float:
        """The reconstruction signal theta^2 * d."""
        return self.theta * self.theta * self.d


def derive_tree_params(m: ModelParams) -> TreeParams:
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
    return TreeParams(d=s / 2.0, eta=eta)


def ks_signal(m: ModelParams) -> float:
    """(a-b)^2 / (2(a+b)); reconstruction beyond chance is possible iff > 1."""
    s = m.a + m.b
    if s <= 0:
        raise ValueError("a + b must be positive")
    return (m.a - m.b) ** 2 / (2.0 * s)
