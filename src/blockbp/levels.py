"""The three tree passes, written once over per-level parent positions.

Every tree in the package is stored as the same level lists: level j holds
``sizes[j]`` nodes, and ``parent_pos[j]`` (j >= 1) gives, for each level-j
node, the position of its parent within level j - 1 (entry 0 is ignored).
``broadcast.BroadcastTree`` (one tree, or a forest of ``popdyn`` trials)
stores them.  A pass over a slice of the lists treats the slice's first
level as its roots.  The edge transforms are shared with the passes that
need no lists: ``pipeline._label_edges`` runs the BP combine on directed
edges with ``_edge_llr`` and ``_magnetize``, and the ``popdyn`` population
chains apply ``_edge_llr`` or ``_compose_through_edge`` to their pool and
sum each new member's children with a generation's sparse operator, a row
block at a time.  Every BP value is clipped to |x| <= 1 - ``_CLAMP``, and
the rules on theta and the leaf noise level are checked here too, once.

- ``bp_up``: the magnetization recursion, last level to level 0;
- ``conductance_up``: the series-parallel reduction of the resistor network
  whose terminals sit on the last level;
- ``current_down``: the unit current from each level-0 node, split at every
  node in proportion to the branch conductances, down to the last level.
"""

from __future__ import annotations

import numbers

import numpy as np

_CLAMP = 1e-12  # every BP value is clipped to |x| <= 1 - _CLAMP, read at call time


def _check_theta(theta: float) -> None:
    if not -1.0 <= theta <= 1.0:
        raise ValueError(f"theta must lie in [-1, 1], not {theta!r}")


def _check_conductance_theta(theta: float) -> None:
    if not -1.0 < theta < 1.0 or theta == 0.0:
        raise ValueError(f"conductance needs 0 < |theta| < 1, not {theta!r}")


def _check_delta(delta: float, name: str = "delta") -> None:
    """The one check of a noise level: a real number in [0, 1/2), 0 meaning no
    noise (None and bools are refused); an error names the value ``name``."""
    if (isinstance(delta, bool) or not isinstance(delta, numbers.Real)
            or not 0.0 <= delta < 0.5):
        raise ValueError(f"{name} must lie in [0, 1/2), not {delta!r}")


def _edge_llr(msgs: np.ndarray, theta: float, out: np.ndarray | None = None) -> np.ndarray:
    """Child magnetizations as parent LLR terms; odd in msgs (symmetric clip).
    With ``out`` (which may be ``msgs`` itself) the terms are written there."""
    lim = 1.0 - _CLAMP
    x = np.multiply(theta, msgs, out=out)
    np.clip(x, -lim, lim, out=x)
    return np.arctanh(x, out=x)


def _magnetize(sums: np.ndarray) -> np.ndarray:
    """tanh(sums) clipped to |x| <= 1 - _CLAMP, in place on a float64 array
    (an integer one, such as an empty level's bincount, is copied)."""
    lim = 1.0 - _CLAMP
    m = np.asarray(sums, dtype=np.float64)
    return np.clip(np.tanh(m, out=m), -lim, lim, out=m)


def _combine_levels(msgs: np.ndarray, parent_pos: np.ndarray, n_parents: int,
                    theta: float) -> np.ndarray:
    """One BP level: child magnetizations -> parents (parent_pos[i] is child i's).

    A parent without children reads 0.
    """
    return _magnetize(np.bincount(parent_pos, weights=_edge_llr(msgs, theta),
                                  minlength=n_parents))


def _compose_through_edge(z: np.ndarray, theta: float) -> np.ndarray:
    """Series composition of a subtree conductance with its parent edge.

    In subtree-local units the parent edge has resistance (1-theta^2)/theta^2,
    so the composed conductance is theta^2 * z / ((1-theta^2) z + 1), handled
    in the reciprocal form to keep z = inf (a terminal) and z = 0 (extinct)
    exact without special cases: 1/z is 0 and inf there.
    """
    t2 = theta * theta
    with np.errstate(divide="ignore"):
        inv = np.divide(1.0, z)
    inv += 1.0 - t2
    return np.divide(t2, inv, out=inv)


def _terminal_conductance(delta: float = 0.0) -> float:
    """Level-local conductance of the noisy terminal resistor (inf at delta 0)."""
    _check_delta(delta)
    if delta == 0.0:
        return np.inf
    return (1.0 - 2.0 * delta) ** 2 / (4.0 * delta * (1.0 - delta))


def bp_up(values: np.ndarray, parent_pos: list, sizes, theta: float) -> np.ndarray:
    """Magnetizations of level 0 from ``values`` on the last level."""
    for j in range(len(parent_pos) - 1, 0, -1):
        values = _combine_levels(values, parent_pos[j], sizes[j - 1], theta)
    return values


def conductance_up(z: np.ndarray, parent_pos: list, sizes, theta: float):
    """Series-parallel reduction from terminal conductances ``z`` on the last level.

    Returns (zs, cs): zs[j] is the subtree conductance of each level-j node
    in its level's local units, so zs[0] holds the roots' effective
    conductances; cs[j] (j >= 1) is zs[j] composed through the edge to the
    parent, in the parent's units (cs[0] is None).  Siblings add, and a
    node without children reads 0, an empty level included.
    """
    last = len(parent_pos) - 1
    zs: list = [None] * (last + 1)
    cs: list = [None] * (last + 1)
    zs[last] = z
    for j in range(last, 0, -1):
        cs[j] = _compose_through_edge(zs[j], theta)
        # an empty level would give bincount's integer zeros
        zs[j - 1] = np.bincount(parent_pos[j], weights=cs[j],
                                minlength=sizes[j - 1]).astype(float, copy=False)
    return zs, cs


def current_down(zs: list, cs: list, parent_pos: list):
    """Unit current into each level-0 node, split down to the last level.

    At every node the current divides in proportion to the children's
    composed conductances from ``conductance_up``; a node of conductance 0
    passes nothing on.  Returns (current, root) on the last level: each
    node's current and the position of its level-0 ancestor (for a two-level
    slice, ``root`` is ``parent_pos[1]`` itself).
    """
    cur = np.ones(len(zs[0]))
    root = np.arange(len(zs[0]), dtype=np.int64)
    for j in range(1, len(parent_pos)):
        pp = parent_pos[j]
        zpar = zs[j - 1][pp]
        frac = np.zeros(len(pp))
        np.divide(cs[j], zpar, out=frac, where=zpar > 0)
        if j == 1:  # level 0 carries unit currents and is its own root
            cur, root = frac, pp
        else:
            cur, root = np.multiply(cur[pp], frac, out=frac), root[pp]
    return cur, root
