"""Reference values and output checks for the blockbp benchmark.

Everything here is derived again from the model, apart from the package: the
benchmark imports nothing from ``blockbp`` into this module, so a fault in the
package cannot hide in its own reference.

* ``depth1_optimum``: the best accuracy with which one vertex's label can be
  read from the true labels of its neighbours in the tree limit,
  p1 = P(A > B) + P(A = B) / 2 with A ~ Poisson(a/2) (same-side neighbours)
  and B ~ Poisson(b/2) (other-side neighbours).  Given its neighbours, a
  vertex is independent of the rest of the tree, so no recovery can beat p1
  in expectation.
* ``majority_moments``: E+ S_k = (theta d)^k and
  Var+ S_k = 4 eta (1 - eta) d^k sum_{j<k} (theta^2 d)^j for the level sum of
  a d-ary broadcast tree, and their values when each leaf is seen through a
  delta-flip channel.
* ``ks_bound``: the Kesten-Stigum bound 1/2 E|X_k| <= 1/2 (theta^2 d)^{k/2}
  on the reconstruction advantage at depth k, from E+ X_k = E X_k^2 <=
  (theta^2 d)^k and Jensen.

The ``check_*`` functions return a list of failure messages, empty when the
output passes.
"""

from __future__ import annotations

import math
from collections import defaultdict

import numpy as np

# A moment estimate may sit this many of its own 99% half-widths (z = 2.576)
# from the closed form: 2 half-widths are 5.2 standard errors, so 200 rows
# per run give a false alarm about once in 20 000 runs.
MOMENT_CI_MULTIPLE = 2.0
# Standard errors allowed above the expected optimum accuracy; the count of
# correct labels is a sum of n nearly independent coins.
ACCURACY_SIGMAS = 5.0


def _poisson_pmf(mu: float, top: int) -> np.ndarray:
    k = np.arange(top)
    logs = k * math.log(mu) - mu - np.array([math.lgamma(i + 1) for i in k])
    return np.exp(logs)


def depth1_optimum(a: float, b: float) -> float:
    """P(A > B) + P(A = B)/2 for independent A ~ Poisson(a/2), B ~ Poisson(b/2).

    Sums P(B = j) (P(A > j) + P(A = j)/2) over j up to 40 standard deviations
    past the larger mean, where both tails are below double precision.
    """
    mu_same, mu_other = a / 2.0, b / 2.0
    top = int(max(mu_same, mu_other) + 40.0 * math.sqrt(mu_same + mu_other) + 50)
    pa, pb = _poisson_pmf(mu_same, top), _poisson_pmf(mu_other, top)
    a_above = 1.0 - np.cumsum(pa)
    return float(pb @ (a_above + 0.5 * pa))


def majority_moments(d: int, theta: float, k: int, delta: float = 0.0):
    """(mean, var, noisy_mean, noisy_var) of the depth-k level sum, given sigma = +."""
    eta = 0.5 * (1.0 - theta)
    signal = theta * theta * d
    mean = (theta * d) ** k
    var = 4.0 * eta * (1.0 - eta) * d ** k * sum(signal ** j for j in range(k))
    keep = 1.0 - 2.0 * delta
    noisy_var = keep * keep * var + 4.0 * delta * (1.0 - delta) * d ** k
    return mean, var, keep * mean, noisy_var


def ks_bound(signal: float, k: int) -> float:
    """Upper bound on the depth-k advantage 1/2 E|X_k| at theta^2 d = signal <= 1."""
    return 0.5 * signal ** (k / 2.0)


# --- recovery outputs --------------------------------------------------------


def accuracy_of(side: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of agreeing labels, best over a global flip."""
    n = len(labels)
    mis = int(np.count_nonzero(side != labels))
    return max(mis, n - mis) / n


def accuracy_ceiling(p1: float, n: int, u: int) -> float:
    """Highest accuracy a recovery with u coin-labelled vertices can plausibly show.

    The expected accuracy is at most (1 - u/n) p1 + u/(2n); the allowance is
    ACCURACY_SIGMAS standard errors of the count of correct labels.
    """
    mean = (1.0 - u / n) * p1 + u / (2.0 * n)
    sigma = math.sqrt(p1 * (1.0 - p1) * (n - u) + u / 4.0) / n
    return mean + ACCURACY_SIGMAS * sigma


def check_recovery(side, magnetization, labels, accuracy: float, *, p1: float,
                   u: int, floor: float | None = None) -> list[str]:
    """Structure and accuracy bounds of one recovery of an n-vertex graph.

    ``u`` is the hold-out size (coin-labelled, magnetization 0); ``floor`` an
    accuracy the recovery must reach, when one applies.
    """
    side = np.asarray(side)
    mag = np.asarray(magnetization, dtype=np.float64)
    n = len(labels)
    if side.shape != (n,) or mag.shape != (n,):
        return [f"expected {n} labels and magnetizations, got {side.shape} and {mag.shape}"]
    fails = []
    if not np.all(np.abs(side) == 1):
        fails.append(f"{int(np.count_nonzero(np.abs(side) != 1))} labels are not +-1")
    if not np.all(np.isfinite(mag)) or np.any(np.abs(mag) > 1.0):
        fails.append("magnetization outside [-1, 1]")
    decided = mag != 0.0
    wrong = np.count_nonzero(side[decided] != np.sign(mag[decided]))
    if wrong:
        fails.append(f"{wrong} labels disagree with the sign of their magnetization")
    coins = int(np.count_nonzero(~decided))
    if coins < u:
        fails.append(f"only {coins} zero-magnetization labels, hold-out has {u}")
    mine = accuracy_of(side, labels)
    if abs(mine - accuracy) > 1e-12:
        fails.append(f"reported accuracy {accuracy!r} but the labels score {mine!r}")
    ceiling = accuracy_ceiling(p1, n, u)
    if mine > ceiling:
        fails.append(f"accuracy {mine:.6f} above the tree optimum ceiling {ceiling:.6f}")
    if floor is not None and mine < floor:
        fails.append(f"accuracy {mine:.6f} below the required {floor:.6f}")
    return fails


# --- tree-chain rows ---------------------------------------------------------
# Rows are harness result rows: objects with ``coords`` (dict), ``estimate``
# and ``ci`` (99% half-width).


def check_moment_rows(rows) -> list[str]:
    fails = []
    for r in rows:
        c = r.coords
        mean, var, noisy_mean, noisy_var = majority_moments(
            int(c["d"]), float(c["theta"]), int(c["k"]), float(c["delta"]))
        want = {"s_mean": mean, "s_var": var,
                "sn_mean": noisy_mean, "sn_var": noisy_var}[c["stat"]]
        where = f"moments d={c['d']} theta={c['theta']} delta={c['delta']} k={c['k']} {c['stat']}"
        if abs(c["target"] - want) > 1e-9 * max(1.0, abs(want)):
            fails.append(f"{where}: target {c['target']!r}, closed form {want!r}")
        if not abs(r.estimate - want) <= MOMENT_CI_MULTIPLE * r.ci:
            fails.append(f"{where}: estimate {r.estimate!r} is more than "
                         f"{MOMENT_CI_MULTIPLE:g} CI ({r.ci!r}) from {want!r}")
    return fails


def check_sweep_rows(rows) -> list[str]:
    fails = []
    for r in rows:
        signal, k = float(r.coords["ksig"]), int(r.coords["k"])
        if signal <= 1.0:
            bound = ks_bound(signal, k)
            if not r.estimate <= bound + r.ci:
                fails.append(f"sweep theta^2 d={signal:g}: advantage {r.estimate!r} "
                             f"above the Kesten-Stigum bound {bound!r}")
        elif not r.estimate > 3.0 * r.ci:
            fails.append(f"sweep theta^2 d={signal:g}: advantage {r.estimate!r} "
                         f"within 3 CI ({r.ci!r}) of zero")
    return fails


def check_robust_rows(rows) -> list[str]:
    """Noisy leaves cannot beat exact ones (data processing), nor leave [1/2, 1]."""
    fails = []
    by_k = defaultdict(dict)
    for r in rows:
        if not 0.5 <= r.estimate <= 1.0:
            fails.append(f"robust accuracy {r.estimate!r} outside [1/2, 1]")
        by_k[int(r.coords["k"])][float(r.coords["delta"])] = r
    for k, rows_k in sorted(by_k.items()):
        exact = rows_k.get(0.0)
        if exact is None:
            fails.append(f"robust k={k}: no delta = 0 row")
            continue
        for delta, r in sorted(rows_k.items()):
            if r.estimate > exact.estimate + exact.ci + r.ci:
                fails.append(f"robust k={k} delta={delta:g}: {r.estimate!r} beats "
                             f"the exact-leaf accuracy {exact.estimate!r}")
    return fails


def check_contraction_rows(rows) -> list[str]:
    fails = []
    for r in rows:
        if r.coords["metric"] in ("diff2", "sqrtdiff") and not 0.0 <= r.estimate < math.inf:
            fails.append(f"contraction {r.coords}: {r.coords['metric']} = {r.estimate!r}")
    return fails


def check_conductance_rows(rows) -> list[str]:
    fails = []
    for r in rows:
        metric = r.coords["metric"]
        if metric == "frac_above" and not 0.0 <= r.estimate <= 1.0:
            fails.append(f"conductance k={r.coords['k']}: fraction {r.estimate!r}")
        if metric == "ceff_mean" and not 0.0 <= r.estimate < math.inf:
            fails.append(f"conductance k={r.coords['k']}: mean conductance {r.estimate!r}")
    return fails


ROW_CHECKS = {
    "moments-check": check_moment_rows,
    "threshold-sweep": check_sweep_rows,
    "robust-accuracy": check_robust_rows,
    "contraction-check": check_contraction_rows,
    "conductance-check": check_conductance_rows,
}


def check_tree_rows(rows_by_kind: dict, expected_counts: dict) -> list[str]:
    """Every experiment returned its full table and each table passes its check."""
    fails = []
    for kind, count in expected_counts.items():
        rows = rows_by_kind.get(kind, [])
        if len(rows) != count:
            fails.append(f"{kind}: {len(rows)} rows, expected {count}")
        fails += ROW_CHECKS[kind](rows)
    return fails
