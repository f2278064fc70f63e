"""Fast tests of the benchmark's references and of its output checks.

Run from the repository root:  python3 -m pytest -q benchmarks
"""

import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import stats

import references as ref


# --- references against direct enumeration --------------------------------


def _poisson_pmf(mu, k):
    return math.exp(k * math.log(mu) - mu - math.lgamma(k + 1))


@pytest.mark.parametrize("a,b,expected", [(30.0, 4.0, 0.99971), (12.0, 3.0, 0.95514),
                                          (5.0, 1.0, None), (3.0, 2.9, None)])
def test_depth1_optimum_matches_enumeration(a, b, expected):
    top = 200
    pa = [_poisson_pmf(a / 2, i) for i in range(top)]
    pb = [_poisson_pmf(b / 2, j) for j in range(top)]
    direct = sum(pa[i] * pb[j] * (1.0 if i > j else 0.5 if i == j else 0.0)
                 for i in range(top) for j in range(top))
    assert ref.depth1_optimum(a, b) == pytest.approx(direct, abs=1e-12)
    skellam = stats.skellam(a / 2, b / 2)
    assert ref.depth1_optimum(a, b) == pytest.approx(skellam.sf(0) + 0.5 * skellam.pmf(0),
                                                     abs=1e-12)
    if expected is not None:
        assert round(ref.depth1_optimum(a, b), 5) == expected


def _dary_flip_configs(d, k):
    """Spins of every node of the depth-k d-ary tree (root +) for every flip
    pattern, with the pattern's probability factor as a function of eta."""
    nodes = sum(d ** j for j in range(k + 1))
    flips = np.array(list(itertools.product((1, -1), repeat=nodes - 1)))
    spins = np.ones((len(flips), nodes))
    for t in range(1, nodes):
        spins[:, t] = spins[:, (t - 1) // d] * flips[:, t - 1]
    n_flipped = (flips == -1).sum(axis=1)
    return spins[:, nodes - d ** k:], n_flipped, nodes - 1


@pytest.mark.parametrize("d,k", [(2, 1), (2, 2), (2, 3), (3, 2)])
@pytest.mark.parametrize("theta", [0.3, 0.8, -0.5])
def test_majority_moments_match_enumeration(d, k, theta):
    leaves, n_flipped, edges = _dary_flip_configs(d, k)
    eta = 0.5 * (1.0 - theta)
    prob = eta ** n_flipped * (1.0 - eta) ** (edges - n_flipped)
    s = leaves.sum(axis=1)
    mean = float(prob @ s)
    var = float(prob @ s ** 2) - mean ** 2
    want_mean, want_var, _, _ = ref.majority_moments(d, theta, k)
    assert want_mean == pytest.approx(mean, abs=1e-12)
    assert want_var == pytest.approx(var, abs=1e-10)


@pytest.mark.parametrize("delta", [0.1, 0.3])
def test_noisy_majority_moments_match_enumeration(delta):
    d, k, theta = 2, 2, 0.6
    leaves, n_flipped, edges = _dary_flip_configs(d, k)
    eta = 0.5 * (1.0 - theta)
    prob = eta ** n_flipped * (1.0 - eta) ** (edges - n_flipped)
    noise = np.array(list(itertools.product((1, -1), repeat=d ** k)))
    n_noisy = (noise == -1).sum(axis=1)
    pnoise = delta ** n_noisy * (1.0 - delta) ** (d ** k - n_noisy)
    sn = (leaves[:, None, :] * noise[None, :, :]).sum(axis=2)
    joint = prob[:, None] * pnoise[None, :]
    mean = float((joint * sn).sum())
    var = float((joint * sn ** 2).sum()) - mean ** 2
    _, _, want_mean, want_var = ref.majority_moments(d, theta, k, delta)
    assert want_mean == pytest.approx(mean, abs=1e-12)
    assert want_var == pytest.approx(var, abs=1e-10)


def test_majority_variance_matches_pair_covariances():
    # Var S_k = sum over leaf pairs of theta^dist - theta^2k; a pair whose last
    # common ancestor sits at level j is 2(k - j) apart.
    for d, theta, k in [(2, 0.5, 5), (3, 0.8, 4), (4, 0.5, 3), (5, 0.45, 6)]:
        leaves = d ** k
        cov = leaves * (1.0 - theta ** (2 * k))
        for j in range(k):
            cov += leaves * (d ** (k - j) - d ** (k - j - 1)) * (
                theta ** (2 * (k - j)) - theta ** (2 * k))
        assert ref.majority_moments(d, theta, k)[1] == pytest.approx(cov, rel=1e-12)


def _root_magnetization_moments(d, k, theta):
    """Exact E+ X_k and E+ |X_k| on the depth-k d-ary tree with exact leaves."""
    eta = 0.5 * (1.0 - theta)
    leaves = np.array(list(itertools.product((1, -1), repeat=d ** k)), dtype=float)
    # likelihoods of the leaf configuration given each spin, level by level up
    lp, lm = (leaves == 1).astype(float), (leaves == -1).astype(float)
    for _ in range(k):
        up_p = (1.0 - eta) * lp + eta * lm
        up_m = eta * lp + (1.0 - eta) * lm
        lp = up_p.reshape(len(leaves), -1, d).prod(axis=2)
        lm = up_m.reshape(len(leaves), -1, d).prod(axis=2)
    lp, lm = lp[:, 0], lm[:, 0]
    x = (lp - lm) / (lp + lm)
    return float(lp @ x), float(lp @ np.abs(x))


@pytest.mark.parametrize("d,k", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)])
@pytest.mark.parametrize("signal", [0.3, 0.7, 0.95])
def test_kesten_stigum_bound_holds_exactly(d, k, signal):
    theta = math.sqrt(signal / d)
    ex, eabs = _root_magnetization_moments(d, k, theta)
    assert 0.0 < ex <= signal ** k + 1e-12
    assert 0.0 < 0.5 * eabs <= ref.ks_bound(signal, k) + 1e-12


# --- negative controls: each check rejects a corrupted output --------------


def _clean_recovery(n=400, u=20, p1=0.9, seed=0):
    rng = np.random.default_rng(seed)
    labels = np.where(rng.random(n) < 0.5, 1, -1).astype(np.int8)
    side = labels.copy()
    mag = 0.9 * side.astype(float)
    coins = np.arange(u)
    mag[coins] = 0.0
    side[coins[: u // 2]] *= -1  # half the coins land wrong
    wrong = np.arange(u, u + round((1 - p1) * (n - u)))
    side[wrong] *= -1
    mag[wrong] *= -1
    return side, mag, labels, ref.accuracy_of(side, labels), {"p1": p1, "u": u}


def test_clean_recovery_passes():
    side, mag, labels, acc, kw = _clean_recovery()
    assert ref.check_recovery(side, mag, labels, acc, **kw) == []
    assert ref.check_recovery(side, mag, labels, acc, floor=acc, **kw) == []


@pytest.mark.parametrize("corrupt", ["flip_sign", "mag_range", "mag_nan", "few_coins",
                                     "bad_label", "reported", "too_good", "floor"])
def test_corrupted_recovery_fails(corrupt):
    side, mag, labels, acc, kw = _clean_recovery()
    floor = None
    if corrupt == "flip_sign":
        side[100] *= -1
        acc = ref.accuracy_of(side, labels)
    elif corrupt == "mag_range":
        mag[100] = 1.5 * np.sign(mag[100])
    elif corrupt == "mag_nan":
        mag[100] = np.nan
    elif corrupt == "few_coins":
        mag[0] = 0.5 * side[0]
    elif corrupt == "bad_label":
        side[0] = 0
        acc = ref.accuracy_of(side, labels)
    elif corrupt == "reported":
        acc += 1e-3
    elif corrupt == "too_good":
        kw["p1"] = 0.6
    elif corrupt == "floor":
        floor = acc + 0.01
    assert ref.check_recovery(side, mag, labels, acc, floor=floor, **kw)


def _row(coords, estimate, ci):
    return SimpleNamespace(coords=coords, estimate=estimate, ci=ci)


def _clean_tables():
    moments = []
    for d, theta, delta, k in itertools.product([2, 3], [0.5, 0.8], [0.0, 0.2], [1, 3]):
        mean, var, nmean, nvar = ref.majority_moments(d, theta, k, delta)
        for stat, val in (("s_mean", mean), ("s_var", var), ("sn_mean", nmean), ("sn_var", nvar)):
            moments.append(_row({"d": d, "theta": theta, "delta": delta, "k": k,
                                 "stat": stat, "target": val}, val + 0.01, 0.02))
    sweep = [_row({"ksig": s, "k": 12}, e, 1e-3)
             for s, e in ((0.5, 0.004), (0.8, 0.05), (1.0, 0.1), (1.25, 0.2), (2.0, 0.4))]
    robust = [_row({"k": k, "delta": delta}, acc, 1e-3)
              for k in (2, 8) for delta, acc in ((0.0, 0.99), (0.2, 0.95), (0.4, 0.8))]
    contraction = [_row({"metric": m}, e, 1e-3)
                   for m, e in (("diff2", 0.1), ("sqrtdiff", 0.2), ("diff2_ratio", math.nan))]
    conductance = [_row({"k": 2, "metric": "frac_above"}, 0.7, 0.01),
                   _row({"k": 2, "metric": "ceff_mean"}, 3.0, 0.01)]
    tables = {"moments-check": moments, "threshold-sweep": sweep, "robust-accuracy": robust,
              "contraction-check": contraction, "conductance-check": conductance}
    return tables, {kind: len(rows) for kind, rows in tables.items()}


def test_clean_tree_tables_pass():
    tables, counts = _clean_tables()
    assert ref.check_tree_rows(tables, counts) == []


@pytest.mark.parametrize("corrupt", ["moment_shift", "moment_target", "ks_bound",
                                     "above_threshold", "noisy_beats_exact", "robust_range",
                                     "row_count", "conductance_frac", "contraction_negative"])
def test_corrupted_tree_tables_fail(corrupt):
    tables, counts = _clean_tables()
    if corrupt == "moment_shift":
        tables["moments-check"][5].estimate += 10 * tables["moments-check"][5].ci
    elif corrupt == "moment_target":
        tables["moments-check"][6].coords["target"] *= 1.001
    elif corrupt == "ks_bound":
        tables["threshold-sweep"][0].estimate = 0.2  # bound at 0.5 is 0.0078
    elif corrupt == "above_threshold":
        tables["threshold-sweep"][3].estimate = 2e-3
    elif corrupt == "noisy_beats_exact":
        tables["robust-accuracy"][2].estimate = 0.995
    elif corrupt == "robust_range":
        tables["robust-accuracy"][0].estimate = 1.01
    elif corrupt == "row_count":
        tables["threshold-sweep"].pop()
    elif corrupt == "conductance_frac":
        tables["conductance-check"][0].estimate = 1.2
    elif corrupt == "contraction_negative":
        tables["contraction-check"][0].estimate = -0.1
    assert ref.check_tree_rows(tables, counts)
