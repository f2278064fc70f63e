"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete.  Monte Carlo outputs that the criteria ask to archive are written
under results/acceptance/ next to this repository's root.

Criterion 3's below-threshold arm checks what holds at finite depth.  The
threshold theta^2 d = 1 is a depth -> infinity statement: below it the root
signal at depth 12 is still positive (~4e-3 at theta^2 d = 0.5, ~0.05 at
0.8, far above the 1e5-trial confidence width), so asserting it to be
indistinguishable from zero states the limit, not a finite-depth fact.
What does hold at every depth k is the Kesten-Stigum bound
E(X_k | sigma=+) <= (theta^2 d)^k (Evans-Kenyon-Peres-Schulman 2000) and,
below the threshold, geometric decay of that mean at rate theta^2 d; the
test asserts both on the archived sweep's own chains, and that the decay
check fails on the above-threshold chains.
"""

import math
import time
from pathlib import Path

import numpy as np

from blockbp import popdyn
from blockbp.bpcore import bp_root, exact_posterior
from blockbp.broadcast import add_leaf_noise, run_broadcast, sample_tree, tree_from_parents
from blockbp.estimators import current_weights, effective_conductance, majority_moments
from blockbp.harness import ExperimentSpec, run_experiment, write_results
from blockbp.params import ModelParams, derive_tree_params
from blockbp.pipeline import AlgoConfig, recover
from blockbp.randgraph import sample_sbm
from blockbp.seeding import derived_rng

from _oracles import laplacian_network, rooted_tree_parent_lists

RESULTS = Path(__file__).resolve().parent.parent / "results" / "acceptance"
Z = 2.576


def report(cid: str, ok: bool, detail: str, elapsed: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{cid}] {status} ({elapsed:.1f}s) {detail}")


def test_c1_bp_exactness_oracle_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(101)
    worst = 0.0
    n_trees = 0
    while n_trees < 500:
        d = rng.uniform(0.7, 1.8)
        depth = int(rng.integers(1, 5))
        t = sample_tree("gw", d, depth, seed=int(rng.integers(2 ** 32)))
        if not 2 <= t.n_nodes <= 15 or t.sizes[depth] == 0:
            continue
        n_trees += 1
        obs = np.where(rng.random(t.sizes[depth]) < 0.5, 1, -1)
        for theta in (0.9, -0.9, 0.5, -0.5, 0.1):
            for delta in (0.0, 0.3):
                got = bp_root(t, theta, obs, delta=delta)
                want = exact_posterior(t, theta, obs, delta=delta)
                worst = max(worst, abs(got - want))
    elapsed = time.time() - t0
    ok = worst <= 1e-9 and elapsed < 10.0
    report("C1", ok, f"max |bp - exact| = {worst:.2e} over {n_trees} trees", elapsed)
    assert worst <= 1e-9
    assert elapsed < 10.0


def test_c2_majority_moment_formulas():
    t0 = time.time()
    trials = 100_000
    configs = [(d, th) for d in (2, 3) for th in (0.5, 0.8)] + [(4, 0.5)]
    worst_z = 0.0
    for idx, (d, theta) in enumerate(configs):
        for delta in (0.0, 0.2):
            s, sn = popdyn.dary_sum_trials(d, theta, 5, trials,
                                           derived_rng(202, "c2", idx), delta=delta)
            for k in range(1, 6):
                mom = majority_moments(d, theta, k, delta=delta)
                for vals, mean_tgt, var_tgt in ((s[k], mom.mean, mom.var),
                                                (sn[k], mom.noisy_mean, mom.noisy_var)):
                    sigma = vals.std() / math.sqrt(trials)
                    if sigma > 0:
                        worst_z = max(worst_z, abs(vals.mean() - mean_tgt) / sigma)
                    sq = (vals - vals.mean()) ** 2
                    sigma_v = sq.std() / math.sqrt(trials)
                    if sigma_v > 0:
                        worst_z = max(worst_z, abs(sq.mean() - var_tgt) / sigma_v)
    elapsed = time.time() - t0
    ok = worst_z < 4.0 and elapsed < 120.0
    report("C2", ok, f"worst moment deviation = {worst_z:.2f} sigma "
                     f"(limit branch d=4 theta=0.5 included)", elapsed)
    assert worst_z < 4.0
    assert elapsed < 120.0


# Resampled pool members share ancestors, so the chain's per-level CI of
# x_mean understates the spread across independent chains: measured
# 1.0-2.2x over 21 independent chains of the C3 sweep, about
# 1/sqrt(1 - theta^2 d) below the threshold.
POOL_CI_INFLATION = 2.5


def ks_decay_rate(rows) -> tuple[float, list[int]]:
    """Per-level decay rate of x_mean from a log-linear fit over levels k >= 3
    where x_mean exceeds 5 pool-inflated CIs; returns (rate, levels)."""
    levels = [r["level"] for r in rows[3:]
              if r["x_mean"] > 5 * POOL_CI_INFLATION * r["x_ci"]]
    if len(levels) < 3:
        return math.nan, levels
    slope = np.polyfit(levels, [math.log(rows[k]["x_mean"]) for k in levels], 1)[0]
    return math.exp(slope), levels


def decays_at_ks_rate(rate: float, ksig: float) -> bool:
    return abs(rate - ksig) <= 0.1


def test_c3_reconstruction_threshold():
    t0 = time.time()
    spec = ExperimentSpec(kind="threshold-sweep", params={"base_d": 2.5, "k": 12},
                          grid={"ksig": [0.5, 0.8, 1.0, 1.25, 2.0]},
                          trials=100_000, seed=303)
    rows = run_experiment(spec)
    write_results(rows, spec, RESULTS / "c3_threshold_sweep.csv", deterministic=True)
    by_sig = {r.coords["ksig"]: r for r in rows}
    shown = (0.5, 0.8, 1.25, 2.0)

    # Re-run the sweep's own chains (same stream per grid index) for the
    # per-level means; the depth-12 value must be the archived estimate.
    chains, worst, rates = {}, {}, {}
    for idx, s in enumerate(spec.grid["ksig"]):
        if s not in shown:
            continue
        r = by_sig[s]
        chain, _ = popdyn.magnetization_chain(
            "gw", r.coords["d"], r.coords["theta"], 12, spec.trials,
            derived_rng(spec.seed, "sweep", idx), delta=0.0)
        assert 0.5 * chain[12]["absx_mean"] == r.estimate, f"s={s}: not the archived chain"
        chains[s] = chain
        worst[s] = max((chain[k]["x_mean"] / s ** k, k) for k in range(1, 13))
        rates[s] = ks_decay_rate(chain)

    # 1. Kesten-Stigum bound at every level (the chain's own CI is the
    #    stricter choice here, so it is not inflated).
    bound_breaks = [(s, k, chains[s][k]["x_mean"], s ** k)
                    for s in (0.5, 0.8) for k in range(1, 13)
                    if chains[s][k]["x_mean"] > s ** k + chains[s][k]["x_ci"]]
    # 2. Geometric decay at rate theta^2 d below the threshold.
    decay_breaks = [(s, rates[s][0], rates[s][1]) for s in (0.5, 0.8)
                    if not decays_at_ks_rate(rates[s][0], s)]
    # 3. Negative control: the decay check fails above the threshold, where
    #    the signal settles at a positive fixed point instead; its fitted
    #    rate must also clear 0.9, the top of the theta^2 d = 0.8 band.
    control_breaks = [(s, rates[s][0]) for s in (1.25, 2.0)
                      if decays_at_ks_rate(rates[s][0], s) or not rates[s][0] > 0.9]
    below_ok = not bound_breaks and not decay_breaks
    above_ok = all(by_sig[s].estimate > 3 * by_sig[s].ci for s in (1.25, 2.0))
    elapsed = time.time() - t0
    detail = "; ".join(
        f"s={s}: p-1/2={by_sig[s].estimate:.2e} CI={by_sig[s].ci:.2e} "
        f"max x/s^k={worst[s][0]:.3f}@k={worst[s][1]} rate={rates[s][0]:.3f}"
        for s in shown
    )
    report("C3", below_ok and above_ok and not control_breaks and elapsed < 600.0,
           detail, elapsed)
    assert above_ok, "above-threshold arm"
    assert not bound_breaks, \
        "Kesten-Stigum bound broken (s, level, x_mean, bound): " + repr(bound_breaks)
    assert not decay_breaks, \
        "decay rate not within 0.1 of theta^2 d (s, rate, levels): " + repr(decay_breaks)
    assert not control_breaks, \
        "decay check passes above the threshold (s, rate): " + repr(control_breaks)
    assert elapsed < 600.0


def test_c4_chebyshev_accuracy_floor():
    t0 = time.time()
    d, theta, delta, k = 16, 0.8, 0.1, 6
    eta = (1 - theta) / 2
    _, sn = popdyn.dary_sum_trials(d, theta, k, 100_000, derived_rng(404, "c4"), delta=delta)
    succ = np.where(sn[k] > 0, 1.0, np.where(sn[k] < 0, 0.0, 0.5))  # a tie counts 1/2
    success = float(succ.mean())
    ci = popdyn.ci_half_width(float(succ.std()), len(succ))
    floor = 1 - 4 * eta * (1 - eta) / (theta ** 2 * d)
    elapsed = time.time() - t0
    ok = success >= floor - 2 * ci and elapsed < 120.0
    report("C4", ok, f"sgn(noisy sum) success = {success:.5f} >= {floor:.5f} - 2*{ci:.1e}",
           elapsed)
    assert success >= floor - 2 * ci
    assert elapsed < 120.0


def test_c5_weighted_majority_identities():
    t0 = time.time()
    d, theta, k = 3.0, 0.6, 4
    msgs = []
    ok = True
    for delta in (0.0, 0.2):
        rng = derived_rng(505, "c5", int(delta * 10))
        forest = run_broadcast(sample_tree("gw", d, k, rng, roots=100_000), (1 - theta) / 2,
                               rng, root_sign=1)
        tau = add_leaf_noise(forest, delta, derived_rng(505, "c5-noise", int(delta * 10))).tau
        clean, noisy = current_weights(forest, theta), current_weights(forest, theta, delta=delta)
        alive = clean.network.zs[0] > 0
        n = int(alive.sum())
        for name, cw, obs in (("R", clean, forest.sigma[k]), ("S", noisy, tau)):
            vals, ceff = cw.estimate(obs)[alive], cw.network.zs[0][alive]
            se_mean = vals.std() / math.sqrt(n)
            mean_ok = abs(vals.mean() - 1.0) < 3 * se_mean
            reff = 1.0 / ceff
            dev = (vals - vals.mean()) ** 2 - reff
            var_ok = abs(vals.var() - reff.mean()) < 3 * dev.std() / math.sqrt(n)
            ok &= mean_ok and var_ok
            msgs.append(f"{name}(d{delta}): mean={vals.mean():.4f} "
                        f"var={vals.var():.3f} E[Reff]={reff.mean():.3f}")

    # series-parallel vs dense Laplacian on every rooted tree shape <= 12 nodes
    worst = 0.0
    n_shapes = 0
    for parents in rooted_tree_parent_lists(12):
        t = tree_from_parents(parents)
        if t.depth == 0:
            continue
        n_shapes += 1
        for delta in (0.0, 0.2):
            net = effective_conductance(t, 0.6, delta=delta)
            want, _ = laplacian_network(t, 0.6, delta=delta)
            denom = max(1.0, abs(want))
            worst = max(worst, abs(net.ceff - want) / denom)
    oracle_ok = worst <= 1e-9 and n_shapes == 7812  # all shapes with >= 2 nodes
    elapsed = time.time() - t0
    ok = ok and oracle_ok and elapsed < 300.0
    report("C5", ok, "; ".join(msgs) + f"; laplacian worst rel err {worst:.1e} "
                                       f"on {n_shapes} shapes", elapsed)
    assert ok


def test_c6_robustness_of_reconstruction():
    t0 = time.time()
    tp = derive_tree_params(ModelParams(n=10 ** 6, a=30, b=4))
    gaps, cis = {}, {}
    rows, _ = popdyn.magnetization_chain("gw", tp.d, tp.theta, 8, 100_000,
                                         derived_rng(606, "c6"), delta=0.4)
    for k in (2, 4, 6, 8):
        r = rows[k]
        gaps[k] = abs(r["absx_mean"] - r["absy_mean"]) / 2.0
        cis[k] = (r["absx_ci"] + r["absy_ci"]) / 2.0
    gap8_ok = gaps[8] <= 0.02 + 2 * cis[8]
    mono_ok = all(gaps[k + 2] <= gaps[k] + cis[k] + cis[k + 2] for k in (2, 4, 6))
    elapsed = time.time() - t0
    ok = gap8_ok and mono_ok and elapsed < 900.0
    detail = ", ".join(f"gap(k={k})={gaps[k]:.2e}" for k in (2, 4, 6, 8))
    report("C6", ok, detail, elapsed)
    assert gap8_ok
    assert mono_ok
    assert elapsed < 900.0


def test_c7_contraction_of_noisy_recursion():
    t0 = time.time()
    regimes = [{"tree_kind": kind, "d": d, "theta": th, "delta": 0.4, "k": 8}
               for kind in ("gw", "dary") for d, th in ((64, 0.3), (40, 0.9))]
    spec = ExperimentSpec(kind="contraction-check", grid={"regimes": regimes},
                          trials=100_000, seed=707)
    rows = run_experiment(spec)
    write_results(rows, spec, RESULTS / "c7_contraction.csv", deterministic=True)
    ok = True
    details = []
    for kind in ("gw", "dary"):
        for d, th, metric in ((64, 0.3, "diff2_ratio"), (40, 0.9, "sqrtdiff_ratio")):
            sel = [r for r in rows
                   if r.coords["tree_kind"] == kind and r.coords["d"] == d
                   and r.coords["metric"] == metric and r.coords["level"] >= 3]
            defined = [r.estimate for r in sel if not math.isnan(r.estimate)]
            worst = max(defined) if defined else 0.0
            ok &= worst <= 0.9
            details.append(f"{kind} d={d}: max {metric} = {worst:.3f}")
    elapsed = time.time() - t0
    ok = ok and elapsed < 900.0
    report("C7", ok, "; ".join(details) + " (measured ratios archived)", elapsed)
    assert ok
    assert elapsed < 900.0


def test_c8_end_to_end_recovery():
    t0 = time.time()
    # high-SNR arm: pipeline with a deliberately poor (25% error) black box
    m = ModelParams(n=20_000, a=30, b=4)
    cfg = AlgoConfig(R=3, R_mode="fixed", K=1)
    accs = []
    for s in range(20):
        g = sample_sbm(m, seed=derived_rng(808, "graph", s))
        res = recover(g, cfg, m, impl="oracle-noise",
                      seed=int(derived_rng(808, "rec", s).integers(2 ** 62)),
                      delta0=0.25)
        accs.append(res.accuracy)
    accs = np.asarray(accs)
    mean_acc = float(accs.mean())
    ci_acc = Z * float(accs.std()) / math.sqrt(len(accs))

    tp = derive_tree_params(m)
    rows, _ = popdyn.magnetization_chain("gw", tp.d, tp.theta, 3, 100_000,
                                         derived_rng(808, "tree"), delta=0.0)
    p_tree = 0.5 * (1.0 + rows[3]["absx_mean"])
    gap = abs(mean_acc - p_tree)
    sandwich_ok = gap <= 0.03
    beats_bb_ok = mean_acc - 0.75 > 3 * ci_acc

    # below-threshold arm: a real (spectral) black box, nothing recoverable
    m_low = ModelParams(n=10_000, a=3, b=2)
    cfg_low = AlgoConfig(R_mode="auto", K=1)
    low, low_informative = [], []
    import warnings
    for s in range(10):
        g = sample_sbm(m_low, seed=derived_rng(808, "low-graph", s))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = recover(g, cfg_low, m_low, impl="spectral",
                          seed=int(derived_rng(808, "low-rec", s).integers(2 ** 62)))
        low.append(res.accuracy)
        # the black box reports that it found no signal, as the theorem says
        low_informative.append(res.diagnostics.blackbox_informative)
    low_mean = float(np.mean(low))
    low_ok = abs(low_mean - 0.5) <= 0.02
    no_signal_ok = not any(low_informative)

    elapsed = time.time() - t0
    ok = sandwich_ok and beats_bb_ok and low_ok and no_signal_ok and elapsed < 1800.0
    report("C8", ok,
           f"mean acc = {mean_acc:.4f} vs tree p = {p_tree:.4f} (gap {gap:.4f}); "
           f"below-threshold acc = {low_mean:.4f}, black box informative on "
           f"{sum(low_informative)}/{len(low_informative)} runs", elapsed)
    assert sandwich_ok
    assert beats_bb_ok
    assert low_ok
    assert no_signal_ok
    assert elapsed < 1800.0


def test_c9_deterministic_reruns(tmp_path):
    from blockbp import cli
    from blockbp.harness import KINDS, default_spec
    import json

    t0 = time.time()
    all_same = True
    for kind in KINDS:
        blobs = []
        for i in (1, 2):
            out = tmp_path / f"{kind}-{i}.csv"
            argv = [kind, "--trials", "400", "--seed", "11", "--out", str(out),
                    "--deterministic"]
            if kind == "graph-recover":
                cfgd = default_spec(kind, trials=400).to_dict()
                cfgd["params"]["n"] = 500
                cfgd["grid"] = {"rep": [0]}
                cfg_path = tmp_path / f"{kind}.json"
                cfg_path.write_text(json.dumps(cfgd))
                argv += ["--config", str(cfg_path)]
            assert cli.main(argv) == 0
            blobs.append((out.read_bytes(), out.with_suffix(".json").read_bytes()))
        all_same &= blobs[0] == blobs[1]
    elapsed = time.time() - t0
    report("C9", all_same, "all subcommands byte-identical on rerun", elapsed)
    assert all_same
