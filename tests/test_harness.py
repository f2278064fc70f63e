import argparse
import dataclasses
import json
import math
import re
import time
from pathlib import Path

import numpy as np
import pytest

from blockbp import cli, harness, popdyn
from blockbp.harness import (
    KINDS,
    ExperimentSpec,
    default_spec,
    run_experiment,
    write_results,
)
from blockbp.popdyn import ci_half_width


def tiny_spec(kind, **over):
    trials = over.pop("trials", 2000)
    spec = default_spec(kind, trials=trials)
    d = spec.to_dict()
    d.update(over)
    if kind == "graph-recover":
        d["params"] = {**d["params"], "n": 600}
        d["grid"] = {"rep": [0, 1]}
    return ExperimentSpec.from_dict(d)


# --- spec validation ---------------------------------------------------------


def test_unknown_config_keys_rejected():
    with pytest.raises(ValueError, match="unknown config keys"):
        ExperimentSpec.from_dict({"kind": "tree-accuracy", "grid": {"k": [2]},
                                  "params": {"a": 5, "b": 1}, "extra": 1})
    with pytest.raises(ValueError, match="params keys"):
        ExperimentSpec(kind="tree-accuracy", params={"a": 5, "b": 1, "zap": 2},
                       grid={"k": [2]})
    with pytest.raises(ValueError, match="grid keys"):
        ExperimentSpec(kind="tree-accuracy", params={"a": 5, "b": 1},
                       grid={"q": [2]})


def test_grid_must_be_nonempty():
    with pytest.raises(ValueError, match="grid"):
        ExperimentSpec(kind="tree-accuracy", params={"a": 5, "b": 1}, grid={})
    with pytest.raises(ValueError, match="grid"):
        ExperimentSpec(kind="tree-accuracy", params={"a": 5, "b": 1},
                       grid={"k": []})


@pytest.mark.parametrize("kind", KINDS)
def test_spec_owns_its_dicts(kind):
    spec = default_spec(kind)
    want = json.dumps(spec.to_dict())
    dumped = spec.to_dict()
    dumped["params"]["zap"] = 1
    for values in dumped["grid"].values():
        values.append(values[0])
    dumped["grid"]["extra"] = [1]
    assert json.dumps(spec.to_dict()) == want
    assert json.dumps(default_spec(kind).to_dict()) == want
    # nor does an edit to the dicts a spec was built from
    source = spec.to_dict()
    built = ExperimentSpec(**source)
    source["params"]["zap"] = 1
    next(iter(source["grid"].values())).clear()
    assert json.dumps(built.to_dict()) == want


def test_parameterization_is_exclusive():
    spec = ExperimentSpec(kind="tree-accuracy", params={"a": 5, "b": 1, "d": 3},
                          grid={"k": [2]})
    with pytest.raises(ValueError, match="exactly one"):
        run_experiment(spec)


def test_bad_kind_and_trials():
    with pytest.raises(ValueError, match="kind"):
        ExperimentSpec(kind="nope", params={}, grid={"k": [1]})
    with pytest.raises(ValueError, match="trials"):
        ExperimentSpec(kind="tree-accuracy", params={"a": 5, "b": 1},
                       grid={"k": [1]}, trials=0)


# --- CI convention -----------------------------------------------------------


def test_ci_coverage_on_bernoulli_streams():
    # z = 2.576 half-widths should cover the truth ~99% of the time
    rng = np.random.default_rng(0)
    p, reps, t = 0.3, 3000, 4000
    hits = 0
    for _ in range(reps):
        x = rng.random(t) < p
        est = x.mean()
        half = ci_half_width(x.std(), t)
        hits += abs(est - p) <= half
    coverage = hits / reps
    assert abs(coverage - 0.99) <= 0.01


# --- runners -----------------------------------------------------------------


def test_tree_accuracy_theta_zero_rows():
    spec = ExperimentSpec(kind="tree-accuracy", params={"d": 3.0, "theta": 0.0},
                          grid={"k": [1, 2, 3]}, trials=500, seed=1)
    rows = run_experiment(spec)
    assert [r.coords["k"] for r in rows] == [1, 2, 3]
    for r in rows:
        assert r.estimate == 0.5


def test_tree_accuracy_decreasing_and_above_half():
    spec = ExperimentSpec(kind="tree-accuracy", params={"a": 5.0, "b": 1.0},
                          grid={"k": list(range(2, 11))}, trials=20_000, seed=2)
    rows = run_experiment(spec)
    for prev, cur in zip(rows, rows[1:]):
        assert cur.estimate <= prev.estimate + prev.ci + cur.ci
    last = rows[-1]
    assert last.estimate - 0.5 > 3 * last.ci


def test_tree_accuracy_below_threshold():
    spec = ExperimentSpec(kind="tree-accuracy", params={"a": 3.0, "b": 2.0},
                          grid={"k": [12]}, trials=20_000, seed=3)
    row = run_experiment(spec)[0]
    assert abs(row.estimate - 0.5) < 0.01


def test_robust_delta_zero_matches_tree_rows():
    base = dict(params={"a": 5.0, "b": 1.0}, trials=5000, seed=4)
    tree = run_experiment(ExperimentSpec(kind="tree-accuracy",
                                         grid={"k": [2, 4]}, **base))
    robust = run_experiment(ExperimentSpec(kind="robust-accuracy",
                                           grid={"k": [2, 4], "delta": [0.0, 0.3]},
                                           **base))
    zero_rows = [r for r in robust if r.coords["delta"] == 0.0]
    for t, z in zip(tree, zero_rows):
        assert t.estimate == z.estimate
        assert t.ci == z.ci


def test_shared_call_splits_its_seconds():
    # one call serves every noise level, and each level's rows carry an
    # equal share of its wall time, so the shares add up to the call's time
    for kind in ("robust-accuracy", "moments-check"):
        spec = tiny_spec(kind, trials=500)
        t0 = time.perf_counter()
        rows = run_experiment(spec)
        total = time.perf_counter() - t0
        levels = {}  # the rows that differ in delta alone
        for r in rows:
            rest = tuple(v for c, v in sorted(r.coords.items()) if c not in ("delta", "target"))
            levels.setdefault(rest, []).append(r.seconds)
        for shares in levels.values():
            assert len(shares) == len(spec.grid["delta"])
            assert len(set(shares)) == 1 and shares[0] > 0.0
            assert sum(shares) <= total


def test_moments_check_within_four_sigma():
    spec = ExperimentSpec(
        kind="moments-check",
        params={"extra_configs": [[4, 0.5]]},
        grid={"d": [2], "theta": [0.5], "delta": [0.0, 0.2], "k": [1, 2, 3]},
        trials=20_000, seed=5,
    )
    rows = run_experiment(spec)
    limit_rows = [r for r in rows if r.coords["d"] == 4]
    assert limit_rows  # the theta^2 d = 1 branch is exercised
    for r in rows:
        sigma = r.ci / 2.576
        assert abs(r.estimate - r.coords["target"]) < 4 * sigma + 1e-9


def test_contraction_delta_zero_degenerate():
    spec = ExperimentSpec(
        kind="contraction-check",
        grid={"regimes": [{"tree_kind": "gw", "d": 4.0, "theta": 0.5,
                           "delta": 0.0, "k": 3}]},
        trials=2000, seed=6,
    )
    rows = run_experiment(spec)
    ratios = [r for r in rows if r.coords["metric"] == "diff2_ratio"]
    assert ratios and all(np.isnan(r.estimate) for r in ratios)


def test_contraction_strong_regime_quick():
    spec = ExperimentSpec(
        kind="contraction-check",
        grid={"regimes": [{"tree_kind": "gw", "d": 64.0, "theta": 0.3,
                           "delta": 0.4, "k": 6}]},
        trials=20_000, seed=7,
    )
    rows = run_experiment(spec)
    for r in rows:
        if r.coords["metric"] == "diff2_ratio" and r.coords["level"] >= 3:
            if not np.isnan(r.estimate):
                assert r.estimate <= 0.9


def test_threshold_sweep_rows_and_upper_arm():
    spec = ExperimentSpec(kind="threshold-sweep", params={"base_d": 2.5, "k": 12},
                          grid={"ksig": [0.5, 0.8, 1.0, 1.25, 2.0]},
                          trials=20_000, seed=8)
    rows = run_experiment(spec)
    assert [r.coords["ksig"] for r in rows] == [0.5, 0.8, 1.0, 1.25, 2.0]
    # estimates increase with the signal
    for prev, cur in zip(rows, rows[1:]):
        assert cur.estimate >= prev.estimate - prev.ci - cur.ci
    for r in rows:
        if r.coords["ksig"] >= 1.25:
            assert r.estimate > 3 * r.ci


def test_threshold_sweep_rejects_unreachable_signal():
    spec = ExperimentSpec(kind="threshold-sweep", params={"base_d": 2.0, "k": 4},
                          grid={"ksig": [2.5]}, trials=100, seed=9)
    with pytest.raises(ValueError, match="unreachable"):
        run_experiment(spec)


def test_conductance_check_rows():
    spec = ExperimentSpec(kind="conductance-check", params={"a": 30.0, "b": 4.0},
                          grid={"k": [2, 4, 6]}, trials=20_000, seed=10)
    rows = run_experiment(spec)
    frac_rows = [r for r in rows if r.coords["metric"] == "frac_above"]
    assert len(frac_rows) == 3
    for r in frac_rows:
        assert r.estimate >= 0.9
        assert r.coords["threshold"] == pytest.approx((13 / 17) ** 2 * 17 / (16 * 2 / 17))


def test_graph_recover_rows():
    spec = tiny_spec("graph-recover", trials=5000, seed=11)
    rows = run_experiment(spec)
    metrics = [r.coords["metric"] for r in rows]
    # four rows per rep, then three summary rows
    assert metrics == 2 * ["accuracy", "coin_frac", "nontree_frac", "rounding_zeros"] + [
        "mean_accuracy", "tree_p_hat", "gap"]
    mean_row = next(r for r in rows if r.coords["metric"] == "mean_accuracy")
    assert mean_row.estimate > 0.8
    # per rep, as fractions of n: the coin labels include the sqrt(n) hold-out
    # coins; hold-out vertices get no walk tree, and at a = 30, R = 2 nearly
    # every other walk tree revisits a vertex
    n = spec.params["n"]
    held = math.isqrt(n) / n
    for metric, lo, hi in (("coin_frac", held, 0.2), ("nontree_frac", 0.5, 1.0 - held)):
        got = [r for r in rows if r.coords["metric"] == metric]
        assert [r.coords["rep"] for r in got] == [0, 1]
        for r in got:
            assert lo <= r.estimate <= hi
            assert (r.estimate * n).is_integer()
    # a count of the float sums the relative zero test set to 0
    zeros = [r for r in rows if r.coords["metric"] == "rounding_zeros"]
    assert [r.coords["rep"] for r in zeros] == [0, 1]
    assert all(r.estimate >= 0 and r.estimate.is_integer() and r.seconds == 0.0
               for r in zeros)


# --- persistence and determinism ----------------------------------------------


def test_write_results_empty_and_round_trip(tmp_path):
    spec = ExperimentSpec(kind="tree-accuracy", params={"a": 5.0, "b": 1.0},
                          grid={"k": [2]}, trials=100, seed=0)
    out = tmp_path / "r.csv"
    write_results([], spec, out)
    assert out.read_text().splitlines() == [
        "experiment,tree_kind,d,theta,k,estimate,ci,trials,seconds"
    ]
    rows = run_experiment(spec)
    write_results(rows, spec, out)
    lines = out.read_text().splitlines()
    assert len(lines) == 2
    parsed = lines[1].split(",")
    assert parsed[0] == "tree-accuracy"
    assert float(parsed[5]) == rows[0].estimate
    mirror = json.loads(out.with_suffix(".json").read_text())
    assert mirror["spec"] == spec.to_dict()
    assert mirror["rows"][0]["estimate"] == rows[0].estimate


def test_rerun_byte_identical(tmp_path):
    spec = ExperimentSpec(kind="robust-accuracy", params={"a": 5.0, "b": 1.0},
                          grid={"k": [2, 3], "delta": [0.0, 0.2]},
                          trials=3000, seed=12)
    paths = []
    for i in (1, 2):
        out = tmp_path / f"run{i}.csv"
        rows = run_experiment(spec)
        write_results(rows, spec, out, deterministic=True)
        paths.append(out)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert (paths[0].with_suffix(".json").read_bytes()
            == paths[1].with_suffix(".json").read_bytes())


@pytest.mark.parametrize("kind", ["contraction-check", "threshold-sweep", "graph-recover",
                                  "moments-check"])
def test_chain_threads_do_not_change_results(tmp_path, monkeypatch, kind):
    # the kind's independent units (chains, graph repetitions, or the trial
    # blocks of each moments-check config's level sums) run on one thread
    # per usable core; each draws from its own derived stream, so one core
    # and two give the same rows, and deterministic writes are byte-identical
    pools = []

    class Pool(popdyn.ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(popdyn, "ThreadPoolExecutor", Pool)
    # three blocks per level-sum call, the last one short
    trials = 2 * popdyn._TRIAL_BLOCK + 100 if kind == "moments-check" else 2000
    spec = tiny_spec(kind, seed=21, trials=trials)
    blobs, rows = [], []
    for cores in (1, 2):
        monkeypatch.setattr(popdyn, "_usable_cores", lambda: cores)
        rows.append([(r.coords, r.estimate, r.ci, r.trials) for r in run_experiment(spec)])
        out = write_results(run_experiment(spec), spec, tmp_path / f"cores{cores}.csv",
                            deterministic=True)
        blobs.append((out.read_bytes(), out.with_suffix(".json").read_bytes()))
    calls = 2 * (len(harness._moments_setup(spec)[0]) if kind == "moments-check" else 1)
    assert pools == [1] * calls + [2] * calls
    assert repr(rows[0]) == repr(rows[1])  # repr: a nan ratio equals itself
    assert blobs[0] == blobs[1]


@pytest.mark.parametrize("kind", KINDS)
def test_run_experiment_sets_up_once(monkeypatch, kind):
    # the runner starts from what the setup returned and does not read the
    # spec's values again
    record = harness._KINDS[kind]
    specs = []

    def setup(spec):
        specs.append(spec)
        return record.setup(spec)

    monkeypatch.setitem(harness._KINDS, kind, dataclasses.replace(record, setup=setup))
    spec = tiny_spec(kind, trials=300)
    assert run_experiment(spec)
    assert specs == [spec]


# --- CLI ----------------------------------------------------------------------


def test_cli_every_subcommand_smoke(tmp_path):
    for kind in KINDS:
        out = tmp_path / f"{kind}.csv"
        argv = [kind, "--trials", "300", "--seed", "1", "--out", str(out),
                "--deterministic"]
        if kind == "graph-recover":
            cfgd = default_spec(kind, trials=300).to_dict()
            cfgd["params"]["n"] = 400
            cfgd["grid"] = {"rep": [0]}
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_text(json.dumps(cfgd))
            argv += ["--config", str(cfg_path)]
        assert cli.main(argv) == 0
        assert out.exists() and out.with_suffix(".json").exists()


def test_cli_threads_flag_is_unknown(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["graph-recover", "--threads", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --threads 2" in capsys.readouterr().err


def test_readme_cli_block_names_the_parser_flags():
    # the usage block under "## CLI" names each subcommand and exactly the
    # flags the parser gives one, so a retired flag cannot stay in the docs
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"^## CLI\n.*?^```\n(.*?)^```", readme, re.M | re.S).group(1)
    parser = cli._build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert re.findall(r"^blockbp (\S+)", block, re.M) == list(KINDS)
    for kind in KINDS:
        flags = {opt for action in subparsers.choices[kind]._actions
                 for opt in action.option_strings if opt.startswith("--")} - {"--help"}
        assert set(re.findall(r"--[a-z-]+", block)) == flags, kind


def test_cli_rerun_byte_identical(tmp_path):
    blobs = []
    for i in (1, 2):
        out = tmp_path / f"t{i}.csv"
        assert cli.main(["tree-accuracy", "--trials", "500", "--seed", "7",
                         "--out", str(out), "--deterministic"]) == 0
        blobs.append((out.read_bytes(), out.with_suffix(".json").read_bytes()))
    assert blobs[0] == blobs[1]


@pytest.mark.parametrize("config, named", [
    ({"grid": {"k": 3}}, "'k'"),
    ({"grid": 5}, "'grid'"),
    ({"params": [1]}, "'params'"),
    ([1, 2], "object"),
    ({"trials": [1]}, "'trials'"),
    ({"seed": None}, "'seed'"),
    ({"trials": True}, "'trials'"),
], ids=["scalar-grid-value", "grid-not-object", "params-not-object", "top-level-array",
        "trials-list", "seed-null", "trials-bool"])
def test_cli_malformed_config_exits_2(tmp_path, capsys, config, named):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(config))
    assert cli.main(["tree-accuracy", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and named in err


def test_integral_float_trials_reads_as_the_integer(tmp_path):
    # trials and seed follow the one integer rule of every integer key: JSON's
    # 3000.0 is the integer 3000, and gives the same rows and files
    cfgd = default_spec("tree-accuracy").to_dict()
    cfgd["grid"] = {"k": [2, 4]}
    blobs = []
    for trials, seed in ((3000, 2), (3000.0, 2.0), (np.int64(3000), np.int64(2))):
        spec = ExperimentSpec.from_dict({**cfgd, "trials": trials, "seed": seed})
        assert type(spec.trials) is int and spec.trials == 3000
        assert type(spec.seed) is int and spec.seed == 2
        if isinstance(trials, np.integer):
            continue  # JSON has no numpy integers
        cfg, out = tmp_path / "c.json", tmp_path / "out.csv"
        cfg.write_text(json.dumps({**cfgd, "trials": trials, "seed": seed}))
        assert cli.main(["tree-accuracy", "--config", str(cfg), "--out", str(out),
                         "--deterministic"]) == 0
        blobs.append((out.read_bytes(), out.with_suffix(".json").read_bytes()))
    assert blobs[0] == blobs[1]
    stored = json.loads(blobs[1][1])["spec"]["trials"]
    assert type(stored) is int and stored == 3000


def _recover_config(**over):
    """The default graph-recover config at n = 400, with ``over`` in its params
    (a None value drops the key)."""
    cfgd = default_spec("graph-recover", trials=300).to_dict()
    params = {**cfgd["params"], "n": 400, **over}
    cfgd["params"] = {k: v for k, v in params.items() if v is not None}
    return cfgd


def _moments_config(**over):
    """The default moments-check config with ``over`` in its grid, or in
    its params for ``extra_configs``."""
    cfgd = default_spec("moments-check").to_dict()
    for key, value in over.items():
        cfgd["params" if key == "extra_configs" else "grid"][key] = value
    return cfgd


def _regime_config(**over):
    """A contraction-check config of one gw regime with ``over`` in it."""
    return {"params": {}, "grid": {"regimes": [{"d": 4.0, "theta": 0.5, **over}]}}


@pytest.mark.parametrize("kind, config, named", [
    # values the run would fail on at its start
    ("graph-recover", _recover_config(K=3), "K=3"),
    ("graph-recover", _recover_config(delta0=None), "delta0"),
    ("graph-recover", _recover_config(n=None), "'n'"),
    ("graph-recover", _recover_config(impl="spectral"), "spectral takes no delta0, not 0.25"),
    ("robust-accuracy", {"params": {"a": 30.0, "b": 4.0},
                         "grid": {"k": [2], "delta": [0.7]}}, "0.7"),
    # retired keys are unknown keys, not silently different runs
    ("tree-accuracy", {"params": {"a": 5.0, "b": 1.0, "clamp": 0.5}, "grid": {"k": [4]}},
     "'clamp'"),
    ("conductance-check", {"params": {"a": 30.0, "b": 4.0, "clamp": 0.5},
                           "grid": {"k": [2]}}, "'clamp'"),
    ("conductance-check", {"params": {"a": 30.0, "b": 4.0, "threshold": "x"},
                           "grid": {"k": [2]}},
     "unknown params keys for conductance-check: ['threshold']"),
    ("graph-recover", _recover_config(tree_k=0), "'tree_k'"),
    ("graph-recover", _recover_config(u_size=5), "'u_size'"),
    ("graph-recover", _recover_config(weights_delta=0.3), "'weights_delta'"),
    ("graph-recover", _recover_config(R_mode="auto"), "'R_mode'"),
    # tree-side grid values a runner would reject only once it started
    ("threshold-sweep", {"params": {"base_d": 2.0}, "grid": {"ksig": [2.5]}}, "2.5"),
    ("contraction-check", {"params": {}, "grid": {"regimes": [
        {"d": 4.0, "theta": 0.5, "zz": 1}]}}, "'zz'"),
    ("contraction-check", {"params": {}, "grid": {"regimes": [{"theta": 0.5}]}}, "'d'"),
    # tree-side values the chains would reject, or a runner would read wrong
    ("moments-check", _moments_config(d=[2.5]), "2.5"),
    ("moments-check", _moments_config(d=[1000], k=[6]), "1000**6"),
    ("moments-check", _moments_config(extra_configs=[[4]]),
     "'extra_configs' must hold pairs [d, theta], not [4]"),
    ("contraction-check", _regime_config(delta=0.7), "0.7"),
    ("contraction-check", _regime_config(tree_kind="zz"), "'zz'"),
    ("contraction-check", _regime_config(tree_kind="dary", d=4.5), "4.5"),
    ("contraction-check", _regime_config(d=-4), "-4"),
    ("tree-accuracy", {"params": {"d": 3.0, "theta": 1.5}, "grid": {"k": [2]}}, "1.5"),
    ("tree-accuracy", {"params": {"a": 5.0, "b": 1.0}, "grid": {"k": [-1, 2]}}, "-1"),
    ("tree-accuracy", {"params": {"a": 5.0, "b": 1.0}, "grid": {"k": [2.5]}}, "2.5"),
    ("conductance-check", {"params": {"a": 30.0, "b": 4.0}, "grid": {"k": [0, 2]}},
     "'k' must be >= 1, not [0]"),
    ("conductance-check", {"params": {"a": 30.0, "b": 4.0, "delta": None},
                           "grid": {"k": [2]}}, "'delta' must be a finite number, not None"),
    ("threshold-sweep", {"params": {"base_d": 0}, "grid": {"ksig": [0.5]}}, "0"),
    ("threshold-sweep", {"params": {"base_d": 2.5}, "grid": {"ksig": [-1]}}, "-1"),
    # graph-recover numbers: no truncation to an integer, no NaN
    ("graph-recover", _recover_config(n=400.5), "'n' must be an integer, not 400.5"),
    ("graph-recover", _recover_config(K=1.5), "'K' must be an integer, not 1.5"),
    ("graph-recover", _recover_config(R=2.5), "'R' must be an integer, not 2.5"),
    ("graph-recover", _recover_config(R="2"), "'R' must be an integer, not '2'"),
    ("graph-recover", _recover_config(a=math.nan), "'a' must be a finite number, not nan"),
    ("graph-recover", _recover_config(delta0="x"), "'delta0' must be a finite number, not 'x'"),
    # a number error names its key
    ("tree-accuracy", {"params": {"d": "x", "theta": 0.5}, "grid": {"k": [2]}},
     "'d' must be a finite number, not 'x'"),
    ("threshold-sweep", {"params": {"base_d": "x"}, "grid": {"ksig": [0.5]}},
     "'base_d' must be a finite number, not 'x'"),
    ("tree-accuracy", {"params": {"a": "x", "b": 1.0}, "grid": {"k": [2]}},
     "'a' must be a finite number, not 'x'"),
    ("contraction-check", _regime_config(theta="x"), "'theta' must be a finite number, not 'x'"),
    ("robust-accuracy", {"params": {"a": 30.0, "b": 4.0}, "grid": {"k": [2], "delta": ["x"]}},
     "'delta' must be a finite number, not 'x'"),
    # graph-recover repetitions: integers >= 0, apart from the summary rows' -1
    ("graph-recover", {**_recover_config(), "grid": {"rep": ["x"]}},
     "'rep' must be an integer, not 'x'"),
    ("graph-recover", {**_recover_config(), "grid": {"rep": [0, 1.5]}},
     "'rep' must be an integer, not 1.5"),
    ("graph-recover", {**_recover_config(), "grid": {"rep": [True]}},
     "'rep' must be an integer, not True"),
    ("graph-recover", {**_recover_config(), "grid": {"rep": [0, -1]}},
     "'rep' must be >= 0, not [-1]"),
    ("graph-recover", {**_recover_config(), "grid": {"rep": [0, 0, 0]}},
     "'rep' values must be distinct, not [0, 0, 0]"),
    # values a run would fail on after it started, or run to an empty table
    ("graph-recover", _recover_config(a=5.0, b=5.0), "a == b"),
    ("graph-recover", _recover_config(a=0.0, b=0.0), "a == b"),
    ("contraction-check", _regime_config(k=0), "'k' must be >= 1, not 0"),
    ("graph-recover", _recover_config(n=1), "'n' must be >= 2, not 1"),
    ("graph-recover", _recover_config(R=0), "'R' must be >= 1, not 0"),
    # values of the wrong shape: a ValueError that names the key
    ("contraction-check", {"params": {}, "grid": {"regimes": [["d", "theta"]]}},
     "'regimes' must hold objects, not ['d', 'theta']"),
    ("contraction-check", {"params": {}, "grid": {"regimes": [5]}},
     "'regimes' must hold objects, not 5"),
    ("moments-check", _moments_config(extra_configs=5),
     "'extra_configs' must hold pairs [d, theta], not 5"),
], ids=["K-above-R", "oracle-without-delta0", "no-n", "spectral-with-delta0", "delta-0.7",
        "tree-clamp", "conductance-clamp", "threshold-x", "tree_k", "u_size", "weights_delta",
        "R-with-auto",
        "ksig-unreachable", "regime-zz", "regime-no-d",
        "moments-d-2.5", "moments-d-pow-k", "moments-extra-not-a-pair", "regime-delta-0.7",
        "regime-kind-zz", "regime-dary-4.5", "regime-d-negative", "theta-1.5", "k-negative",
        "k-2.5", "conductance-k-0", "conductance-delta-null", "base_d-0", "ksig-negative",
        "n-400.5", "K-1.5", "R-2.5", "R-string", "a-nan", "delta0-string",
        "d-string",
        "base_d-string", "a-string", "regime-theta-string", "delta-string",
        "rep-string", "rep-1.5", "rep-true", "rep-negative", "rep-repeated",
        "a-equals-b", "a-b-zero", "regime-k-0", "n-1", "R-0",
        "regime-list", "regime-int", "moments-extra-not-a-list"])
def test_cli_rejects_before_running(tmp_path, capsys, kind, config, named):
    cfg, out = tmp_path / "c.json", tmp_path / "out.csv"
    cfg.write_text(json.dumps(config))
    assert cli.main([kind, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and named in err, err
    assert not out.exists()


def test_cli_rejects_bad_config(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"kind": "tree-accuracy", "woops": 1}))
    assert cli.main(["tree-accuracy", "--config", str(cfg)]) == 2
    cfg2 = tmp_path / "mismatch.json"
    cfg2.write_text(json.dumps({"kind": "robust-accuracy"}))
    assert cli.main(["tree-accuracy", "--config", str(cfg2)]) == 2
