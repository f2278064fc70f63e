"""Experiment driver: specs, Monte Carlo runners, and CSV/JSON persistence.

An experiment is described by an ``ExperimentSpec`` (kind, parameterization,
swept grid, trial count, master seed) and produces ``ResultRow`` records,
written in a fixed per-kind column layout whose ``experiment`` is the kind:

    experiment,<kind-specific coordinates>,estimate,ci,trials,seconds

Confidence intervals are normal-approximation half-widths with z = 2.576
(99%).  Every runner is a pure function of (spec, seed): independent units
get streams derived from the master seed by key and results are merged in a
fixed order.  contraction-check's regimes, threshold-sweep's points and
graph-recover's repetitions are such units, and they run on one thread per
unit up to the usable cores (``popdyn._map_chains``), where a repetition
runs ``recover``'s side work after its edge passes unless its thread has
two cores to itself; so do the trial blocks of each moments-check config's
level sums, of ``popdyn._TRIAL_BLOCK`` trials each, a size that is part of
their stream.  A config holds its level
sums as small exact integers, one block's counts per running thread and one
level's float64 row at a time.  The rows are the same at any core count.
``write_results(..., deterministic=True)`` writes the wall-time column as
0.0, so reruns are byte-identical.

Each kind is one ``_Kind`` record in ``_KINDS``: runner, setup, accepted
keys, CSV coordinate columns and default spec.  The setup reads the values
the runner starts from and checks each engine call the runner will make,
once, with the tree engines' own checks; ``run_experiment`` calls it once
and hands what it returns to the runner.

The noise levels of robust-accuracy (and of each moments-check config) come
from one call that draws the trees and spins once and carries every level
through them, so the levels share structure and spins, and delta = 0
reproduces the noiseless rows exactly.  A row's ``seconds`` is the wall time
of the call that made it; where one call serves several levels, each level's
rows carry an equal share, so the shares still add up to the call's time.

Config files are JSON objects with exactly the keys
{"kind", "params", "grid", "trials", "seed"} (the last two optional
integers), where params is an object and grid an object of nonempty lists
with exactly its kind's keys; unknown keys anywhere are rejected, and
``check_spec`` runs the kind's setup, which rejects the values a run would
fail on, a d, k or rep that is not an integer where the run needs one, and
a repeated rep.
"""

from __future__ import annotations

import copy
import json
import math
import time
from collections.abc import Callable
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import popdyn
from .broadcast import _check_offspring
from .params import ModelParams, derive_tree_params
from .partition import _check_blackbox
from .pipeline import AlgoConfig, recover, resolve_radius
from .popdyn import (_check_chain_inputs, _check_conductance_inputs,
                     _check_dary_sum_inputs, _map_chains, ci_half_width)
from .randgraph import sample_sbm
from .seeding import derived_rng

__all__ = [
    "KINDS",
    "ExperimentSpec",
    "ResultRow",
    "check_spec",
    "run_experiment",
    "write_results",
    "default_spec",
]

DEFAULT_TRIALS = 20_000

_TREE_PARAM_KEYS = {"a", "b", "d", "theta", "tree_kind"}


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment: what to sweep, how many trials, which master seed."""

    kind: str
    params: dict = field(default_factory=dict)
    grid: dict = field(default_factory=dict)
    trials: int = DEFAULT_TRIALS
    seed: int = 0

    def __post_init__(self):
        kind = _kind(self.kind)
        for key, low in (("trials", 1), ("seed", 0)):
            object.__setattr__(self, key, _integer(key, getattr(self, key), low=low))
        if not isinstance(self.params, dict):
            raise ValueError("'params' must be an object")
        if not isinstance(self.grid, dict):
            raise ValueError("'grid' must be an object")
        _keys(f"params keys for {self.kind}", self.params, kind.params)
        if set(self.grid) != set(kind.default_grid):
            raise ValueError(f"grid keys for {self.kind} must be {sorted(kind.default_grid)}, "
                             f"not {sorted(self.grid)}")
        for key, values in self.grid.items():
            if not isinstance(values, (list, tuple)) or not values:
                raise ValueError(f"grid key {key!r} must be a nonempty list")
        # the spec owns its dicts: no caller's later edit reaches it
        object.__setattr__(self, "params", copy.deepcopy(self.params))
        object.__setattr__(self, "grid", copy.deepcopy(self.grid))

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentSpec":
        if not isinstance(data, dict):
            raise ValueError("config must be a JSON object")
        _keys("config keys", data, {"kind", "params", "grid", "trials", "seed"}, {"kind"})
        return cls(**data)

    def to_dict(self) -> dict:
        return asdict(self)  # copies params and grid


@dataclass(frozen=True)
class ResultRow:
    coords: dict
    estimate: float
    ci: float
    trials: int
    seconds: float


def _keys(what: str, given: dict, known: set, required: set = frozenset()) -> None:
    """Raise ValueError, naming the keys, unless ``given``'s keys are among
    ``known`` and include ``required``."""
    bad, missing = given.keys() - known, required - given.keys()
    if bad:
        raise ValueError(f"unknown {what}: {sorted(bad)}")
    if missing:
        raise ValueError(f"{what} must include {sorted(missing)}")


def _integer(key: str, value, low: int | None = None) -> int:
    """``value`` as an int, at least ``low`` when one is given: an integer, or
    an integral float such as JSON's 2.0."""
    if isinstance(value, bool) or not (isinstance(value, (int, np.integer)) or (
            isinstance(value, float) and value.is_integer())):
        raise ValueError(f"{key!r} must be an integer, not {value!r}")
    if low is not None and value < low:
        raise ValueError(f"{key!r} must be >= {low}, not {int(value)}")
    return int(value)


def _number(key: str, value) -> float:
    """``value`` as a float: a finite int or float, not a string or a bool."""
    if (isinstance(value, (int, float, np.integer, np.floating))
            and not isinstance(value, bool) and math.isfinite(value)):
        return float(value)
    raise ValueError(f"{key!r} must be a finite number, not {value!r}")


def _tree_parameterization(spec: ExperimentSpec):
    """(tree kind, d, theta) from either (a, b) or direct (d, theta) params."""
    p = spec.params
    kind = p.get("tree_kind", "gw")
    if p.keys() & {"a", "b", "d", "theta"} not in ({"a", "b"}, {"d", "theta"}):
        raise ValueError("give exactly one of the pairs (a, b) or (d, theta)")
    if "a" in p:
        tp = derive_tree_params(ModelParams(n=10 ** 9, a=_number("a", p["a"]),
                                            b=_number("b", p["b"])))
        d, theta = tp.d, tp.theta
    else:
        d, theta = _number("d", p["d"]), _number("theta", p["theta"])
    _check_offspring(kind, d)
    return kind, d, theta


def _grid_integers(spec: ExperimentSpec, key: str, low: int = 0) -> list[int]:
    """The grid's ``key`` values as integers, in grid order, each at least ``low``."""
    return [_integer(key, x, low) for x in spec.grid[key]]


# --- runners ---------------------------------------------------------------


def _accuracy_setup(spec: ExperimentSpec):
    """(tree kind, d, theta, depths, noise levels) of tree-accuracy or
    robust-accuracy, checked; tree-accuracy's one noise level is 0."""
    kind, d, theta = _tree_parameterization(spec)
    ks = sorted(_grid_integers(spec, "k"))
    deltas = [_number("delta", x) for x in spec.grid.get("delta", [0.0])]
    _check_chain_inputs(theta, max(ks), spec.trials, deltas)
    return kind, d, theta, ks, deltas


def run_accuracy(spec: ExperimentSpec, plan) -> list[ResultRow]:
    """tree-accuracy rows, or robust-accuracy rows at each grid delta."""
    kind, d, theta, ks, deltas = plan
    t0 = time.perf_counter()
    chains = popdyn.magnetization_chain(
        kind, d, theta, max(ks), spec.trials, derived_rng(spec.seed, "chain"), delta=deltas,
    )
    dt = (time.perf_counter() - t0) / len(deltas)
    out = []
    for delta, (rows, _) in zip(deltas, chains):
        for k in ks:
            r = rows[k]
            out.append(ResultRow(
                coords={"tree_kind": kind, "d": d, "theta": theta, "delta": delta, "k": k},
                estimate=0.5 * (1.0 + r["absy_mean"]), ci=0.5 * r["absy_ci"],
                trials=spec.trials, seconds=dt,
            ))
    return out


def _moments_setup(spec: ExperimentSpec):
    """(configs, noise levels, depths) of moments-check, checked; a config is
    the (d, theta) of a d-ary tree."""
    ds = [_integer("d", x) for x in spec.grid["d"]]
    thetas = [_number("theta", x) for x in spec.grid["theta"]]
    deltas = [_number("delta", x) for x in spec.grid["delta"]]
    ks = sorted(_grid_integers(spec, "k"))
    configs = [(d, th) for d in ds for th in thetas]
    extras = spec.params.get("extra_configs", [])
    for c in extras if isinstance(extras, (list, tuple)) else [extras]:
        if not isinstance(c, (list, tuple)) or len(c) != 2:
            raise ValueError(f"'extra_configs' must hold pairs [d, theta], not {c!r}")
        configs.append((_integer("d", c[0]), _number("theta", c[1])))
    for d, theta in configs:
        _check_dary_sum_inputs(d, theta, max(ks), spec.trials, deltas)
    return configs, deltas, ks


def run_moments_check(spec: ExperimentSpec, plan) -> list[ResultRow]:
    configs, deltas, ks = plan
    out = []
    for cfg_idx, (d, theta) in enumerate(configs):
        out += _moment_rows(spec, cfg_idx, d, theta, deltas, ks)
    return out


def _moment_rows(spec: ExperimentSpec, cfg_idx: int, d: int, theta: float,
                 deltas: list, ks: list) -> list[ResultRow]:
    """One config's rows.  Its integer level sums are freed on return, before
    the next config draws its own; a level's row is float64 only for its own."""
    from .estimators import majority_moments

    t0 = time.perf_counter()
    # independent trials (not the population chain): exact CIs
    sums = popdyn.dary_sum_trials(
        d, theta, max(ks), spec.trials,
        derived_rng(spec.seed, "sums", cfg_idx), delta=deltas,
    )
    dt = (time.perf_counter() - t0) / len(deltas)
    out = []
    for delta, (s, sn) in zip(deltas, sums):
        for k in ks:
            mom = majority_moments(d, theta, k, delta=delta)
            for stat, row, targets in (("s", s[k], (mom.mean, mom.var)),
                                       ("sn", sn[k], (mom.noisy_mean, mom.noisy_var))):
                vals = row.astype(np.float64)
                sq = (vals - vals.mean()) ** 2
                for moment, x, target in (("mean", vals, targets[0]), ("var", sq, targets[1])):
                    out.append(ResultRow(
                        coords={"d": d, "theta": theta, "delta": delta,
                                "k": k, "stat": f"{stat}_{moment}", "target": target},
                        estimate=float(x.mean()), ci=ci_half_width(float(x.std()), spec.trials),
                        trials=spec.trials, seconds=dt,
                    ))
    return out


def _ratio_and_ci(num_mean, num_ci, den_mean, den_ci):
    """Delta-method CI for a ratio of two means; nan when degenerate."""
    if den_mean <= 0.0 or num_mean < 0.0:
        return float("nan"), float("nan")
    r = num_mean / den_mean
    if num_mean == 0.0:
        return 0.0, num_ci / den_mean
    rel = math.sqrt((num_ci / num_mean) ** 2 + (den_ci / den_mean) ** 2)
    return r, r * rel


def _regimes(spec: ExperimentSpec) -> list[tuple[str, float, float, float, int]]:
    """(tree kind, d, theta, delta, k) of each contraction-check regime, checked."""
    out = []
    for regime in spec.grid["regimes"]:
        if not isinstance(regime, dict):
            raise ValueError(f"'regimes' must hold objects, not {regime!r}")
        _keys("regime keys", regime, {"tree_kind", "d", "theta", "delta", "k"}, {"d", "theta"})
        kind = regime.get("tree_kind", "gw")
        d, theta = _number("d", regime["d"]), _number("theta", regime["theta"])
        delta = _number("delta", regime.get("delta", 0.4))
        k = _integer("k", regime.get("k", 8), low=1)
        _check_offspring(kind, d)
        _check_chain_inputs(theta, k, spec.trials, [delta])
        out.append((kind, d, theta, delta, k))
    return out


def run_contraction_check(spec: ExperimentSpec, regimes) -> list[ResultRow]:
    def regime_rows(idx: int, regime) -> list[ResultRow]:
        kind, d, theta, delta, kmax = regime
        t0 = time.perf_counter()
        rows, _ = popdyn.magnetization_chain(
            kind, d, theta, kmax, spec.trials,
            derived_rng(spec.seed, "contraction", idx), delta=delta,
        )
        dt = time.perf_counter() - t0
        base = {"tree_kind": kind, "d": d, "theta": theta, "delta": delta}
        out = []
        for lev in range(1, kmax + 1):
            cur, prev = rows[lev], rows[lev - 1]
            metrics = [
                ("diff2", cur["diff2_mean"], cur["diff2_ci"]),
                ("sqrtdiff", cur["sqrtdiff_mean"], cur["sqrtdiff_ci"]),
                ("diff2_ratio", *_ratio_and_ci(cur["diff2_mean"], cur["diff2_ci"],
                                               prev["diff2_mean"], prev["diff2_ci"])),
                ("sqrtdiff_ratio", *_ratio_and_ci(cur["sqrtdiff_mean"], cur["sqrtdiff_ci"],
                                                  prev["sqrtdiff_mean"], prev["sqrtdiff_ci"])),
            ]
            for metric, est, half in metrics:
                out.append(ResultRow(
                    coords={**base, "level": lev, "metric": metric},
                    estimate=est, ci=half, trials=spec.trials, seconds=dt,
                ))
        return out

    return [row for rows in _map_chains(regime_rows, regimes) for row in rows]


def _sweep_setup(spec: ExperimentSpec) -> tuple[float, int, list[tuple[float, float]]]:
    """(base_d, k, [(ksig, theta)]) of threshold-sweep, checked: theta^2 base_d
    = ksig, and theta must stay below 1."""
    base_d = _number("base_d", spec.params.get("base_d", 2.5))
    k = _integer("k", spec.params.get("k", 12))
    _check_offspring("gw", base_d)
    points = []
    for ksig in (_number("ksig", x) for x in spec.grid["ksig"]):
        if not ksig >= 0.0:
            raise ValueError(f"ksig must be >= 0, not {ksig:g}")
        theta = math.sqrt(ksig / base_d)
        if theta >= 1.0:
            raise ValueError(f"theta^2 d = {ksig:g} is unreachable with base_d = {base_d:g}")
        _check_chain_inputs(theta, k, spec.trials, [0.0])
        points.append((ksig, theta))
    return base_d, k, points


def run_threshold_sweep(spec: ExperimentSpec, plan) -> list[ResultRow]:
    base_d, k, points = plan

    def point_row(idx: int, point) -> ResultRow:
        ksig, theta = point
        t0 = time.perf_counter()
        rows, _ = popdyn.magnetization_chain(
            "gw", base_d, theta, k, spec.trials,
            derived_rng(spec.seed, "sweep", idx), delta=0.0,
        )
        dt = time.perf_counter() - t0
        r = rows[k]
        return ResultRow(
            coords={"d": base_d, "theta": theta, "ksig": ksig, "k": k},
            estimate=0.5 * r["absx_mean"], ci=0.5 * r["absx_ci"],
            trials=spec.trials, seconds=dt,
        )

    return _map_chains(point_row, points)


def _conductance_setup(spec: ExperimentSpec):
    """(tree kind, d, theta, delta, depths, threshold) of conductance-check,
    checked; the threshold is theta^2 d / (16 eta)."""
    kind, d, theta = _tree_parameterization(spec)
    delta = _number("delta", spec.params.get("delta", 0.0))
    ks = sorted(_grid_integers(spec, "k", low=1))
    _check_conductance_inputs(theta, max(ks), spec.trials, delta, set(ks))
    eta = 0.5 * (1.0 - theta)
    return kind, d, theta, delta, ks, theta * theta * d / (16.0 * eta)


def run_conductance_check(spec: ExperimentSpec, plan) -> list[ResultRow]:
    """Per depth k: the fraction of the level-k pool at or above the
    threshold, and the chain's own mean conductance row for level k."""
    kind, d, theta, delta, ks, threshold = plan
    t0 = time.perf_counter()
    rows, pools = popdyn.conductance_chain(
        kind, d, theta, max(ks), spec.trials,
        derived_rng(spec.seed, "conductance"), delta=delta, keep_levels=set(ks),
    )
    dt = time.perf_counter() - t0
    out = []
    for k in ks:
        base = {"tree_kind": kind, "d": d, "theta": theta, "delta": delta, "k": k,
                "threshold": threshold}
        frac = float((pools[k] >= threshold).mean())
        out.append(ResultRow(
            coords={**base, "metric": "frac_above"}, estimate=frac,
            ci=ci_half_width(math.sqrt(frac * (1.0 - frac)), spec.trials),
            trials=spec.trials, seconds=dt,
        ))
        out.append(ResultRow(
            coords={**base, "metric": "ceff_mean"}, estimate=rows[k - 1]["ceff_mean"],
            ci=rows[k - 1]["ceff_ci"], trials=spec.trials, seconds=dt,
        ))
    return out


def _recover_setup(spec: ExperimentSpec):
    """(model, tree params, algorithm, radius, impl, delta0, reps) from
    graph-recover's params n, a, b, impl, delta0, R and K and grid reps
    (distinct, >= 0; the summary rows take -1), checked; a given R is fixed,
    and without one the radius rule picks it.  The matched tree row runs on
    the tree params at the radius."""
    p = spec.params
    _keys("params keys for graph-recover", p, _KINDS["graph-recover"].params, {"n", "a", "b"})
    # the floor(sqrt(n)) hold-out would take a lone vertex's whole graph
    params = ModelParams(n=_integer("n", p["n"], low=2), a=_number("a", p["a"]),
                         b=_number("b", p["b"]))
    tp = derive_tree_params(params)
    r = None if p.get("R") is None else _integer("R", p["R"], low=1)
    cfg = AlgoConfig(R=r, R_mode="auto" if r is None else "fixed",
                     K=_integer("K", p.get("K", 1)))
    impl = p.get("impl", "spectral")
    delta0 = None if p.get("delta0") is None else _number("delta0", p["delta0"])
    _check_blackbox(impl, delta0)
    reps = _grid_integers(spec, "rep")
    if len(set(reps)) < len(reps):
        raise ValueError(f"'rep' values must be distinct, not {reps}")
    return (params, tp, cfg, resolve_radius(cfg, params.n, params.a, params.b), impl, delta0,
            reps)


def _recover_rep(spec: ExperimentSpec, plan, rep: int) -> dict:
    """One repetition: a graph and a recovery on streams derived from ``rep``."""
    params, _, cfg, _, impl, delta0, _ = plan
    g = sample_sbm(params, seed=derived_rng(spec.seed, "graph", rep))
    rep_seed = int(derived_rng(spec.seed, "recover", rep).integers(2 ** 62))
    t0 = time.perf_counter()
    res = recover(g, cfg, params, impl=impl, seed=rep_seed, delta0=delta0)
    return {
        "rep": rep,
        "accuracy": res.accuracy,
        "coin_frac": res.diagnostics.coin_labels / g.n,
        "nontree_frac": res.diagnostics.nontree_neighborhoods / g.n,
        "rounding_zeros": float(res.diagnostics.rounding_zeros),
        "seconds": time.perf_counter() - t0,
    }


def run_graph_recover(spec: ExperimentSpec, plan) -> list[ResultRow]:
    params, tp, cfg, r_used, impl, delta0, reps = plan
    results = _map_chains(lambda _, rep: _recover_rep(spec, plan, rep), reps)
    base = {
        "n": params.n, "a": params.a, "b": params.b, "impl": impl,
        "delta0": -1.0 if delta0 is None else delta0, "R": r_used, "K": cfg.K,
    }
    out = []
    # per rep: accuracy, then the fractions of all n vertices that were
    # labelled by a coin (hold-out included) and whose walk tree revisits a
    # vertex (a sample estimate), and the count of float sums the relative
    # zero test set to 0
    for res in results:
        for metric in ("accuracy", "coin_frac", "nontree_frac", "rounding_zeros"):
            out.append(ResultRow(
                coords={**base, "rep": res["rep"], "metric": metric},
                estimate=res[metric], ci=0.0, trials=1,
                seconds=res["seconds"] if metric == "accuracy" else 0.0,
            ))
    accs = np.array([res["accuracy"] for res in results])
    out.append(ResultRow(
        coords={**base, "rep": -1, "metric": "mean_accuracy"},
        estimate=float(accs.mean()),
        ci=ci_half_width(float(accs.std()), len(accs)),
        trials=len(accs), seconds=float(sum(r["seconds"] for r in results)),
    ))
    # matched tree simulation at the same depth
    t0 = time.perf_counter()
    rows, _ = popdyn.magnetization_chain(
        "gw", tp.d, tp.theta, r_used, spec.trials,
        derived_rng(spec.seed, "tree-sim"), delta=0.0,
    )
    r = rows[r_used]
    p_hat = 0.5 * (1.0 + r["absx_mean"])
    out.append(ResultRow(
        coords={**base, "rep": -1, "metric": "tree_p_hat"},
        estimate=p_hat, ci=0.5 * r["absx_ci"], trials=spec.trials,
        seconds=time.perf_counter() - t0,
    ))
    out.append(ResultRow(
        coords={**base, "rep": -1, "metric": "gap"},
        estimate=float(accs.mean()) - p_hat,
        ci=ci_half_width(float(accs.std()), len(accs)) + 0.5 * r["absx_ci"],
        trials=len(accs), seconds=0.0,
    ))
    return out


@dataclass(frozen=True)
class _Kind:
    """One experiment kind.

    ``setup(spec)`` reads the values the runner starts from and raises
    ValueError, naming the value, where the run would fail on one;
    ``run(spec, plan)`` makes the rows from what the setup returned, with
    any independent units on ``_map_chains``'s usable-core threads.
    ``params`` holds the params keys a spec may give, ``columns`` the CSV
    coordinate columns in order.  ``default_params`` and ``default_grid`` make
    the spec ``default_spec`` builds; a spec's grid has ``default_grid``'s keys.
    """

    run: Callable[[ExperimentSpec, object], list[ResultRow]]
    setup: Callable[[ExperimentSpec], object]
    params: set
    columns: tuple
    default_params: dict
    default_grid: dict


_KINDS = {
    "tree-accuracy": _Kind(
        run_accuracy, _accuracy_setup, _TREE_PARAM_KEYS, ("tree_kind", "d", "theta", "k"),
        {"a": 5.0, "b": 1.0}, {"k": list(range(2, 11))},
    ),
    "robust-accuracy": _Kind(
        run_accuracy, _accuracy_setup, _TREE_PARAM_KEYS,
        ("tree_kind", "d", "theta", "delta", "k"),
        {"a": 30.0, "b": 4.0}, {"k": [2, 4, 6, 8], "delta": [0.0, 0.2, 0.4]},
    ),
    "moments-check": _Kind(
        run_moments_check, _moments_setup, {"extra_configs"},
        ("d", "theta", "delta", "k", "stat", "target"),
        {"extra_configs": [[4, 0.5]]},
        {"d": [2, 3], "theta": [0.5, 0.8], "delta": [0.0, 0.2], "k": [1, 2, 3, 4, 5]},
    ),
    "contraction-check": _Kind(
        run_contraction_check, _regimes, set(),
        ("tree_kind", "d", "theta", "delta", "level", "metric"),
        {},
        {"regimes": [
            {"tree_kind": "gw", "d": 64.0, "theta": 0.3, "delta": 0.4, "k": 8},
            {"tree_kind": "gw", "d": 40.0, "theta": 0.9, "delta": 0.4, "k": 8},
            {"tree_kind": "dary", "d": 64, "theta": 0.3, "delta": 0.4, "k": 8},
            {"tree_kind": "dary", "d": 40, "theta": 0.9, "delta": 0.4, "k": 8},
        ]},
    ),
    "threshold-sweep": _Kind(
        run_threshold_sweep, _sweep_setup, {"base_d", "k"}, ("d", "theta", "ksig", "k"),
        {"base_d": 2.5, "k": 12}, {"ksig": [0.5, 0.8, 1.0, 1.25, 2.0]},
    ),
    "conductance-check": _Kind(
        run_conductance_check, _conductance_setup, _TREE_PARAM_KEYS | {"delta"},
        ("tree_kind", "d", "theta", "delta", "k", "threshold", "metric"),
        {"a": 30.0, "b": 4.0}, {"k": [2, 4, 6]},
    ),
    "graph-recover": _Kind(
        run_graph_recover, _recover_setup,
        {"n", "a", "b", "impl", "delta0", "R", "K"},
        ("n", "a", "b", "impl", "delta0", "R", "K", "rep", "metric"),
        {"n": 2000, "a": 30.0, "b": 4.0, "impl": "oracle-noise",
         "delta0": 0.25, "R": 2, "K": 1},
        {"rep": [0, 1, 2]},
    ),
}

KINDS = tuple(_KINDS)


def _kind(kind: str) -> _Kind:
    if kind not in KINDS:
        raise ValueError(f"unknown experiment kind in {KINDS}: {kind!r}")
    return _KINDS[kind]


def check_spec(spec: ExperimentSpec) -> None:
    """Raise ValueError, naming the value, where the spec's run would fail on one."""
    _KINDS[spec.kind].setup(spec)


def run_experiment(spec: ExperimentSpec) -> list[ResultRow]:
    """Run a spec: its kind's setup once, then its runner on what that returned."""
    record = _KINDS[spec.kind]
    return record.run(spec, record.setup(spec))


# --- persistence -----------------------------------------------------------


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):  # bool included
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return repr(float(x))  # shortest exact round-trip
    return str(x)


def _jsonable(x):
    if isinstance(x, (float, np.floating)):
        return None if math.isnan(float(x)) else float(x)
    if isinstance(x, (int, np.integer, bool)):
        return int(x)
    return x


def write_results(rows: list[ResultRow], spec: ExperimentSpec, path,
                  deterministic: bool = False) -> Path:
    """Write the CSV table and a JSON mirror (same stem, .json suffix).

    The JSON mirror embeds the full spec so a result file alone is enough to
    reproduce the run.  NaN estimates (degenerate ratio rows) appear as "nan"
    in the CSV and null in the JSON.  Deterministic mode writes every
    ``seconds`` as 0.0, the one place the harness zeroes wall times.
    """
    path = Path(path)
    if deterministic:
        rows = [replace(r, seconds=0.0) for r in rows]
    coord_cols = _KINDS[spec.kind].columns
    header = ["experiment", *coord_cols, "estimate", "ci", "trials", "seconds"]
    lines = [",".join(header)]
    for r in rows:
        vals = [spec.kind]
        vals += [_fmt(r.coords.get(c, "")) for c in coord_cols]
        vals += [_fmt(r.estimate), _fmt(r.ci), _fmt(r.trials), _fmt(r.seconds)]
        lines.append(",".join(vals))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")
    mirror = {
        "spec": spec.to_dict(),
        "deterministic": deterministic,
        "rows": [
            {
                "experiment": spec.kind,
                **{c: _jsonable(r.coords.get(c)) for c in coord_cols},
                "estimate": _jsonable(r.estimate),
                "ci": _jsonable(r.ci),
                "trials": r.trials,
                "seconds": r.seconds,
            }
            for r in rows
        ],
    }
    path.with_suffix(".json").write_text(
        json.dumps(mirror, indent=2, sort_keys=True) + "\n"
    )
    return path


def default_spec(kind: str, trials: int | None = None, seed: int = 0) -> ExperimentSpec:
    """Ready-to-run spec per subcommand; the CLI's starting point."""
    record = _kind(kind)
    return ExperimentSpec(
        kind=kind, params=record.default_params, grid=record.default_grid,
        trials=DEFAULT_TRIALS if trials is None else trials, seed=seed,
    )
