"""Experiment driver: specs, Monte Carlo runners, and CSV/JSON persistence.

An experiment is described by an ``ExperimentSpec`` (kind, parameterization,
swept grid, trial count, master seed) and produces ``ResultRow`` records with
a fixed per-kind column layout:

    experiment,<kind-specific coordinates>,estimate,ci,trials,seconds

Confidence intervals are normal-approximation half-widths with z = 2.576
(99%).  Every runner is a pure function of (spec, seed): independent jobs get
streams derived from the master seed by key and results are merged in a fixed
order.  ``write_results(..., deterministic=True)`` writes the wall-time column
as 0.0, so reruns are byte-identical.

Each kind is one ``_Kind`` record in ``_KINDS``: runner, accepted keys, CSV
coordinate columns and default spec.

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
``check_spec`` rejects the values a run would fail on at its start.
"""

from __future__ import annotations

import copy
import json
import math
import time
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import popdyn
from .params import ModelParams, derive_tree_params
from .levels import _terminal_conductance
from .partition import _check_blackbox
from .pipeline import AlgoConfig, recover, resolve_radius
from .popdyn import Z99, ci_half_width
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
    "Z99",
    "ci_half_width",
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
        for key, low, value in (("trials", 1, self.trials), ("seed", 0, self.seed)):
            if type(value) is not int or value < low:  # bool is not an integer here
                raise ValueError(f"{key!r} must be an integer >= {low}, not {value!r}")
        if not isinstance(self.params, dict):
            raise ValueError("'params' must be an object")
        if not isinstance(self.grid, dict):
            raise ValueError("'grid' must be an object")
        bad = set(self.params) - kind.params
        if bad:
            raise ValueError(f"unknown params keys for {self.kind}: {sorted(bad)}")
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
        bad = set(data) - {"kind", "params", "grid", "trials", "seed"}
        if bad:
            raise ValueError(f"unknown config keys: {sorted(bad)}")
        if "kind" not in data:
            raise ValueError("config needs a 'kind'")
        return cls(**data)

    def to_dict(self) -> dict:
        return asdict(self)  # copies params and grid


@dataclass(frozen=True)
class ResultRow:
    experiment: str
    coords: dict
    estimate: float
    ci: float
    trials: int
    seconds: float


def _tree_parameterization(spec: ExperimentSpec):
    """(tree kind, d, theta) from either (a, b) or direct (d, theta) params."""
    p = spec.params
    kind = p.get("tree_kind", "gw")
    if kind not in ("gw", "dary"):
        raise ValueError("tree_kind must be 'gw' or 'dary'")
    has_ab = "a" in p or "b" in p
    has_dt = "d" in p or "theta" in p
    if has_ab == has_dt or not ({"a", "b"} <= p.keys() or {"d", "theta"} <= p.keys()):
        raise ValueError("give exactly one of the pairs (a, b) or (d, theta)")
    if has_ab:
        tp = derive_tree_params(ModelParams(n=10 ** 9, a=p["a"], b=p["b"]))
        return kind, tp.d, tp.theta
    return kind, float(p["d"]), float(p["theta"])


# --- runners ---------------------------------------------------------------


def run_accuracy(spec: ExperimentSpec, threads: int = 1) -> list[ResultRow]:
    """tree-accuracy rows, or robust-accuracy rows at each grid delta."""
    deltas = [float(x) for x in spec.grid["delta"]] if "delta" in spec.grid else [None]
    kind, d, theta = _tree_parameterization(spec)
    ks = sorted(int(k) for k in spec.grid["k"])
    t0 = time.perf_counter()
    chains = popdyn.magnetization_chain(
        kind, d, theta, max(ks), spec.trials, derived_rng(spec.seed, "chain"),
        delta=[0.0 if delta is None else delta for delta in deltas],
    )
    dt = (time.perf_counter() - t0) / len(deltas)
    out = []
    for delta, (rows, _) in zip(deltas, chains):
        for k in ks:
            r = rows[k]
            coords = {"tree_kind": kind, "d": d, "theta": theta, "k": k}
            if delta is not None:
                coords["delta"] = delta
            out.append(ResultRow(
                experiment=spec.kind, coords=coords,
                estimate=0.5 * (1.0 + r["absy_mean"]), ci=0.5 * r["absy_ci"],
                trials=spec.trials, seconds=dt,
            ))
    return out


def run_moments_check(spec: ExperimentSpec, threads: int = 1) -> list[ResultRow]:
    from .estimators import majority_moments

    ds = [int(x) for x in spec.grid["d"]]
    thetas = [float(x) for x in spec.grid["theta"]]
    deltas = [float(x) for x in spec.grid["delta"]]
    ks = sorted(int(x) for x in spec.grid["k"])
    configs = [(d, th) for d in ds for th in thetas]
    configs += [tuple(c) for c in spec.params.get("extra_configs", [])]
    out = []
    for cfg_idx, (d, theta) in enumerate(configs):
        t0 = time.perf_counter()
        # independent trials (not the population chain): exact CIs
        sums = popdyn.dary_sum_trials(
            int(d), theta, max(ks), spec.trials,
            derived_rng(spec.seed, "sums", cfg_idx), delta=deltas,
        )
        dt = (time.perf_counter() - t0) / len(deltas)
        for delta, (s, sn) in zip(deltas, sums):
            for k in ks:
                mom = majority_moments(int(d), theta, k, delta=delta)
                quads = []
                for stat, vals, target in (("s", s[k], (mom.mean, mom.var)),
                                           ("sn", sn[k], (mom.noisy_mean, mom.noisy_var))):
                    mean_tgt, var_tgt = target
                    quads.append((f"{stat}_mean", float(vals.mean()),
                                  ci_half_width(float(vals.std()), spec.trials),
                                  mean_tgt))
                    sq = (vals - vals.mean()) ** 2
                    quads.append((f"{stat}_var", float(sq.mean()),
                                  ci_half_width(float(sq.std()), spec.trials),
                                  var_tgt))
                for stat, est, half, target in quads:
                    out.append(ResultRow(
                        experiment=spec.kind,
                        coords={"d": int(d), "theta": theta, "delta": delta,
                                "k": k, "stat": stat, "target": target},
                        estimate=est, ci=half, trials=spec.trials, seconds=dt,
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


def run_contraction_check(spec: ExperimentSpec, threads: int = 1) -> list[ResultRow]:
    out = []
    for idx, regime in enumerate(spec.grid["regimes"]):
        bad = set(regime) - {"tree_kind", "d", "theta", "delta", "k"}
        if bad:
            raise ValueError(f"unknown regime keys: {sorted(bad)}")
        kind = regime.get("tree_kind", "gw")
        d, theta = float(regime["d"]), float(regime["theta"])
        delta = float(regime.get("delta", 0.4))
        kmax = int(regime.get("k", 8))
        t0 = time.perf_counter()
        rows, _ = popdyn.magnetization_chain(
            kind, d, theta, kmax, spec.trials,
            derived_rng(spec.seed, "contraction", idx), delta=delta,
        )
        dt = time.perf_counter() - t0
        base = {"tree_kind": kind, "d": d, "theta": theta, "delta": delta}
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
                    experiment=spec.kind,
                    coords={**base, "level": lev, "metric": metric},
                    estimate=est, ci=half, trials=spec.trials, seconds=dt,
                ))
    return out


def run_threshold_sweep(spec: ExperimentSpec, threads: int = 1) -> list[ResultRow]:
    base_d = float(spec.params.get("base_d", 2.5))
    k = int(spec.params.get("k", 12))
    out = []
    for idx, ksig in enumerate(float(x) for x in spec.grid["ksig"]):
        theta = math.sqrt(ksig / base_d)
        if theta >= 1.0:
            raise ValueError(
                f"theta^2 d = {ksig:g} is unreachable with base_d = {base_d:g}"
            )
        t0 = time.perf_counter()
        rows, _ = popdyn.magnetization_chain(
            "gw", base_d, theta, k, spec.trials,
            derived_rng(spec.seed, "sweep", idx), delta=0.0,
        )
        dt = time.perf_counter() - t0
        r = rows[k]
        out.append(ResultRow(
            experiment=spec.kind,
            coords={"d": base_d, "theta": theta, "ksig": ksig, "k": k},
            estimate=0.5 * r["absx_mean"], ci=0.5 * r["absx_ci"],
            trials=spec.trials, seconds=dt,
        ))
    return out


def run_conductance_check(spec: ExperimentSpec, threads: int = 1) -> list[ResultRow]:
    kind, d, theta = _tree_parameterization(spec)
    delta = spec.params.get("delta")
    delta = float(delta) if delta is not None else None
    ks = sorted(int(x) for x in spec.grid["k"])
    eta = 0.5 * (1.0 - theta)
    threshold = float(spec.params.get("threshold", theta * theta * d / (16.0 * eta)))
    t0 = time.perf_counter()
    _, pools = popdyn.conductance_chain(
        kind, d, theta, max(ks), spec.trials,
        derived_rng(spec.seed, "conductance"), delta=delta, keep_levels=set(ks),
    )
    dt = time.perf_counter() - t0
    out = []
    for k in ks:
        pool = pools[k]
        base = {"tree_kind": kind, "d": d, "theta": theta,
                "delta": delta if delta is not None else 0.0, "k": k,
                "threshold": threshold}
        frac = float((pool >= threshold).mean())
        out.append(ResultRow(
            experiment=spec.kind, coords={**base, "metric": "frac_above"},
            estimate=frac,
            ci=ci_half_width(math.sqrt(frac * (1.0 - frac)), spec.trials),
            trials=spec.trials, seconds=dt,
        ))
        out.append(ResultRow(
            experiment=spec.kind, coords={**base, "metric": "ceff_mean"},
            estimate=float(pool.mean()),
            ci=ci_half_width(float(pool.std()), spec.trials),
            trials=spec.trials, seconds=dt,
        ))
    return out


def _recover_setup(p: dict) -> tuple[ModelParams, AlgoConfig, int]:
    """(model, algorithm, radius) from graph-recover's params n, a, b, impl,
    delta0, R, R_mode and K, checked; the matched tree row runs at the radius."""
    if {"n", "a", "b"} - p.keys():
        raise ValueError(f"graph-recover needs params {sorted({'n', 'a', 'b'} - p.keys())}")
    params = ModelParams(n=int(p["n"]), a=float(p["a"]), b=float(p["b"]))
    cfg = AlgoConfig(R=p.get("R"), K=int(p.get("K", 1)),
                     R_mode=p.get("R_mode", "fixed" if p.get("R") is not None else "auto"))
    _check_blackbox(p.get("impl", "spectral"), p.get("delta0"))
    return params, cfg, resolve_radius(cfg, params.n, params.a, params.b)


def _recover_rep(spec: ExperimentSpec, rep: int) -> dict:
    p = spec.params
    params, cfg, _ = _recover_setup(p)
    g = sample_sbm(params, seed=derived_rng(spec.seed, "graph", rep))
    rep_seed = int(derived_rng(spec.seed, "recover", rep).integers(2 ** 62))
    t0 = time.perf_counter()
    res = recover(g, cfg, params, impl=p.get("impl", "spectral"),
                  seed=rep_seed, delta0=p.get("delta0"))
    return {
        "rep": rep,
        "accuracy": res.accuracy,
        "coin_frac": res.diagnostics.coin_labels / g.n,
        "nontree_frac": res.diagnostics.nontree_neighborhoods / g.n,
        "seconds": time.perf_counter() - t0,
    }


def run_graph_recover(spec: ExperimentSpec, threads: int = 1) -> list[ResultRow]:
    p = spec.params
    params, cfg, r_used = _recover_setup(p)
    jobs = [(spec, int(rep)) for rep in spec.grid["rep"]]
    if threads == 1 or len(jobs) <= 1:
        results = [_recover_rep(*job) for job in jobs]
    else:
        with ProcessPoolExecutor(max_workers=threads if threads > 0 else None) as pool:
            results = list(pool.map(_recover_rep, *zip(*jobs)))
    base = {
        "n": params.n, "a": params.a, "b": params.b,
        "impl": p.get("impl", "spectral"),
        "delta0": p.get("delta0") if p.get("delta0") is not None else -1.0,
        "R": r_used, "K": cfg.K,
    }
    out = []
    # per rep: accuracy, then the fractions of all n vertices that were
    # labelled by a coin (hold-out included) and whose walk tree revisits a
    # vertex (a sample estimate)
    for res in results:
        for metric in ("accuracy", "coin_frac", "nontree_frac"):
            out.append(ResultRow(
                experiment=spec.kind, coords={**base, "rep": res["rep"], "metric": metric},
                estimate=res[metric], ci=0.0, trials=1,
                seconds=res["seconds"] if metric == "accuracy" else 0.0,
            ))
    accs = np.array([res["accuracy"] for res in results])
    out.append(ResultRow(
        experiment=spec.kind, coords={**base, "rep": -1, "metric": "mean_accuracy"},
        estimate=float(accs.mean()),
        ci=ci_half_width(float(accs.std()), len(accs)),
        trials=len(accs), seconds=float(sum(r["seconds"] for r in results)),
    ))
    # matched tree simulation at the same depth
    tp = derive_tree_params(params)
    t0 = time.perf_counter()
    rows, _ = popdyn.magnetization_chain(
        "gw", tp.d, tp.theta, r_used, spec.trials,
        derived_rng(spec.seed, "tree-sim"), delta=0.0,
    )
    r = rows[r_used]
    p_hat = 0.5 * (1.0 + r["absx_mean"])
    out.append(ResultRow(
        experiment=spec.kind, coords={**base, "rep": -1, "metric": "tree_p_hat"},
        estimate=p_hat, ci=0.5 * r["absx_ci"], trials=spec.trials,
        seconds=time.perf_counter() - t0,
    ))
    out.append(ResultRow(
        experiment=spec.kind, coords={**base, "rep": -1, "metric": "gap"},
        estimate=float(accs.mean()) - p_hat,
        ci=ci_half_width(float(accs.std()), len(accs)) + 0.5 * r["absx_ci"],
        trials=len(accs), seconds=0.0,
    ))
    return out


@dataclass(frozen=True)
class _Kind:
    """One experiment kind.

    ``run(spec, threads)`` makes the rows; ``threads`` worker processes run
    graph-recover's repetitions, and the tree-side runners ignore it.
    ``params`` holds the params keys a spec may give, ``columns`` the CSV
    coordinate columns in order.  ``default_params`` and ``default_grid`` make
    the spec ``default_spec`` builds; a spec's grid has ``default_grid``'s keys.
    """

    run: Callable[[ExperimentSpec, int], list[ResultRow]]
    params: set
    columns: tuple
    default_params: dict
    default_grid: dict


_KINDS = {
    "tree-accuracy": _Kind(
        run_accuracy, _TREE_PARAM_KEYS, ("tree_kind", "d", "theta", "k"),
        {"a": 5.0, "b": 1.0}, {"k": list(range(2, 11))},
    ),
    "robust-accuracy": _Kind(
        run_accuracy, _TREE_PARAM_KEYS, ("tree_kind", "d", "theta", "delta", "k"),
        {"a": 30.0, "b": 4.0}, {"k": [2, 4, 6, 8], "delta": [0.0, 0.2, 0.4]},
    ),
    "moments-check": _Kind(
        run_moments_check, {"extra_configs"}, ("d", "theta", "delta", "k", "stat", "target"),
        {"extra_configs": [[4, 0.5]]},
        {"d": [2, 3], "theta": [0.5, 0.8], "delta": [0.0, 0.2], "k": [1, 2, 3, 4, 5]},
    ),
    "contraction-check": _Kind(
        run_contraction_check, set(), ("tree_kind", "d", "theta", "delta", "level", "metric"),
        {},
        {"regimes": [
            {"tree_kind": "gw", "d": 64.0, "theta": 0.3, "delta": 0.4, "k": 8},
            {"tree_kind": "gw", "d": 40.0, "theta": 0.9, "delta": 0.4, "k": 8},
            {"tree_kind": "dary", "d": 64, "theta": 0.3, "delta": 0.4, "k": 8},
            {"tree_kind": "dary", "d": 40, "theta": 0.9, "delta": 0.4, "k": 8},
        ]},
    ),
    "threshold-sweep": _Kind(
        run_threshold_sweep, {"base_d", "k"}, ("d", "theta", "ksig", "k"),
        {"base_d": 2.5, "k": 12}, {"ksig": [0.5, 0.8, 1.0, 1.25, 2.0]},
    ),
    "conductance-check": _Kind(
        run_conductance_check, _TREE_PARAM_KEYS | {"delta", "threshold"},
        ("tree_kind", "d", "theta", "delta", "k", "threshold", "metric"),
        {"a": 30.0, "b": 4.0}, {"k": [2, 4, 6]},
    ),
    "graph-recover": _Kind(
        run_graph_recover,
        {"n", "a", "b", "impl", "delta0", "R", "R_mode", "K"},
        ("n", "a", "b", "impl", "delta0", "R", "K", "rep", "metric"),
        {"n": 2000, "a": 30.0, "b": 4.0, "impl": "oracle-noise",
         "delta0": 0.25, "R": 2, "R_mode": "fixed", "K": 1},
        {"rep": [0, 1, 2]},
    ),
}

KINDS = tuple(_KINDS)


def _kind(kind: str) -> _Kind:
    if kind not in KINDS:
        raise ValueError(f"unknown experiment kind in {KINDS}: {kind!r}")
    return _KINDS[kind]


def check_spec(spec: ExperimentSpec) -> None:
    """Raise ValueError, naming the value, where the spec's run would fail at its start."""
    if spec.kind == "graph-recover":
        _recover_setup(spec.params)
    elif _TREE_PARAM_KEYS <= _KINDS[spec.kind].params:
        _tree_parameterization(spec)
    for delta in (*spec.grid.get("delta", ()), spec.params.get("delta")):
        _terminal_conductance(None if delta is None else float(delta))


def run_experiment(spec: ExperimentSpec, threads: int = 1) -> list[ResultRow]:
    """Run a spec; ``threads`` processes (0 = all cores) run graph-recover's reps."""
    check_spec(spec)
    return _KINDS[spec.kind].run(spec, threads)


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
        vals = [r.experiment]
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
                "experiment": r.experiment,
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
