"""Command-line entry point: one subcommand per experiment kind.

Usage:

    blockbp <kind> [--config cfg.json] [--seed S] [--trials T]
                   [--out results.csv] [--deterministic]

(``blockbp --help`` lists the kinds).  Each subcommand has a built-in
default spec; --config overrides it with a JSON object {"kind", "params",
"grid", "trials", "seed"} (unknown keys and malformed shapes are rejected),
and --seed/--trials override either; a config the run would fail on exits 2.
--deterministic zeroes the wall-time column: reruns are byte-identical.
A run's independent units (regimes, sweep points, graph repetitions) run on
one thread each, up to the cores the process may use; the rows do not
depend on the core count.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .harness import KINDS, ExperimentSpec, check_spec, default_spec, run_experiment, write_results


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blockbp",
        description="Monte Carlo experiments for block-model recovery via tree BP",
    )
    sub = parser.add_subparsers(dest="kind", required=True)
    for kind in KINDS:
        p = sub.add_parser(kind, help=f"run the {kind} experiment")
        p.add_argument("--config", type=Path, default=None,
                       help="JSON spec file (overrides the built-in default)")
        p.add_argument("--seed", type=int, default=None, help="master seed")
        p.add_argument("--trials", type=int, default=None, help="Monte Carlo trials")
        p.add_argument("--out", type=Path, default=None,
                       help="CSV output path (default <kind>.csv; JSON mirror alongside)")
        p.add_argument("--deterministic", action="store_true",
                       help="zeroed wall times: byte-identical reruns")
    return parser


def _spec_from_args(args) -> ExperimentSpec:
    if args.config is not None:
        data = json.loads(Path(args.config).read_text())
        if not isinstance(data, dict):
            raise ValueError("config must be a JSON object")
        if "kind" in data and data["kind"] != args.kind:
            raise ValueError(
                f"config kind {data['kind']!r} does not match subcommand {args.kind!r}"
            )
        data["kind"] = args.kind
        spec = ExperimentSpec.from_dict(data)
    else:
        spec = default_spec(args.kind)
    overrides = {"seed": args.seed, "trials": args.trials}
    return replace(spec, **{k: v for k, v in overrides.items() if v is not None})


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        spec = _spec_from_args(args)
        check_spec(spec)
    except (ValueError, TypeError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rows = run_experiment(spec)
    out = args.out if args.out is not None else Path(f"{args.kind}.csv")
    write_results(rows, spec, out, deterministic=args.deterministic)
    for r in rows:
        coords = " ".join(f"{k}={v}" for k, v in r.coords.items())
        print(f"{spec.kind} {coords} estimate={r.estimate:.6g} ci={r.ci:.3g}")
    print(f"wrote {out} and {out.with_suffix('.json')}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
