"""Summarise benchmark runs into BENCH_<label>.json at the repository root.

Each side is a checkout whose ``benchmarks/out/*-trace0.json`` files (written
by ``benchmarks/run.py --trace 0``) are read:

    python3 tools/bench_summary.py LABEL [NAME=CHECKOUT ...]

With no NAME=CHECKOUT the one side is ``change``, this repository.  For
every side and workload the summary gives the run count, the seeds, whether
every run passed its output checks, and per end-to-end metric the median,
the quartiles and the values; each side also keeps the distinct environment
blocks its runs recorded, ``source_sha256``, the SHA-256 of its
checkout's ``src/blockbp/*.py`` bytes taken in sorted name order, which
names the code behind a side even when it ran from a ``git archive`` copy,
and ``source_lines``, the total line count of those files.
With two sides, the first is the base, and each workload that both ran is
summarised on each side over the seeds both sides ran, so a stale run that
one side alone holds reaches no median; each side lists the seeds it left
out.  Runs of one workload with the same seed on both
sides are paired: per metric, the pairs the second side wins (by the
direction BENCHMARK.json gives, ties counting for neither), the change of the
median, and the base's quartile spread that a claimed gain must exceed.
"""

import argparse
import hashlib
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values):
    """(q1, median, q3), inclusive method; one value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def source_record(checkout: Path) -> dict:
    """SHA-256 of the checkout's ``src/blockbp/*.py`` bytes, in sorted name
    order, and the files' total line count."""
    paths = sorted((checkout / "src" / "blockbp").glob("*.py"))
    if not paths:
        sys.exit(f"no src/blockbp/*.py under {checkout}")
    digest, lines = hashlib.sha256(), 0
    for path in paths:
        data = path.read_bytes()
        digest.update(data)
        lines += data.count(b"\n")
    return {"source_sha256": digest.hexdigest(), "source_lines": lines}


def read_side(checkout: Path) -> dict:
    """Every run of a checkout, by workload and in seed order."""
    paths = sorted((checkout / "benchmarks" / "out").glob("*-trace0.json"))
    if not paths:
        sys.exit(f"no *-trace0.json runs under {checkout / 'benchmarks' / 'out'}")
    runs: dict = {}
    for path in paths:
        run = json.loads(path.read_text())
        runs.setdefault(run["workload"], []).append(run)
    for group in runs.values():
        group.sort(key=lambda r: r["seed"])
    return runs


def summarise(runs: dict, metrics, seeds=None) -> dict:
    """Summary of one side's runs; ``seeds`` maps a workload to the seeds to keep.

    A workload that ``seeds`` names is summarised over those seeds alone, and
    its other seeds are listed under ``left_out``.
    """
    environments = []
    workloads = {}
    for name, group in sorted(runs.items()):
        keep = (seeds or {}).get(name)
        kept = [r for r in group if keep is None or r["seed"] in keep]
        summary = {}
        for metric in metrics:
            values = [r["result"]["metrics"][metric]["value"] for r in kept
                      if metric in r["result"]["metrics"]]
            if not values:
                continue
            q1, med, q3 = quartiles(values)
            summary[metric] = {"unit": kept[0]["result"]["metrics"][metric]["unit"],
                               "median": med, "q1": q1, "q3": q3, "values": values}
        workloads[name] = {
            "runs": len(kept),
            "seeds": [r["seed"] for r in kept],
            "left_out": [r["seed"] for r in group if keep is not None and r["seed"] not in keep],
            "run_seconds": sorted({r["seconds"] for r in kept}),
            "all_correct": all(r["result"]["correct"] for r in kept),
            "metrics": summary,
        }
        for r in kept:
            if r["environment"] not in environments:
                environments.append(r["environment"])
    return {"environments": environments, "workloads": workloads}


def pair_sides(base: dict, change: dict, better: dict):
    """(base summary, change summary, pairs) over the seeds both sides ran.

    Each workload that both sides ran is summarised, on each side, over the
    seeds common to both, so a run that one side alone holds (a stale run
    left from earlier work, say) reaches no median and no pair.
    """
    common = {name: {r["seed"] for r in group} & {r["seed"] for r in change[name]}
              for name, group in base.items() if name in change}
    b_side, c_side = summarise(base, better, common), summarise(change, better, common)
    pairs = {}
    for name in sorted(common):
        b, c = b_side["workloads"][name], c_side["workloads"][name]
        per_metric = {}
        for metric, direction in better.items():
            if metric not in b["metrics"] or metric not in c["metrics"]:
                continue
            bv = dict(zip(b["seeds"], b["metrics"][metric]["values"]))
            cv = dict(zip(c["seeds"], c["metrics"][metric]["values"]))
            sign = -1.0 if direction == "lower" else 1.0
            wins = sum(sign * (cv[s] - bv[s]) > 0 for s in b["seeds"])
            losses = sum(sign * (cv[s] - bv[s]) < 0 for s in b["seeds"])
            bm, cm = b["metrics"][metric], c["metrics"][metric]
            per_metric[metric] = {
                "better": direction, "pairs": len(b["seeds"]), "wins": wins, "losses": losses,
                "median_change": cm["median"] - bm["median"],
                "median_change_frac": ((cm["median"] - bm["median"]) / bm["median"]
                                       if bm["median"] else None),
                "base_quartile_spread": bm["q3"] - bm["q1"],
            }
        pairs[name] = {"seeds": b["seeds"], "metrics": per_metric}
    return b_side, c_side, pairs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("label")
    parser.add_argument("sides", nargs="*", metavar="NAME=CHECKOUT")
    args = parser.parse_args(argv)
    sides = [s.split("=", 1) for s in args.sides] or [["change", str(ROOT)]]
    if any(len(s) != 2 or not s[0] for s in sides):
        parser.error("each side is NAME=CHECKOUT")
    if len({name for name, _ in sides}) != len(sides):
        parser.error("side names must differ")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    checkouts = {name: Path(path).resolve() for name, path in sides}
    runs = {name: read_side(checkout) for name, checkout in checkouts.items()}
    summary = {"label": args.label, "command": bench["command"]}
    if len(sides) == 2:
        (base, _), (change, _) = sides
        summary["base"], summary["change"] = base, change
        b, c, pairs = pair_sides(runs[base], runs[change], better)
        summary["sides"], summary["pairs"] = {base: b, change: c}, pairs
    else:
        summary["sides"] = {name: summarise(r, better) for name, r in runs.items()}
    for name, checkout in checkouts.items():
        summary["sides"][name].update(source_record(checkout))
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(summary, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
