"""tools/bench_summary.py pairs two checkouts over the seeds both ran."""

import hashlib
import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_summary.py"
_spec = importlib.util.spec_from_file_location("bench_summary", TOOL)
bench_summary = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_summary)

BETTER = {"wall_s": "lower", "accuracy": "higher"}


def _write_runs(checkout: Path, workload: str, walls: dict) -> None:
    out = checkout / "benchmarks" / "out"
    out.mkdir(parents=True, exist_ok=True)
    for seed, wall in walls.items():
        run = {"workload": workload, "seed": seed, "seconds": 30,
               "environment": {"host": checkout.name},
               "result": {"correct": True, "metrics": {
                   "wall_s": {"value": wall, "unit": "s"},
                   "accuracy": {"value": 0.9, "unit": "fraction"}}}}
        (out / f"{workload}-seed{seed}-trace0.json").write_text(json.dumps(run))


def test_stale_seeds_reach_no_median(tmp_path):
    # the change side also holds seeds 1-3 from earlier work, far slower
    _write_runs(tmp_path / "base", "w", {11: 2.0, 12: 2.2, 13: 2.4})
    _write_runs(tmp_path / "change", "w", {1: 90.0, 2: 91.0, 3: 92.0,
                                           11: 1.0, 12: 1.1, 13: 1.2})
    base = bench_summary.read_side(tmp_path / "base")
    change = bench_summary.read_side(tmp_path / "change")
    b, c, pairs = bench_summary.pair_sides(base, change, BETTER)

    wb, wc = b["workloads"]["w"], c["workloads"]["w"]
    assert wb["seeds"] == wc["seeds"] == pairs["w"]["seeds"] == [11, 12, 13]
    assert wb["left_out"] == [] and wc["left_out"] == [1, 2, 3]
    assert wc["runs"] == 3
    assert wc["metrics"]["wall_s"]["values"] == [1.0, 1.1, 1.2]
    assert wc["metrics"]["wall_s"]["median"] == 1.1
    assert wc["metrics"]["wall_s"]["q3"] < 2.0
    wall = pairs["w"]["metrics"]["wall_s"]
    assert (wall["pairs"], wall["wins"], wall["losses"]) == (3, 3, 0)
    assert abs(wall["median_change"] - (1.1 - 2.2)) < 1e-12
    # a one-side summary still keeps every run
    alone = bench_summary.summarise(change, BETTER)["workloads"]["w"]
    assert alone["seeds"] == [1, 2, 3, 11, 12, 13] and alone["left_out"] == []


def _write_source(checkout: Path, files: dict) -> None:
    src = checkout / "src" / "blockbp"
    src.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (src / name).write_text(text)


def test_each_side_records_its_source_hash(tmp_path, monkeypatch):
    # the hash covers src/blockbp/*.py in sorted name order, whatever order
    # the files were written in, and nothing else in the checkout; the line
    # count covers the same files
    root = tmp_path / "root"
    root.mkdir()
    (root / "BENCHMARK.json").write_text(json.dumps({
        "command": ["python3", "benchmarks/run.py"],
        "end_to_end": [{"name": m, "better": b} for m, b in BETTER.items()]}))
    monkeypatch.setattr(bench_summary, "ROOT", root)
    for side, body in (("base", "x = 1\n"), ("change", "x = 2\n")):
        _write_runs(tmp_path / side, "w", {1: 1.0, 2: 1.1})
        _write_source(tmp_path / side, {"b.py": body, "a.py": "import b\n"})
        (tmp_path / side / "src" / "blockbp" / "notes.txt").write_text(side)

    assert bench_summary.main(["t", f"base={tmp_path / 'base'}",
                               f"change={tmp_path / 'change'}"]) == 0
    sides = json.loads((root / "BENCH_t.json").read_text())["sides"]
    for side, body in (("base", b"x = 1\n"), ("change", b"x = 2\n")):
        want = hashlib.sha256(b"import b\n" + body).hexdigest()
        assert sides[side]["source_sha256"] == want
        assert sides[side]["source_lines"] == 2
    assert sides["base"]["source_sha256"] != sides["change"]["source_sha256"]
    # one side alone records its hash as well
    assert bench_summary.main(["one", f"change={tmp_path / 'change'}"]) == 0
    one = json.loads((root / "BENCH_one.json").read_text())["sides"]["change"]
    assert one["source_sha256"] == sides["change"]["source_sha256"]
    assert one["source_lines"] == 2
