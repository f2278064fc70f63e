"""Fast tests of the benchmark's own machinery: metric table and span recorder.

Run from the repository root:  python3 -m pytest -q benchmarks
"""

import json
import sys

import run
from tracing import SpanRecorder

sys.path.insert(0, str(run.ROOT / "src"))

import blockbp  # noqa: E402
import blockbp.pipeline  # noqa: E402


def test_metric_table_matches_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (unit, _, _) in run.PER_LAYER.items()}
    traced = set(run.TRACED)
    assert all(set(spans) <= traced for _, spans, _ in run.PER_LAYER.values())


def test_span_recorder_reaches_calls_inside_the_package_and_restores():
    params = blockbp.ModelParams(n=300, a=12.0, b=2.0)
    g = blockbp.sample_sbm(params, seed=1)
    cfg = blockbp.AlgoConfig(R=1, R_mode="fixed", K=1)
    original = blockbp.pipeline.remove_set
    rec = SpanRecorder("blockbp", keep=("randgraph.remove_set",))
    with rec.installed(("pipeline.recover", "randgraph.remove_set", "popdyn.no_such_function")):
        assert blockbp.pipeline.remove_set is not original
        res = blockbp.recover(g, cfg, params, impl="oracle-noise", delta0=0.1, seed=2)
    assert blockbp.pipeline.remove_set is original
    assert blockbp.randgraph.remove_set is original
    assert rec.calls("pipeline.recover") == 1
    assert rec.calls("popdyn.no_such_function") == 0
    (child,) = rec.named("randgraph.remove_set")
    assert rec.spans[child["parent"]]["name"] == "pipeline.recover"
    assert rec.kept["randgraph.remove_set"][0][1].graph.n == g.n - 17
    assert 0.0 < rec.self_time("pipeline.recover") < rec.total("pipeline.recover")
    assert res.side.shape == (g.n,)
