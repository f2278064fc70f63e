"""blockbp benchmark: graph recovery at two shapes, and the tree-side chains.

Run from the repository root:

    python3 benchmarks/run.py --workload recover-deep --seed 1 --seconds 30 --trace 0

Workloads (README.md in this directory gives their make-up and the reasons):

    recover-deep   recover() at n = 2e4, a = 30, b = 4, R = 3, K = 1, with the
                   oracle-noise black box at delta0 = 0.25
    recover-wide   recover() at n = 2e5, a = 12, b = 3, R = 1, K = 1, with the
                   spectral black box
    tree-chains    harness.run_experiment on five tree-side experiments at
                   1e5 trials

With ``--trace 0`` a run times whole rounds of the workload's operation until
``--seconds`` would be exceeded (at least one round) and reports the
end-to-end metrics.  With ``--trace 1`` it runs one untraced round and one
round with every layer function wrapped (see tracing.py) and reports the
per-layer metrics.  Either way every output is checked against
references.py; the last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}, and the whole result, with the
environment and (traced) the spans, goes to benchmarks/out/.
"""

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

# One process; BLAS and OpenMP pools are held to one thread, which is within
# nproc on any machine and keeps the timings free of thread scheduling.
THREAD_CAP = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

K_DEPTH = 1
IMPORT_REPEATS = 5   # fresh interpreters timed for the import part of set-up
SBM_REPEATS = 3      # set-up samples the graph this many times; median reported
BALL_CENTRES = 500   # centres of the traced extract_neighborhood probe
# Recovery must beat its 0.75-accurate oracle input by at least this much.
DEEP_MARGIN = 0.2

RECOVERY = {
    "recover-deep": {"n": 20_000, "a": 30.0, "b": 4.0, "R": 3,
                     "impl": "oracle-noise", "delta0": 0.25},
    "recover-wide": {"n": 200_000, "a": 12.0, "b": 3.0, "R": 1,
                     "impl": "spectral", "delta0": None},
}

TREE_TRIALS = 100_000
# The harness's default specs, written out so that the workload stays fixed
# if the defaults change; "rows" is the size of each result table.
TREE_SPECS = [
    {"kind": "robust-accuracy", "params": {"a": 30.0, "b": 4.0},
     "grid": {"k": [2, 4, 6, 8], "delta": [0.0, 0.2, 0.4]}, "rows": 12},
    {"kind": "threshold-sweep", "params": {"base_d": 2.5, "k": 12},
     "grid": {"ksig": [0.5, 0.8, 1.0, 1.25, 2.0]}, "rows": 5},
    {"kind": "contraction-check", "params": {},
     "grid": {"regimes": [
         {"tree_kind": "gw", "d": 64.0, "theta": 0.3, "delta": 0.4, "k": 8},
         {"tree_kind": "gw", "d": 40.0, "theta": 0.9, "delta": 0.4, "k": 8},
         {"tree_kind": "dary", "d": 64, "theta": 0.3, "delta": 0.4, "k": 8},
         {"tree_kind": "dary", "d": 40, "theta": 0.9, "delta": 0.4, "k": 8},
     ]}, "rows": 128},
    {"kind": "conductance-check", "params": {"a": 30.0, "b": 4.0},
     "grid": {"k": [2, 4, 6]}, "rows": 6},
    {"kind": "moments-check", "params": {"extra_configs": [[4, 0.5]]},
     "grid": {"d": [2, 3], "theta": [0.5, 0.8], "delta": [0.0, 0.2],
              "k": [1, 2, 3, 4, 5]}, "rows": 200},
]
# tree-chains reports as its accuracy the robust reconstruction accuracy at
# this (delta, k): heavy leaf noise at the shallowest depth, the one row of
# the table where the noise still costs accuracy (0.963 against 0.9997).
TREE_ACCURACY_AT = (0.4, 2)

WORKLOADS = (*RECOVERY, "tree-chains")

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB",
                    "accuracy": "fraction"}

# Layer functions wrapped in the traced run ("module.function" in blockbp).
TRACED = (
    "randgraph.sample_sbm", "randgraph.remove_set", "randgraph.extract_neighborhood",
    "partition.blackbox_partition", "pipeline.choose_anchor",
    "pipeline.align_partition", "partition.overlap", "pipeline.recover",
    "popdyn.magnetization_chain", "popdyn.conductance_chain",
    "popdyn.dary_sum_trials", "harness.run_experiment",
)
RECOVER_CHILDREN = ("randgraph.remove_set", "partition.blackbox_partition",
                    "pipeline.choose_anchor", "pipeline.align_partition",
                    "partition.overlap")
POPDYN = ("popdyn.magnetization_chain", "popdyn.conductance_chain",
          "popdyn.dary_sum_trials")

# name -> (unit, spans it is computed from, workload family it applies to)
PER_LAYER = {
    "randgraph.sample_sbm_s": ("s", ("randgraph.sample_sbm",), "recovery"),
    "randgraph.edges": ("count", (), "recovery"),
    "randgraph.remove_set_s": ("s", ("randgraph.remove_set",), "recovery"),
    "randgraph.ball_vertices_mean": ("count", ("randgraph.extract_neighborhood",), "recovery"),
    "randgraph.ball_us": ("us", ("randgraph.extract_neighborhood",), "recovery"),
    "partition.blackbox_s": ("s", ("partition.blackbox_partition",), "recovery"),
    "partition.blackbox_accuracy": ("fraction", ("partition.blackbox_partition",), "recovery"),
    "pipeline.label_s": ("s", ("pipeline.recover", *RECOVER_CHILDREN), "recovery"),
    "pipeline.label_us_per_vertex": ("us", ("pipeline.recover", *RECOVER_CHILDREN), "recovery"),
    "pipeline.vertices_labelled": ("count", ("randgraph.remove_set",), "recovery"),
    "pipeline.coin_frac": ("fraction", ("pipeline.recover",), "recovery"),
    "pipeline.nontree_frac": ("fraction", ("pipeline.recover", "randgraph.remove_set"), "recovery"),
    "popdyn.magnetization_chain_s": ("s", ("popdyn.magnetization_chain",), "tree"),
    "popdyn.conductance_chain_s": ("s", ("popdyn.conductance_chain",), "tree"),
    "popdyn.dary_sum_trials_s": ("s", ("popdyn.dary_sum_trials",), "tree"),
    "harness.self_s": ("s", ("harness.run_experiment", *POPDYN), "tree"),
    "bench.trace_overhead_s": ("s", (), "all"),
}


def import_blockbp():
    """Cap the thread pools, then import numpy and the checkout's own blockbp."""
    for var in THREAD_VARS:
        os.environ[var] = str(THREAD_CAP)
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import blockbp
    except ImportError as exc:
        sys.exit(f"cannot import blockbp from {src}: {exc}")
    if Path(blockbp.__file__).resolve().parent != src / "blockbp":
        sys.exit(f"imported blockbp from {blockbp.__file__}, not from {src}")
    return blockbp


def time_imports() -> list[float]:
    """Seconds from interpreter start until blockbp is imported, IMPORT_REPEATS times.

    A module is imported once per process, so each repeat is a fresh
    interpreter; they run one after another and each is waited for.
    """
    code = f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import blockbp"
    times = []
    for _ in range(IMPORT_REPEATS):
        t = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True)
        times.append(time.perf_counter() - t)
    return times


def environment(np, scipy) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "thread_cap": THREAD_CAP,
        "cpu": cpu,
        "git_sha": git_sha(),
    }


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable (not a git checkout)"


def run_rounds(op, seconds: float, on_output):
    """Run whole rounds of ``op`` until the next would overrun ``seconds``."""
    walls = []
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        out = op()
        walls.append(time.perf_counter() - t)
        on_output(out)
        if time.perf_counter() - start + walls[-1] > seconds:
            return walls


class Recovery:
    """recover() on one sampled graph; the same call every round."""

    family = "recovery"
    ops_per_round = 1

    def __init__(self, bb, ref, np, name: str, seed: int):
        self.bb, self.ref, self.np = bb, ref, np
        self.cfg_dict = RECOVERY[name]
        c = self.cfg_dict
        self.deep = name == "recover-deep"
        self.params = bb.ModelParams(n=c["n"], a=c["a"], b=c["b"])
        self.cfg = bb.AlgoConfig(R=c["R"], R_mode="fixed", K=K_DEPTH)
        graph_ss, recover_ss, centre_ss = np.random.SeedSequence(seed).spawn(3)
        self.graph_ss, self.centre_ss = graph_ss, centre_ss
        self.recover_seed = int(np.random.default_rng(recover_ss).integers(2 ** 62))
        self.u = math.isqrt(c["n"])
        self.p1 = ref.depth1_optimum(c["a"], c["b"])
        self.first = None
        self.failures: list[str] = []

    def setup(self) -> list[float]:
        """Sample the graph SBM_REPEATS times from one seed; returns the times."""
        times, edges = [], set()
        for _ in range(SBM_REPEATS):
            t = time.perf_counter()
            g = self.bb.sample_sbm(self.params,
                                   seed=self.np.random.default_rng(self.graph_ss))
            times.append(time.perf_counter() - t)
            edges.add(g.m)
        if len(edges) != 1:
            self.failures.append(f"one seed sampled graphs with {sorted(edges)} edges")
        self.g = g
        return times

    def op(self):
        c = self.cfg_dict
        return self.bb.recover(self.g, self.cfg, self.params, impl=c["impl"],
                               seed=self.recover_seed, delta0=c["delta0"])

    def check(self, res, floor=None) -> None:
        if floor is None and self.deep:
            floor = 1.0 - self.cfg_dict["delta0"] + DEEP_MARGIN
        self.failures += self.ref.check_recovery(
            res.side, res.magnetization, self.g.labels, res.accuracy,
            p1=self.p1, u=self.u, floor=floor)
        if self.first is None:
            self.first = res
        elif not (self.np.array_equal(res.side, self.first.side)
                  and self.np.array_equal(res.magnetization, self.first.magnetization)):
            self.failures.append("a repeated recover() call gave different labels")

    def accuracy(self) -> float:
        return self.first.accuracy

    def probe(self) -> None:
        """Traced: extract_neighborhood around a fixed sample of centres."""
        centres = self.np.random.default_rng(self.centre_ss).choice(
            self.g.n, size=BALL_CENTRES, replace=False)
        radius = self.cfg_dict["R"]
        self.ball_sizes = [len(self.bb.extract_neighborhood(self.g, int(v), radius).ball)
                           for v in centres]

    def layers(self, rec, res) -> dict:
        np = self.np

        def labelled():  # vertices left once the hold-out set is removed
            return rec.kept["randgraph.remove_set"][-1][1].graph.n

        def blackbox_accuracy():
            return float(np.mean([self.ref.accuracy_of(part.side, args[0].labels)
                                  for args, part in rec.kept["partition.blackbox_partition"]]))

        return {
            "randgraph.sample_sbm_s": lambda: statistics.median(
                s["end"] - s["start"] for s in rec.named("randgraph.sample_sbm")),
            "randgraph.edges": lambda: self.g.m,
            "randgraph.remove_set_s": lambda: rec.total("randgraph.remove_set"),
            "randgraph.ball_vertices_mean": lambda: float(np.mean(self.ball_sizes)),
            "randgraph.ball_us": lambda: 1e6 * rec.total("randgraph.extract_neighborhood")
            / rec.calls("randgraph.extract_neighborhood"),
            "partition.blackbox_s": lambda: rec.total("partition.blackbox_partition"),
            "partition.blackbox_accuracy": blackbox_accuracy,
            "pipeline.label_s": lambda: rec.self_time("pipeline.recover"),
            "pipeline.label_us_per_vertex": lambda: 1e6 * rec.self_time("pipeline.recover")
            / labelled(),
            "pipeline.vertices_labelled": labelled,
            "pipeline.coin_frac": lambda: np.count_nonzero(res.magnetization == 0.0) / self.g.n,
            "pipeline.nontree_frac": lambda: res.diagnostics.nontree_neighborhoods / labelled(),
        }

    def check_traced(self, rec, res) -> None:
        if self.deep:
            return
        # recover-wide: the clean-up must not lose accuracy against its input
        for args, part in rec.kept["partition.blackbox_partition"]:
            self.check(res, floor=self.ref.accuracy_of(part.side, args[0].labels))


class TreeChains:
    """The five tree-side experiments through harness.run_experiment."""

    family = "tree"
    ops_per_round = len(TREE_SPECS)

    def __init__(self, bb, ref, np, name: str, seed: int):
        self.bb, self.ref, self.np = bb, ref, np
        seeds = [int(np.random.default_rng(ss).integers(2 ** 31))
                 for ss in np.random.SeedSequence(seed).spawn(len(TREE_SPECS))]
        self.specs = [bb.ExperimentSpec(kind=s["kind"], params=s["params"], grid=s["grid"],
                                        trials=TREE_TRIALS, seed=sd)
                      for s, sd in zip(TREE_SPECS, seeds)]
        self.expected = {s["kind"]: s["rows"] for s in TREE_SPECS}
        self.first = None
        self.failures: list[str] = []

    def setup(self) -> list[float]:
        return []

    def op(self):
        return {spec.kind: self.bb.harness.run_experiment(spec) for spec in self.specs}

    @staticmethod
    def _values(rows_by_kind):
        # repr, so that the NaN of a degenerate ratio row equals itself
        return {kind: [(r.coords, repr(r.estimate), repr(r.ci)) for r in rows]
                for kind, rows in rows_by_kind.items()}

    def check(self, rows_by_kind) -> None:
        self.failures += self.ref.check_tree_rows(rows_by_kind, self.expected)
        if self.first is None:
            self.first = rows_by_kind
        elif self._values(rows_by_kind) != self._values(self.first):
            self.failures.append("a repeated run of the experiments gave different rows")

    def accuracy(self) -> float:
        delta, k = TREE_ACCURACY_AT
        for r in self.first["robust-accuracy"]:
            if r.coords["delta"] == delta and r.coords["k"] == k:
                return r.estimate
        self.failures.append(f"no robust-accuracy row at delta={delta}, k={k}")
        return math.nan

    def probe(self) -> None:
        pass

    def layers(self, rec, res) -> dict:
        popdyn = sum(rec.total(name) for name in POPDYN)
        return {
            "popdyn.magnetization_chain_s": lambda: rec.total("popdyn.magnetization_chain"),
            "popdyn.conductance_chain_s": lambda: rec.total("popdyn.conductance_chain"),
            "popdyn.dary_sum_trials_s": lambda: rec.total("popdyn.dary_sum_trials"),
            "harness.self_s": lambda: rec.total("harness.run_experiment") - popdyn,
        }

    def check_traced(self, rec, res) -> None:
        pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    bb = import_blockbp()
    import numpy as np
    import scipy

    import references as ref
    from tracing import SpanRecorder

    kind = Recovery if args.workload in RECOVERY else TreeChains
    work = kind(bb, ref, np, args.workload, args.seed)
    result = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(np, scipy)}

    if args.trace == 0:
        import_times = time_imports()
        sample_times = work.setup()
        walls = run_rounds(work.op, args.seconds, work.check)
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(import_times)
            + (statistics.median(sample_times) if sample_times else 0.0),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "accuracy": work.accuracy(),
        }
        units = END_TO_END_UNITS
        result.update(walls_s=walls, import_s=import_times, sample_s=sample_times)
        rounds = len(walls)
    else:
        rec = SpanRecorder("blockbp", keep=("randgraph.remove_set",
                                            "partition.blackbox_partition"))
        with rec.installed(TRACED):
            work.setup()
        walls = run_rounds(work.op, 0.0, work.check)
        with rec.installed(TRACED):
            traced_walls = run_rounds(work.op, 0.0, work.check)
            work.probe()
        traced_out = work.first  # equal to the traced output, checked above
        work.check_traced(rec, traced_out)
        metrics, units, missing, not_reached = layer_metrics(work, rec, traced_out,
                                                             traced_walls[0] - walls[0])
        result.update(walls_s=walls, traced_walls_s=traced_walls, spans=rec.records(),
                      span_calls={name: rec.calls(name) for name in TRACED},
                      missing_spans=missing, not_reached=not_reached)
        for name in missing:
            print(f"MISSING span {name}: no calls; its metrics are not reported",
                  file=sys.stderr)
        rounds = len(walls) + len(traced_walls)

    correct = not work.failures
    for failure in work.failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    out = {"correct": correct, "attempted": rounds * work.ops_per_round, "failed": 0,
           "metrics": {name: {"value": value, "unit": units[name]}
                       for name, value in metrics.items()}}
    result.update(failures=work.failures, result=out)
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    for name, value in metrics.items():
        print(f"{args.workload:13s} {name:30s} {value:>16.6f} {units[name]}")
    print(json.dumps(out))
    return 0


def layer_metrics(work, rec, res, overhead: float):
    """Per-layer values; a metric whose expected spans had no calls is left out.

    Metrics of layers this workload does not reach read 0 and are listed in
    ``not_reached``; those are zero calls, not a measured 0 s.
    """
    compute = work.layers(rec, res)
    compute["bench.trace_overhead_s"] = lambda: overhead
    missing = sorted({span for name, (_, spans, family) in PER_LAYER.items()
                      if family in (work.family, "all")
                      for span in spans if rec.calls(span) == 0})
    metrics, units, not_reached = {}, {}, []
    for name, (unit, spans, family) in PER_LAYER.items():
        units[name] = unit
        if family not in (work.family, "all"):
            metrics[name] = 0.0
            not_reached.append(name)
        elif not set(spans) & set(missing):
            metrics[name] = float(compute[name]())
    return metrics, units, missing, not_reached


if __name__ == "__main__":
    sys.exit(main())
