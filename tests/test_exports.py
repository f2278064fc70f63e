"""Every exported or re-exported name of the package resolves, importing the
package stays free of scipy.sparse, and the README's Library tour names
the fields and signatures the code has."""

import ast
import dataclasses
import importlib
import inspect
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import blockbp

MODULES = sorted(m.name for m in pkgutil.iter_modules(blockbp.__path__)
                 if m.name != "__main__")  # importing __main__ runs the CLI


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    mod = importlib.import_module(f"blockbp.{name}")
    missing = [sym for sym in getattr(mod, "__all__", ()) if not hasattr(mod, sym)]
    assert not missing, f"blockbp.{name}.__all__ names {missing}"


def test_package_imports_exist():
    tree = ast.parse(Path(blockbp.__file__).read_text())
    imported = [(node.module, alias.name) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names]
    assert imported
    missing = [f"{mod}.{sym}" for mod, sym in imported
               if not hasattr(importlib.import_module(f"blockbp.{mod}"), sym)
               or not hasattr(blockbp, sym)]
    assert not missing, f"blockbp/__init__.py imports {missing}"


_SWEEP = dict(kind="threshold-sweep", params={"base_d": 2.5, "k": 4},
              grid={"ksig": [0.5, 2.0]}, trials=2000, seed=3)

_IMPORT_STEPS = f"""
import json, sys
import numpy as np
import blockbp
from blockbp import popdyn

def sparse():
    return sorted(m for m in sys.modules if m.startswith("scipy.sparse"))

assert 'scipy.sparse.linalg' not in sys.modules
assert not sparse(), sparse()
m = blockbp.ModelParams(n=400, a=10.0, b=2.0)
g = blockbp.sample_sbm(m, seed=1)
blockbp.recover(g, blockbp.AlgoConfig(R=2, R_mode="fixed"), m, impl="oracle-noise",
                seed=2, delta0=0.2)
popdyn.dary_sum_trials(2, 0.6, 3, 100, np.random.default_rng(0))
assert not sparse(), sparse()

rows = blockbp.run_experiment(blockbp.ExperimentSpec(**{_SWEEP!r}))
assert 'scipy.sparse' in sys.modules and 'scipy.sparse.linalg' not in sys.modules, sparse()
print(json.dumps([[r.coords, r.estimate, r.ci, r.trials] for r in rows]))

blockbp.blackbox_partition(g, "spectral", seed=4)
assert 'scipy.sparse.linalg' in sys.modules, sparse()
"""


def test_import_does_not_load_eigensolver():
    # scipy.sparse costs about 0.2 s and 20 MiB, and scipy.sparse.linalg
    # about 0.05 s more: `import blockbp`, an oracle-noise recovery and the
    # level sums load neither, the first chain generation loads scipy.sparse
    # (here on the threads of a two-point threshold sweep, at once) and only
    # a spectral black box loads the eigensolver.  A fresh interpreter,
    # since the test oracles import scipy.sparse into this one.
    env = dict(os.environ)
    src = str(Path(blockbp.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _IMPORT_STEPS], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    rows = blockbp.run_experiment(blockbp.ExperimentSpec(**_SWEEP))
    assert json.loads(proc.stdout) == [[r.coords, r.estimate, r.ci, r.trials] for r in rows]


def test_no_module_imports_scipy_at_the_top():
    # the static twin of the test above: every scipy import sits inside the
    # function that needs it, so importing a module never runs one
    offenders = []
    for path in sorted(Path(blockbp.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        in_functions = {id(node) for func in ast.walk(tree)
                        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
                        for node in ast.walk(func)}
        for node in ast.walk(tree):
            if id(node) in in_functions:
                continue
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            offenders += [f"{path.name}:{node.lineno} {name}" for name in names
                          if name == "scipy" or name.startswith("scipy.")]
    assert not offenders, f"module-level scipy imports: {offenders}"


def test_only_params_imports_numbers():
    # what an integer or a number argument is, is decided once, by
    # params._integer and params._real: no other module tests numbers.*
    offenders = []
    for path in sorted(Path(blockbp.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            offenders += [f"{path.name}:{node.lineno}" for name in names
                          if name.split(".")[0] == "numbers" and path.name != "params.py"]
    assert not offenders, f"modules other than params.py import numbers: {offenders}"


def _public_names() -> dict:
    """Every name in a blockbp module's ``__all__``, with its object."""
    out = {}
    for name in MODULES:
        mod = importlib.import_module(f"blockbp.{name}")
        out.update((sym, getattr(mod, sym)) for sym in getattr(mod, "__all__", ()))
    return out


def _signature_args(func) -> list[str]:
    """``func``'s parameters as the README writes them: name or name=default,
    with a bare * before the keyword-only ones."""
    out, star = [], False
    for p in inspect.signature(func).parameters.values():
        if p.kind is p.KEYWORD_ONLY and not star:
            out.append("*")
            star = True
        out.append(p.name if p.default is p.empty else f"{p.name}={p.default!r}")
    return out


def test_readme_tour_matches_the_code():
    # in the Library tour's rows, `Name (a, b)` of a dataclass lists exactly
    # its fields, and `func(a, b=1)` of a public function (no ... elided)
    # lists exactly its parameters and defaults
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| `blockbp\.\w+` \|.*$", readme, re.M)
    assert rows
    public = _public_names()
    checked = set()
    for span in (span for row in rows for span in re.findall(r"`([^`]+)`", row)):
        fields = re.fullmatch(r"(\w+) \(([^()]*)\)", span)
        call = re.fullmatch(r"(\w+)\((.*)\)", span)
        if fields and dataclasses.is_dataclass(public.get(fields[1])):
            want = [f.name for f in dataclasses.fields(public[fields[1]])]
            assert fields[2].split(", ") == want, span
            checked.add(fields[1])
        elif (call and "..." not in span and "\u2026" not in span
              and inspect.isfunction(public.get(call[1]))):
            assert call[2].split(", ") == _signature_args(public[call[1]]), span
            checked.add(call[1])
    assert {"ModelParams", "TreeParams", "bp_root"} <= checked
