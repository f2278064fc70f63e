"""Every exported or re-exported name of the package resolves, importing the
package stays free of the eigensolver, and the README's Library tour names
the fields and signatures the code has."""

import ast
import dataclasses
import importlib
import inspect
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


def test_import_does_not_load_eigensolver():
    # scipy.sparse.linalg costs about 0.1 s; only a spectral black-box run
    # imports it, so a plain `import blockbp` must not
    env = dict(os.environ)
    src = str(Path(blockbp.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import blockbp, sys; assert 'scipy.sparse.linalg' not in sys.modules"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


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
