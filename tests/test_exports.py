"""Every exported or re-exported name of the package resolves, and importing
the package stays free of the eigensolver."""

import ast
import importlib
import os
import pkgutil
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
