"""Every exported or re-exported name of the package resolves."""

import ast
import importlib
import pkgutil
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
