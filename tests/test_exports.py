"""Public names: every advertised export resolves, so deleted names cannot linger."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import multisum

MODULES = sorted(m.name for m in pkgutil.iter_modules(multisum.__path__))


@pytest.mark.parametrize("module", MODULES)
def test_module_all_resolves(module):
    mod = importlib.import_module(f"multisum.{module}")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing


def test_package_reexports_resolve():
    tree = ast.parse(Path(multisum.__file__).read_text())
    names = [alias.asname or alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert names
    assert [name for name in names if not hasattr(multisum, name)] == []
