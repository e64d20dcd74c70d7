"""Public names: every advertised export resolves, so deleted names cannot linger."""

import ast
import importlib
import importlib.util
import pkgutil
import sys
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


def test_benchmark_trace_targets_resolve(monkeypatch):
    # the traced benchmark patches these names in place and fails on a missing one
    path = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer)    # dataclasses look it up
    spec.loader.exec_module(tracer)
    missing = []
    for target in tracer.LAYERS:
        module = importlib.import_module(target.module)
        owner, _, attr = target.attr.rpartition(".")
        if owner:
            found = attr in getattr(getattr(module, owner, None), "__dict__", {})
        else:
            found = hasattr(module, attr)
        if not found:
            missing.append(f"{target.module}.{target.attr}")
    assert tracer.LAYERS
    assert missing == []
