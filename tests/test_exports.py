"""Public names: every advertised export resolves, so deleted names cannot linger."""

import ast
import importlib
import importlib.util
import json
import os
import pkgutil
import subprocess
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


def test_parametric_imports_nothing_from_verify():
    # the field model sits below the checks: verify imports parametric, never the reverse
    tree = ast.parse(Path(multisum.__file__).with_name("parametric.py").read_text())
    sources = [(node.module or "").split(".") + [alias.name for alias in node.names]
               for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    sources += [alias.name.split(".") for node in ast.walk(tree)
                if isinstance(node, ast.Import) for alias in node.names]
    assert sources
    assert [names for names in sources if "verify" in names] == []


# what scipy.integrate brings with it; only the quadrature-backed identity moments need it
HEAVY_SCIPY = ("scipy.integrate", "scipy.optimize", "scipy.sparse", "scipy.linalg")

IMPORT_PROBE = """
import json, sys
import multisum.cli

def heavy():
    return sorted(m for m in sys.modules if m.startswith(HEAVY))

HEAVY = tuple(sys.argv[1].split(","))
after_import = heavy()
code = multisum.cli.main(["simulate", "--config", sys.argv[2], "--out", sys.argv[3]])
print(json.dumps({"import": after_import, "simulate": heavy(), "exit": code}))
"""


def test_cli_and_a_normal_simulate_load_no_heavy_scipy(tmp_path):
    # a fresh interpreter, so no other test's imports count
    config = Path(__file__).resolve().parent.parent / "demos" / "configs" / "simulate_smoke.json"
    src = str(Path(multisum.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, ",".join(HEAVY_SCIPY),
                           str(config), str(tmp_path / "out")],
                          env=env, capture_output=True, text=True, check=True)
    loaded = json.loads(done.stdout.splitlines()[-1])
    assert loaded == {"import": [], "simulate": [], "exit": 0}


def _bench_tracer(monkeypatch):
    path = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer)    # dataclasses look it up
    spec.loader.exec_module(tracer)
    return tracer


def test_benchmark_trace_targets_resolve(monkeypatch):
    # the traced benchmark patches these names in place and fails on a missing one
    tracer = _bench_tracer(monkeypatch)
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


def test_benchmark_trace_counters_read_the_sampling_arguments(monkeypatch):
    # the counters read arguments by position, so a reordered signature breaks them
    tracer = _bench_tracer(monkeypatch)
    active = tracer.Tracer()
    active.install(tracer.LAYERS)
    try:
        kernel = multisum.DegenerateKernel(2, {(1, 1): 1.0, (2, 2): 0.5},
                                           [multisum.FactorFamily("hermite")] * 2)
        laws = [multisum.AxisDistribution("standard_normal"),
                multisum.AxisDistribution("log_weibull", beta=1.0)]
        multisum.simulate_S_L(kernel, multisum.make_rect([5, 3]), laws, 10,
                              multisum.RngSpec(1))
    finally:
        active.uninstall()
    layers = tracer.summarize(active.spans)
    assert layers["mc.simulate_S_L"]["cells"] == 10 * 15
    # 5 normal columns, 3 log-Weibull ones of two uniforms; each padded to 8 doubles
    assert (layers["mc.uniform_block"]["doubles"], layers["mc.uniform_block"]["used"]) == \
        (10 * (8 + 8), 10 * (5 + 6))
    assert layers["mc.transform"]["values"] == 10 * (5 + 3)
