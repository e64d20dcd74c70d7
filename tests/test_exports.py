"""Public names and imports: every advertised export resolves, so deleted names cannot
linger, and a cold import loads no more of SciPy than ``multisum`` needs."""

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
from make_golden_manifests import cases

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


def test_only_quad_imports_scipy():
    # SciPy costs about 5 MB and 15-30 ms of a cold start: only mc._quad may load it, on
    # first use, for the two identity moments that integrate numerically
    importers = []
    for path in sorted(Path(multisum.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        scopes = [(node.name, node) for node in ast.walk(tree)
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            if any(name == "scipy" or name.startswith("scipy.") for name in names):
                inner = [name for name, scope in scopes if node in ast.walk(scope)]
                importers.append((path.name, inner[-1] if inner else None))
    assert importers == [("mc.py", "_quad")]


# a cold CLI process loads no SciPy (mc._quad brings it only for two identity moments), no
# numpy.ma (np.unique and np.quantile would import it) and no numpy.polynomial (the Gauss
# rules are built on numpy.linalg); the moment tables load with the first standard error a
# run reads, so bound and verify never load them and simulate does.  The thread pool (and
# the logging it imports) loads only for a run of two or more worker chunks, so none of
# these one-worker runs loads it.  Each run is a golden case (the smoke demo simulates
# N = 1 and reads no standard error): a parametric verify, whose stages draw segment
# chi-squares by NumPy's gamma sampler, runs the benchmark's smoke field.  The probe's list
# is cumulative, so simulate runs last
UNLOADED = ("scipy", "numpy.ma", "numpy.polynomial", "multisum._moments", "concurrent.futures")
PROBED = {"bound": ("bound", "demos/configs/bound_rank1.json"),
          "verify": ("verify", "demos/configs/lshape_fixed_fraction.json"),
          "verify parametric": ("verify", "bench/field/seed1/0"),
          "simulate": ("simulate", "bench/sim-box/seed1/0")}
LOADED = {"simulate": ["multisum._moments"]}
ROOT = Path(__file__).resolve().parent.parent


def run_fresh(code: str, *args: str) -> dict:
    """The JSON last printed by ``code`` in a fresh interpreter, so no other test's imports count."""
    src = str(Path(multisum.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run([sys.executable, "-c", code, *args],
                          env=env, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


IMPORT_PROBE = """
import contextlib, io, json, sys
from pathlib import Path
import multisum.cli

def loaded():
    return sorted(m for m in sys.modules if m in UNLOADED or m.startswith(PACKAGES))

UNLOADED = sys.argv[1].split(",")
PACKAGES = tuple(name + "." for name in UNLOADED)
runs = {"import": {"loaded": loaded()}}
for run, command, config in zip(sys.argv[3::3], sys.argv[4::3], sys.argv[5::3]):
    out = Path(sys.argv[2]) / run
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = multisum.cli.main([command, "--config", config, "--out", str(out),
                                  "--workers", "1"])
    files = json.loads((out / "manifest.json").read_text())["files"]
    runs[run] = {"loaded": loaded(), "exit": code, "files": files}
print(json.dumps(runs))
"""


def test_cli_and_a_normal_simulate_load_no_heavy_scipy(tmp_path):
    # in-process golden tests usually run after some test imported SciPy, so this is also the
    # check that a process without it writes the pinned bytes
    golden = json.loads((ROOT / "tests" / "golden_manifests.json").read_text())
    configs, args = cases(), []
    for i, (run, (command, case)) in enumerate(PROBED.items()):
        path = tmp_path / f"{i}.json"
        path.write_text(json.dumps(configs[case][1]))
        args += [run, command, str(path)]
    loaded = run_fresh(IMPORT_PROBE, ",".join(UNLOADED), str(tmp_path), *args)
    assert loaded == {"import": {"loaded": []}, **{
        run: {"loaded": LOADED.get(run, []), "exit": golden[case]["exit"],
              "files": golden[case]["files"]} for run, (_, case) in PROBED.items()}}


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
        # a sampler reads its uniforms from pages, not through uniform_block, so call it
        multisum.RngSpec(1).uniform_block(multisum.mc.TAG_AXIS, 1, 0, 10, 6)
    finally:
        active.uninstall()
    layers = tracer.summarize(active.spans)
    assert layers["mc.simulate_S_L"]["cells"] == 10 * 15
    # 10 rows of 6 uniforms, which the tracer counts padded to 8 doubles; the 3 log-Weibull
    # columns are transformed, the 5 normal columns drawn by the ziggurat, through neither
    # uniforms nor an inverse CDF
    assert (layers["mc.uniform_block"]["calls"], layers["mc.uniform_block"]["doubles"],
            layers["mc.uniform_block"]["used"]) == (1, 10 * 8, 10 * 6)
    assert layers["mc.transform"]["values"] == 10 * 3


def test_orthonormality_is_not_declared():
    # the chaos-limit hypothesis is read off the factor kinds (kernels.orthonormal_factors),
    # so no call passes it and no shipped config declares it
    calls = []
    for path in sorted(p for top in ("src", "demos", "tests") for p in (ROOT / top).rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and any(kw.arg == "orthonormal" for kw in node.keywords):
                calls.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    configs = [path.name for path in sorted((ROOT / "demos" / "configs").glob("*.json"))
               if "orthonormal" in json.dumps(json.loads(path.read_text()))]
    assert calls == [] and configs == []
