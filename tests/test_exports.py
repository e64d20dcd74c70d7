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


def test_only_the_loader_imports_scipy_special():
    # scipy.special's package init costs about 0.25 s of a cold start; multisum._special
    # loads the ufuncs without it, and any other import of the package would bring it back
    importers = []
    for path in sorted(Path(multisum.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        names = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                 for alias in node.names]
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                names.append(node.module)
                names += [f"{node.module}.{alias.name}" for alias in node.names]
        if any(name == "scipy.special" or name.startswith("scipy.special.") for name in names):
            importers.append(path.name)
    assert importers == ["_special.py"]


# what scipy.integrate brings with it, which only the quadrature-backed identity moments
# need, and what scipy.special's package init brings, which multisum never needs
HEAVY_SCIPY = ("scipy.integrate", "scipy.optimize", "scipy.sparse", "scipy.linalg",
               "numpy.f2py", "numpy.testing", "scipy._lib.array_api_compat",
               "scipy.special._support_alternative_backends")
SIMULATE_SMOKE = "demos/configs/simulate_smoke.json"
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
import json, sys
from pathlib import Path
import multisum.cli

def heavy():
    return sorted(m for m in sys.modules if m.startswith(HEAVY))

HEAVY = tuple(sys.argv[1].split(","))
after_import = heavy()
code = multisum.cli.main(["simulate", "--config", sys.argv[2], "--out", sys.argv[3],
                          "--workers", "1"])
files = json.loads((Path(sys.argv[3]) / "manifest.json").read_text())["files"]
print(json.dumps({"import": after_import, "simulate": heavy(), "exit": code, "files": files}))
"""


def test_cli_and_a_normal_simulate_load_no_heavy_scipy(tmp_path):
    # in-process golden tests usually run after some test imported scipy.special, so this
    # is the check that the ufuncs loaded without its init give the pinned bytes
    golden = json.loads((ROOT / "tests" / "golden_manifests.json").read_text())[SIMULATE_SMOKE]
    loaded = run_fresh(IMPORT_PROBE, ",".join(HEAVY_SCIPY), str(ROOT / SIMULATE_SMOKE),
                       str(tmp_path / "out"))
    assert loaded == {"import": [], "simulate": [], "exit": golden["exit"],
                      "files": golden["files"]}


LOADER_PROBE = """
import json, sys
{before}
from multisum import kernels, mc
special_at_import = "scipy.special" in sys.modules
import scipy.special
real = sys.modules["scipy.special"]
print(json.dumps({{
    "special_at_import": special_at_import,
    "same": [mc.gammaln is real.gammaln, kernels.gammaln is real.gammaln,
             kernels.eval_laguerre is real.eval_laguerre],
    "real": [hasattr(real, "__file__"), hasattr(real, "logsumexp")],
    "moment": mc.AxisDistribution("centered_exponential").identity_moment(2.0),
    "integrate": "scipy.integrate" in sys.modules,
    {extra}
}}))
"""

REFUSE_UFUNCS_ONCE = """
class RefuseOnce:
    refused = 0

    def find_spec(self, name, path=None, target=None):
        if name == "scipy.special._ufuncs" and not self.refused:
            self.refused += 1
            raise ImportError("refused")
        return None

finder = RefuseOnce()
sys.meta_path.insert(0, finder)
"""


@pytest.mark.parametrize("before, extra, special_at_import, refused", [
    ("", "", False, None),
    ("import scipy.special", "", True, None),
    (REFUSE_UFUNCS_ONCE, '"refused": finder.refused,', True, 1),
], ids=["multisum-first", "scipy-special-first", "private-load-refused"])
def test_special_loader_serves_the_public_ufuncs(before, extra, special_at_import, refused):
    # the private load leaves no stand-in behind, and a refused one falls back to the public
    # names; either way multisum calls the very objects scipy.special exports
    got = run_fresh(LOADER_PROBE.format(before=before, extra=extra))
    assert got.pop("refused", None) == refused
    assert got == {"special_at_import": special_at_import, "same": [True] * 3,
                   "real": [True, True], "moment": pytest.approx(1.0, rel=1e-9),
                   "integrate": True}


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
    # 3 log-Weibull columns of two uniforms, padded to 8 doubles; the 5 normal columns are
    # drawn by the ziggurat, through neither uniforms nor an inverse CDF
    assert (layers["mc.uniform_block"]["doubles"], layers["mc.uniform_block"]["used"]) == \
        (10 * 8, 10 * 6)
    assert layers["mc.transform"]["values"] == 10 * 3
