"""Batch front-end: exit codes, schemas, and byte-level determinism."""

import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest

from multisum import (AxisDistribution, FactorFamily, RngSpec, kernel_from_json,
                      kernel_to_json, load_empirical, make_rect, rosenthal_K, simulate_S_L)
from multisum import kernels, mc
from multisum.cli import main
from multisum.index_sets import index_set_from_json, lshape_family

CONFIG_DIR = Path(__file__).resolve().parent.parent / "demos" / "configs"


def run(tmp_path, name, args=(), out_name="out"):
    out = tmp_path / out_name
    code = main(["verify" if "verify" in name else name.split("_")[0],
                 "--config", str(CONFIG_DIR / name), "--out", str(out), *args])
    return code, out


def run_cmd(tmp_path, command, config, args=(), out_name="out"):
    out = tmp_path / out_name
    code = main([command, "--config", str(config), "--out", str(out), *args])
    return code, out


def read_outputs(out_dir: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


# ---------------------------------------------------------------------------
# bound command
# ---------------------------------------------------------------------------


def test_bound_rank_one_rows(tmp_path):
    code, out = run_cmd(tmp_path, "bound", CONFIG_DIR / "bound_rank1.json")
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    csv = (out / manifest["files"]["bounds"]).read_text().strip().split("\n")
    assert csv[0] == "p,route,M_star,value"
    dp_p2 = [r for r in csv if r.startswith("2.0,dp_quasinorm,,")][0]
    parts = dp_p2.split(",")
    assert parts[2] == ""                      # no rank for this route
    assert float(parts[3]) == pytest.approx(1.0, rel=1e-10)
    w_rows = [r for r in csv if ",theorem_W," in r]
    assert all(r.split(",")[2] == "1" for r in w_rows)   # rank-one kernel


def test_missing_seed_is_schema_error(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"kernel": {}, "p_grid": [2.0]}))
    code, _ = run_cmd(tmp_path, "bound", cfg)
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert "seed" in err["error"]


def test_invalid_json_is_schema_error(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{not json")
    code, _ = run_cmd(tmp_path, "bound", cfg)
    assert code == 2


@pytest.mark.parametrize("field, value", [
    ("L_size", 2.5), ("L_size", 2.0), ("L_size", True),
    ("M_max", 1.5), ("M_max", True),
], ids=["L_size-fractional", "L_size-float", "L_size-bool", "M_max-fractional", "M_max-bool"])
def test_bound_non_integer_size_or_rank_exits_2(tmp_path, capsys, field, value):
    # int() once truncated these: L_size 2, 2.5 and 2.9 wrote the same bytes
    cfg = json.loads((CONFIG_DIR / "bound_rank1.json").read_text())
    cfg["bound"][field] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    code, _ = run_cmd(tmp_path, "bound", path)
    assert code == 2
    assert field in json.loads(capsys.readouterr().err)["error"]


@pytest.mark.parametrize("field, value, routes", [
    ("L_size", 0, ["dp_quasinorm"]), ("L_size", 0, ["trivial"]),
    ("L_size", -3, ["theorem_W"]), ("M_max", 0, ["trivial", "theorem_W"]),
    ("M_max", -1, ["dp_quasinorm"]),
], ids=["L_size-0-dp", "L_size-0-trivial", "L_size-negative-W", "M_max-0-trivial-W",
        "M_max-negative-dp"])
def test_bound_size_or_rank_below_one_exits_2_before_any_quadrature(
        tmp_path, capsys, monkeypatch, field, value, routes):
    # an L_size of 0 once wrote dp_quasinorm rows and exited 0, and M_max 0 surfaced
    # only after the trivial route's quadrature
    cfg = json.loads((CONFIG_DIR / "bound_rank1.json").read_text())
    cfg["bound"].update({field: value, "routes": routes})
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    walks, lp_norm = [], kernels._lp_norm
    monkeypatch.setattr(kernels, "_lp_norm",
                        lambda slabs, p_grid: walks.append(p_grid) or lp_norm(slabs, p_grid))
    code, _ = run_cmd(tmp_path, "bound", path)
    assert code == 2
    assert f"'{field}'" in json.loads(capsys.readouterr().err)["error"]
    assert walks == []


@pytest.mark.parametrize("p_grid, routes", [
    ([0.0], ["trivial"]), ([-1.0], ["trivial"]), ([0.5], ["trivial"]),
    ([1.0, 2.0], ["trivial"]), ([1.5, 2.0], ["trivial"]),
    ([1.5], ["dp_quasinorm"]), ([2.0, 1.5], ["theorem_W"]), ([1.0, 4.0], ["trivial", "theorem_W"]),
], ids=["zero-trivial", "negative-trivial", "half-trivial", "one-trivial",
        "one-and-a-half-trivial", "below-two-dp", "below-two-W", "one-trivial-W"])
def test_bound_p_below_its_routes_range_exits_2_before_any_quadrature(
        tmp_path, capsys, monkeypatch, p_grid, routes):
    # p = 0, -1 and 0.5 with the trivial route once exited 0 with numbers no theorem backs
    # (inf at p = 0); K(p) needs p >= 2 and once failed only through the blanket handler;
    # below 2 the 64-node rules are not exact for |f|^p and the error has no known sign, and
    # p = 1 on this kernel once wrote 6.4487 where the exact value is 10 * 2 / pi = 6.3662
    cfg = json.loads((CONFIG_DIR / "bound_rank1.json").read_text())
    cfg.update({"p_grid": p_grid, "bound": dict(cfg["bound"], routes=routes)})
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    walks, lp_norm = [], kernels._lp_norm
    monkeypatch.setattr(kernels, "_lp_norm",
                        lambda slabs, p_grid: walks.append(p_grid) or lp_norm(slabs, p_grid))
    code, out = run_cmd(tmp_path, "bound", path)
    assert code == 2
    assert "'p_grid'" in json.loads(capsys.readouterr().err)["error"]
    assert walks == []
    assert not out.exists()


@pytest.mark.parametrize("w", [True, "0.5", math.nan, -math.inf],
                         ids=["bool", "string", "nan", "minus-inf"])
@pytest.mark.parametrize("command, name, section", [
    ("bound", "bound_rank1.json", "kernel"),
    ("verify", "parametric_power.json", "parametric_kernel"),
], ids=["bound", "verify-parametric"])
def test_lambda_weight_that_is_no_finite_number_exits_2(tmp_path, capsys, command, name,
                                                         section, w):
    # each once ran as 1.0, 0.5 or a NaN or infinite weight and exited 0
    cfg = json.loads((CONFIG_DIR / name).read_text())
    cfg[section]["lambda"][-1]["w"] = w
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))   # NaN and -Infinity as Python's json reads them
    code, out = run_cmd(tmp_path, command, path)
    assert code == 2
    assert "'w'" in json.loads(capsys.readouterr().err)["error"]
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("command, name", [
    ("bound", "bound_rank1.json"),
    ("simulate", "simulate_smoke.json"),
    ("verify", "gauss_rank1.json"),
])
def test_repeated_lambda_multi_index_exits_2(tmp_path, capsys, command, name):
    # a second row of the same k once replaced the first without a word, so the run
    # used a kernel other than the one the config lists and exited 0
    cfg = json.loads((CONFIG_DIR / name).read_text())
    first = cfg["kernel"]["lambda"][0]
    cfg["kernel"]["lambda"].append({"k": first["k"], "w": 2.0 * first["w"] + 1.0})
    path = tmp_path / "repeated.json"
    path.write_text(json.dumps(cfg))
    code, out = run_cmd(tmp_path, command, path)
    assert code == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert f"k={first['k']}" in error and "repeated" in error
    assert not (out / "manifest.json").exists()


def test_bound_grid_past_the_node_limit_exits_2(tmp_path, capsys):
    # 140**5 Poisson nodes would take 430 GB as one grid; the limit stops it before any work
    cfg = {"seed": 1, "p_grid": [2.0], "bound": {"routes": ["trivial"], "L_size": 4},
           "kernel": {"d": 5, "factors": [{"kind": "poisson_charlier", "params": {}}] * 5,
                      "lambda": [{"k": [1] * 5, "w": 1.0}]}}
    path = tmp_path / "d5.json"
    path.write_text(json.dumps(cfg))
    code, _ = run_cmd(tmp_path, "bound", path)
    assert code == 2
    assert str(140 ** 5) in json.loads(capsys.readouterr().err)["error"]


def test_bound_computes_each_factor_moment_once_per_call(tmp_path, monkeypatch):
    # d = 3 Poisson-Charlier with 8 diagonal terms at three orders: each of the dp_quasinorm
    # and theorem_W calls reads 24 factor moments, of 8 distinct k
    kernel = {"d": 3, "factors": [{"kind": "poisson_charlier", "params": {}}] * 3,
              "lambda": [{"k": [k] * 3, "w": 2.0 ** -k} for k in range(1, 9)]}
    cfg = {"seed": 1, "p_grid": [2.0, 4.0, 8.0], "kernel": kernel,
           "bound": {"routes": ["trivial", "dp_quasinorm", "theorem_W"], "M_max": 8,
                     "L_size": 10_000}}
    path = tmp_path / "bounds.json"
    path.write_text(json.dumps(cfg))
    calls = []
    moment = FactorFamily.moment

    def counted(self, k, p, law=None):
        calls.append((self.kind, k, p, law))
        return moment(self, k, p, law)

    monkeypatch.setattr(FactorFamily, "moment", counted)
    code, out = run_cmd(tmp_path, "bound", path)
    monkeypatch.undo()
    assert code == 0
    assert len(calls) == 48
    assert all(calls.count(call) == 2 for call in calls)    # one per route
    # the floats of every moment computed afresh, added left to right
    fams = kernel_from_json(kernel).factors
    rows = json.loads((out / json.loads((out / "manifest.json").read_text())
                       ["files"]["bounds_rows"]).read_text())
    for row in rows:
        if row["route"] == "dp_quasinorm":
            p, total = row["p"], 0.0
            for k in range(1, 9):
                total += 2.0 ** -k * math.prod(fam.moment(k, p) for fam in fams)
            assert row["value"] == rosenthal_K(p) ** 3 * total


def test_bound_walks_each_term_set_once_for_the_whole_grid(tmp_path, monkeypatch):
    # the same kernel: one tensor-quadrature walk of the whole kernel serves the
    # trivial route at p = 2, 4 and 8 (3 walks when every p walked its own).
    # theorem_W walks none of its 7 non-empty tails: rank 8 leaves no residual and
    # wins at every p, and each tail's walk-free floor proves it cannot beat rank 8
    # (8 walks when every tail was walked)
    kernel = {"d": 3, "factors": [{"kind": "poisson_charlier", "params": {}}] * 3,
              "lambda": [{"k": [k] * 3, "w": 2.0 ** -k} for k in range(1, 9)]}
    cfg = {"seed": 1, "p_grid": [2.0, 4.0, 8.0], "kernel": kernel,
           "bound": {"routes": ["trivial", "dp_quasinorm", "theorem_W"], "M_max": 8,
                     "L_size": 10_000}}
    path = tmp_path / "bounds.json"
    path.write_text(json.dumps(cfg))
    walks, in_factor_moment = [], []
    lp_norm, moment = kernels._lp_norm, FactorFamily.moment

    def counted_walk(slabs, p_grid):
        if not in_factor_moment:    # the one-axis factor moments are not grid walks
            walks.append(p_grid)
        return lp_norm(slabs, p_grid)

    def flagged_moment(self, k, p, law=None):
        in_factor_moment.append(k)
        try:
            return moment(self, k, p, law)
        finally:
            in_factor_moment.pop()

    monkeypatch.setattr(kernels, "_lp_norm", counted_walk)
    monkeypatch.setattr(FactorFamily, "moment", flagged_moment)
    code, _ = run_cmd(tmp_path, "bound", path)
    assert code == 0
    assert walks == [[2.0, 4.0, 8.0]]


def test_bound_reruns_byte_identical(tmp_path):
    _, out1 = run_cmd(tmp_path, "bound", CONFIG_DIR / "bound_rank1.json",
                      out_name="a")
    _, out2 = run_cmd(tmp_path, "bound", CONFIG_DIR / "bound_rank1.json",
                      out_name="b")
    assert read_outputs(out1) == read_outputs(out2)


# ---------------------------------------------------------------------------
# simulate command
# ---------------------------------------------------------------------------


def test_simulate_smoke_single_replication(tmp_path):
    code, out = run_cmd(tmp_path, "simulate", CONFIG_DIR / "simulate_smoke.json")
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    summary = json.loads((out / manifest["files"]["summary"]).read_text())
    assert summary[0]["N"] == 1
    assert (out / manifest["files"]["dist_0"]).exists()
    assert (out / manifest["files"]["quantiles_0"]).exists()


def test_simulate_variance_ratio_near_one(tmp_path):
    cfg = tmp_path / "sim.json"
    base = json.loads((CONFIG_DIR / "simulate_smoke.json").read_text())
    base["N"] = 20000
    cfg.write_text(json.dumps(base))
    code, out = run_cmd(tmp_path, "simulate", cfg)
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    summary = json.loads((out / manifest["files"]["summary"]).read_text())
    assert summary[0]["var_ratio"] == pytest.approx(1.0, abs=0.1)


def test_simulate_worker_flag_changes_nothing(tmp_path):
    outs = []
    for i, workers in enumerate(("1", "4", "16")):
        _, out = run_cmd(tmp_path, "simulate", CONFIG_DIR / "simulate_smoke.json",
                         args=("--workers", workers), out_name=f"w{i}")
        outs.append(read_outputs(out))
    assert outs[0] == outs[1] == outs[2]


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_worker_count_below_one_exits_2_before_the_output_directory(tmp_path, capsys, workers):
    # such a count once ran as 1 and exited 0
    code, out = run_cmd(tmp_path, "simulate", CONFIG_DIR / "simulate_smoke.json",
                        args=("--workers", workers))
    assert code == 2
    assert "--workers" in json.loads(capsys.readouterr().err)["error"]
    assert not out.exists()


@pytest.mark.parametrize("command, name, path, value", [
    ("psi", "psi_tables.json", ("psi", "y_grid"), [-1.0]),
    ("psi", "psi_tables.json", ("psi", "spec", "family"), "no_such_family"),
    ("simulate", "simulate_smoke.json", ("index_sets", "family"), "no_such_family"),
    ("verify", "gauss_rank1.json", ("index_sets", "family"), "no_such_family"),
], ids=["psi-negative-y", "psi-unknown-family", "simulate-unknown-family",
        "verify-unknown-family"])
def test_a_config_error_inside_a_command_creates_no_output_directory(tmp_path, capsys, command,
                                                                    name, path, value):
    # a negative psi level once exited 2 after its psi_table and conjugate files were written,
    # with no manifest; an error found inside any command once left an empty --out behind
    cfg = json.loads((CONFIG_DIR / name).read_text())
    *parents, key = path
    node = cfg
    for part in parents:
        node = node[part]
    node[key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg))
    code, out = run_cmd(tmp_path, command, bad)
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"]
    assert not out.exists()


def test_seed_override_changes_samples(tmp_path):
    _, out1 = run_cmd(tmp_path, "simulate", CONFIG_DIR / "simulate_smoke.json",
                      out_name="a")
    _, out2 = run_cmd(tmp_path, "simulate", CONFIG_DIR / "simulate_smoke.json",
                      args=("--seed-override", "777"), out_name="b")
    assert read_outputs(out1) != read_outputs(out2)


def _cubic_simulate_config(tmp_path, index_sets):
    cfg = tmp_path / "cubic.json"
    cfg.write_text(json.dumps({
        "seed": 5, "N": 200,
        "kernel": {"d": 3, "factors": [{"kind": "hermite", "params": {}}] * 3,
                   "lambda": [{"k": [1, 1, 1], "w": 1.0}]},
        "distributions": ["standard_normal"] * 3,
        "index_sets": index_sets,
    }))
    return cfg


def test_simulate_boxes_follow_kernel_dimension(tmp_path):
    cfg = _cubic_simulate_config(tmp_path, {"family": "boxes", "sizes": [4]})
    code, out = run_cmd(tmp_path, "simulate", cfg)
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    summary = json.loads((out / manifest["files"]["summary"]).read_text())
    assert summary[0]["index_set"]["params"]["n"] == [4, 4, 4]
    assert math.prod(summary[0]["index_set"]["params"]["n"]) == 64


def test_simulate_on_a_cube_of_2_pow_64_cells_exits_0_with_finite_sums(tmp_path):
    # |L| = 2**64 wrapped to 0 as an int64 product, and S_L divided by sqrt(0); the
    # identity kernel segments every axis, so ten replications draw one normal per axis
    cfg = tmp_path / "cube.json"
    cfg.write_text(json.dumps({
        "seed": 3, "N": 10,
        "kernel": {"d": 4, "factors": [{"kind": "hermite", "params": {}}] * 4,
                   "lambda": [{"k": [1, 1, 1, 1], "w": 1.0}]},
        "distributions": ["standard_normal"] * 4,
        "index_sets": {"family": "squares", "sizes": [2 ** 16]},
    }))
    code, out = run_cmd(tmp_path, "simulate", cfg)
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    summary, = json.loads((out / manifest["files"]["summary"]).read_text())
    dist = mc.load_empirical(out / manifest["files"]["dist_0"])
    assert dist.n == 10 and np.all(np.isfinite(dist.values))
    assert math.isfinite(summary["variance"]) and math.isfinite(summary["variance_se"])


def test_simulate_index_set_of_wrong_dimension_exits_2(tmp_path, capsys):
    square = {"d": 2, "kind": "rect", "params": {"n": [3, 3]}}
    # declared d and params disagree, whether or not the params fit the kernel
    flat = {"d": 3, "kind": "rect", "params": {"n": [4, 4]}}
    cube = {"d": 2, "kind": "rect", "params": {"n": [4, 4, 4]}}
    undeclared = {"kind": "rect", "params": {"n": [4, 4, 4]}}
    for i, index_set in enumerate((square, flat, cube, undeclared)):
        cfg = _cubic_simulate_config(tmp_path, {"list": [index_set]})
        code, _ = run_cmd(tmp_path, "simulate", cfg, out_name=f"run{i}")
        assert code == 2
        assert "dimension" in json.loads(capsys.readouterr().err)["error"]


def test_simulate_summary_names_explicit_sets_by_their_boxes(tmp_path):
    cfg = tmp_path / "lshape.json"
    base = json.loads((CONFIG_DIR / "simulate_smoke.json").read_text())
    base["index_sets"] = {"family": "lshape_fixed_fraction", "sizes": [256]}
    cfg.write_text(json.dumps(base))
    code, out = run_cmd(tmp_path, "simulate", cfg)
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    path = out / manifest["files"]["summary"]
    assert path.stat().st_size < 1024
    written = json.loads(path.read_text())[0]["index_set"]
    clone, L = index_set_from_json(written), lshape_family([256])[0]
    assert np.array_equal(clone.lo, L.lo) and np.array_equal(clone.hi, L.hi)


# the files the simulate below writes; each name carries its content digest, so
# this map pins every output byte (on these normal axes the summary's variance_se
# is exact, from mc._sum_moments).  Both sets read one stream; the (1, 1) kernel's axes
# are segmented, so each draws 3 normals, one per segment between the cuts 1, 5, 9, 17
LSHAPE_FILES = {
    "dist_0": "dist_0-174850d9866a.bin", "dist_1": "dist_1-cee6158adb5c.bin",
    "quantiles_0": "quantiles_0-f55a903ae8b1.csv", "quantiles_1": "quantiles_1-078e1f45973a.csv",
    "summary": "summary-70e29231be93.json",
}


@pytest.mark.parametrize("workers", [1, 4])
def test_simulate_explicit_lshapes_pinned_bytes(tmp_path, workers):
    base = json.loads((CONFIG_DIR / "lshape_fixed_fraction.json").read_text())
    cfg = {key: base[key] for key in ("kernel", "distributions", "seed")}
    cfg["N"] = 200
    cfg["index_sets"] = {"list": [
        {"d": 2, "kind": "explicit", "params": {"boxes": [[[1, 1], [4, 8]], [[5, 1], [8, 4]]]}},
        {"d": 2, "kind": "explicit",
         "params": {"boxes": [[[1, 1], [8, 16]], [[9, 1], [16, 8]]]}},
    ]}
    path = tmp_path / "lshapes.json"
    path.write_text(json.dumps(cfg))
    code, out = run_cmd(tmp_path, "simulate", path, args=["--workers", str(workers)])
    assert code == 0
    assert json.loads((out / "manifest.json").read_text())["files"] == LSHAPE_FILES


# a simulate on Poisson and Rademacher axes at N = 300: these laws are inverse CDFs of
# the uniforms of their streams' pages, so the dist and quantile bytes move only with the
# uniform pages or the inverse CDFs.  Charlier and sign factors on their base laws have law
# tables with mean 0 and G = I, so the summary's variance_se is exact (0.257 and 0.231,
# where the plug-in read 0.141 and 0.082), from mc._sum_moments
NON_NORMAL_FILES = {
    "dist_0": "dist_0-24a4a6808862.bin", "dist_1": "dist_1-5e3820bfec9a.bin",
    "quantiles_0": "quantiles_0-e32430499df8.csv", "quantiles_1": "quantiles_1-c8f55964a3b8.csv",
    "summary": "summary-1d2abd47d033.json",
}


def test_simulate_non_normal_laws_pinned_bytes(tmp_path):
    cfg = {"N": 300, "seed": 77, "distributions": ["compensated_poisson", "rademacher"],
           "index_sets": {"family": "squares", "sizes": [4, 6]},
           "kernel": {"d": 2,
                      "factors": [{"kind": "poisson_charlier", "params": {}},
                                  {"kind": "rademacher_sign", "params": {}}],
                      "lambda": [{"k": [1, 1], "w": 0.8}, {"k": [2, 1], "w": 0.5}]}}
    path = tmp_path / "non_normal.json"
    path.write_text(json.dumps(cfg))
    code, out = run_cmd(tmp_path, "simulate", path)
    assert code == 0
    assert json.loads((out / "manifest.json").read_text())["files"] == NON_NORMAL_FILES


def _normal_page_configs():
    sim = json.loads((CONFIG_DIR / "simulate_smoke.json").read_text())
    sim.update(N=3000, index_sets={"family": "squares", "sizes": [40, 64]})
    nclt = json.loads((CONFIG_DIR / "gauss_rank1.json").read_text())
    nclt["N"] = 3000
    nclt["verify"]["limit_n"] = 70_000
    return {"simulate": sim, "verify": nclt}


@pytest.mark.parametrize("command", ["simulate", "verify"])
def test_normal_runs_write_the_same_bytes_at_any_worker_count_and_block_cap(
        tmp_path, monkeypatch, command):
    # 64 normal columns make pages of 1 024 replications and limit_n 70 000 two pages of
    # betas, so worker chunks and blocks start inside pages
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_normal_page_configs()[command]))
    outputs = []
    for budget in (1 << 12, mc._BLOCK_BUDGET):
        monkeypatch.setattr(mc, "_BLOCK_BUDGET", budget)
        for workers in (1, 2, 4):
            code, out = run_cmd(tmp_path, command, path, args=("--workers", str(workers)),
                                out_name=f"out-{budget}-{workers}")
            assert code == 0
            outputs.append(read_outputs(out))
    assert all(got == outputs[0] for got in outputs[1:])


def _listed(kind, **params):
    return {"list": [{"d": 2, "kind": kind, "params": params}]}


@pytest.mark.parametrize("field, value", [
    ("index_sets", {"family": "squares", "sizes": [4.5]}),
    ("index_sets", {"family": "squares", "sizes": [True]}),
    ("index_sets", {"family": "squares_minus_corner", "sizes": [4.5]}),
    ("index_sets", {"family": "lshape_fixed_fraction", "sizes": [8.5]}),
    ("index_sets", {"family": "lshape_fixed_fraction", "sizes": [4], "fraction": 0.0}),
    ("index_sets", {"family": "lshape_fixed_fraction", "sizes": [4], "fraction": -0.3}),
    ("index_sets", _listed("rect", n=[3.9, 2])),
    ("index_sets", _listed("staircase", profile=[3.5, 2])),
    ("index_sets", _listed("explicit", boxes=[[[1.5, 1], [2, 2]]])),
    ("index_sets", _listed("explicit", cells=[[1, 1], [1.7, 2]])),
    ("N", True),
    ("seed", True),
], ids=["square-size-float", "square-size-bool", "corner-size-float", "lshape-size-float",
        "fraction-zero", "fraction-negative", "rect-float", "staircase-float",
        "box-corner-float", "cell-float", "N-bool", "seed-bool"])
def test_simulate_non_integer_or_out_of_range_input_exits_2(tmp_path, field, value):
    # each of these once ran on a truncated or altered set, or with N or seed 1
    cfg = json.loads((CONFIG_DIR / "simulate_smoke.json").read_text())
    cfg[field] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    code, _ = run_cmd(tmp_path, "simulate", path)
    assert code == 2


# ---------------------------------------------------------------------------
# verify command
# ---------------------------------------------------------------------------


def test_verify_gauss_rank1_passes(tmp_path):
    code, out = run_cmd(tmp_path, "verify", CONFIG_DIR / "gauss_rank1.json")
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    verdict = json.loads((out / manifest["files"]["verdict"]).read_text())
    assert verdict["verdict"] == "pass"
    assert manifest["files"]["plot"].endswith(".gp")
    lines = (out / manifest["files"]["stages"]).read_text().strip().split("\n")
    assert lines[0] == "stage,L_size,kappa_minus,kappa_plus,ks,verdict"
    assert lines[1].startswith("0,16,")


def test_verify_failed_check_exits_5(tmp_path):
    cfg = json.loads((CONFIG_DIR / "gauss_rank1.json").read_text())
    cfg["verify"]["final_ks"] = 1e-6
    path = tmp_path / "strict.json"
    path.write_text(json.dumps(cfg))
    code, out = run_cmd(tmp_path, "verify", path)
    assert code == 5
    manifest = json.loads((out / "manifest.json").read_text())
    verdict = json.loads((out / manifest["files"]["verdict"]).read_text())
    assert verdict["verdict"] == "fail"


def test_verify_cube_family_and_equal_list_agree(tmp_path):
    """Two spellings of the same (non-growing) cubes get one verdict and one exit code."""
    base = json.loads((CONFIG_DIR / "gauss_rank1.json").read_text())
    square = {"d": 2, "kind": "rect", "params": {"n": [16, 16]}}
    results = []
    for name, index_sets in (("family", {"family": "squares", "sizes": [16, 16]}),
                             ("list", {"list": [square, square]})):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(dict(base, index_sets=index_sets)))
        code, out = run_cmd(tmp_path, "verify", path, out_name=name)
        manifest = json.loads((out / "manifest.json").read_text())
        results.append((code, (out / manifest["files"]["verdict"]).read_bytes()))
    assert results[0] == results[1]
    assert results[0][0] == 3
    assert json.loads(results[0][1])["verdict"] == "hypotheses not met"


def test_verify_nclt_on_cubes_past_int64(tmp_path):
    # 4-cubes of sides 2**15 and 2**16 have 2**60 and 2**64 cells; the inscribed-box search
    # wrapped at 2**63 and the report raised, so this config exited 2.  The identity kernel
    # on normal axes draws one normal per segment, so the sizes cost nothing to sample
    cfg = json.loads((CONFIG_DIR / "gauss_rank1.json").read_text())
    cfg.update(N=200, distributions=["standard_normal"] * 4,
               index_sets={"family": "boxes", "sizes": [2 ** 15, 2 ** 16]})
    cfg["kernel"].update(d=4, factors=[{"kind": "hermite", "params": {}}] * 4,
                         **{"lambda": [{"k": [1, 1, 1, 1], "w": 1.0}]})
    cfg["verify"]["limit_n"] = 500
    path = tmp_path / "cubes.json"
    path.write_text(json.dumps(cfg))
    code, out = run_cmd(tmp_path, "verify", path)
    assert code != 2
    stages = _verdict_json(out)["stages"]
    assert [s["L_size"] for s in stages] == [2 ** 60, 2 ** 64]
    assert all(s["kappa_minus"] == s["kappa_plus"] == 0.0 for s in stages)


def test_verify_lshape_hypotheses_not_met(tmp_path):
    code, out = run_cmd(tmp_path, "verify", CONFIG_DIR / "lshape_fixed_fraction.json")
    assert code == 3
    manifest = json.loads((out / "manifest.json").read_text())
    verdict = json.loads((out / manifest["files"]["verdict"]).read_text())
    assert verdict["verdict"] == "hypotheses not met"


def test_verify_poisson_sandwich_shape_fits(tmp_path):
    code, out = run_cmd(tmp_path, "verify", CONFIG_DIR / "poisson_9c.json")
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    verdict = json.loads((out / manifest["files"]["verdict"]).read_text())
    assert verdict["verdict"] == "pass"
    fits = verdict["shape_fits"]
    assert fits["expected_lower_slope"] == 2.0
    assert fits["expected_upper_slope"] == 4.0
    assert fits["lower_slope"] > 1.5
    assert fits["upper_slope"] > fits["lower_slope"]


def test_verify_tail_dominates(tmp_path):
    code, out = run_cmd(tmp_path, "verify", CONFIG_DIR / "tail_gauss.json")
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    verdict = json.loads((out / manifest["files"]["verdict"]).read_text())
    assert verdict["verdict"] == "pass"
    assert verdict["violations"] == 0


def _wide_tail_config():
    # 20 terms of weight 0.1: the bound starts at e * sum|lambda| ~ 5.4, about
    # 12 standard deviations out, so no level reaches the estimability floor
    cfg = json.loads((CONFIG_DIR / "tail_gauss.json").read_text())
    cfg["N"] = 2000
    cfg["kernel"]["lambda"] = [{"k": [k, k], "w": 0.1} for k in range(1, 21)]
    return cfg


def test_verify_tail_probing_no_level_exits_3(tmp_path):
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(_wide_tail_config()))
    code, out = run_cmd(tmp_path, "verify", path)
    assert code == 3
    manifest = json.loads((out / "manifest.json").read_text())
    verdict = json.loads((out / manifest["files"]["verdict"]).read_text())
    assert [row["probed_points"] for row in verdict["rows"]] == [0, 0]
    assert verdict["verdict"] == "hypotheses not met"


def test_verify_tail_empty_p_grid_exits_2(tmp_path, capsys):
    # an explicit empty grid once fell back to the default grid and exited 0
    cfg = json.loads((CONFIG_DIR / "tail_gauss.json").read_text())
    cfg["p_grid"] = []
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(cfg))
    code, _ = run_cmd(tmp_path, "verify", path)
    assert code == 2
    assert "p-grid" in json.loads(capsys.readouterr().err)["error"]


def _verify_cases():
    """Every verify demo config, plus variants that reach the other verdicts."""
    cases = {p.stem: json.loads(p.read_text()) for p in sorted(CONFIG_DIR.glob("*.json"))}
    cases = {name: cfg for name, cfg in cases.items() if "verify" in cfg}
    cases["tail-no-level-probed"] = _wide_tail_config()
    cases["sandwich-empty-p_grid"] = dict(cases["poisson_9c"], p_grid=[])
    strict = json.loads((CONFIG_DIR / "gauss_rank1.json").read_text())
    strict["verify"]["final_ks"] = 1e-6
    cases["nclt-strict"] = strict
    return [pytest.param(cfg, id=name) for name, cfg in sorted(cases.items())]


@pytest.mark.parametrize("cfg", _verify_cases())
def test_verify_exit_code_follows_the_verdict(tmp_path, cfg):
    path = tmp_path / "verify.json"
    path.write_text(json.dumps(cfg))
    code, out = run_cmd(tmp_path, "verify", path)
    manifest = json.loads((out / "manifest.json").read_text())
    verdict = json.loads((out / manifest["files"]["verdict"]).read_text())
    assert code == {"pass": 0, "hypotheses not met": 3, "fail": 5}[verdict["verdict"]]


LIMIT_CHECKS = [("gauss_rank1.json", "kernel"), ("parametric_power.json", "parametric_kernel")]


@pytest.mark.parametrize("config, key", LIMIT_CHECKS)
def test_verify_limit_check_requires_orthonormal_factors(tmp_path, capsys, config, key):
    # a tabulated factor is orthonormal only under its node weights, which no axis law samples
    cfg = json.loads((CONFIG_DIR / config).read_text())
    cfg[key]["factors"][1] = {"kind": "tabulated", "params": {
        "nodes": [-1.0, 1.0], "table": [[-1.0, 1.0]], "weights": [0.5, 0.5]}}
    cfg[key]["orthonormal"] = True      # a declared flag does not override the factor kinds
    path = tmp_path / "tabulated.json"
    path.write_text(json.dumps(cfg))
    code, out = run_cmd(tmp_path, "verify", path)
    assert code == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert "orthonormal" in error and "'tabulated'" in error
    assert not out.exists()


@pytest.mark.parametrize("value", [False, "absent"])
@pytest.mark.parametrize("config, key", LIMIT_CHECKS)
def test_verify_limit_check_reads_the_factor_kinds_not_a_key(tmp_path, config, key, value):
    # analytic factors are orthonormal under their base laws, whatever a legacy key says
    cfg = json.loads((CONFIG_DIR / config).read_text())
    cfg[key].pop("orthonormal", None)
    if value != "absent":
        cfg[key]["orthonormal"] = value
    path = tmp_path / "analytic.json"
    path.write_text(json.dumps(cfg))
    code, out = run_cmd(tmp_path, "verify", path)
    golden = json.loads((CONFIG_DIR.parent.parent / "tests" / "golden_manifests.json")
                        .read_text())[f"demos/configs/{config}"]
    assert code == golden["exit"] == 0
    assert json.loads((out / "manifest.json").read_text())["files"] == golden["files"]


def test_legacy_orthonormal_key_changes_no_byte(tmp_path):
    # bench configs still write the key; any value, or none, gives one kernel JSON and one set
    # of simulate outputs, since the key written is derived from the factor kinds
    base = json.loads((CONFIG_DIR / "simulate_smoke.json").read_text())
    seen = set()
    for i, value in enumerate([True, False, "no", "absent"]):
        cfg = json.loads(json.dumps(base))
        cfg["kernel"].pop("orthonormal", None)
        if value != "absent":
            cfg["kernel"]["orthonormal"] = value
        path = tmp_path / f"legacy{i}.json"
        path.write_text(json.dumps(cfg))
        code, out = run_cmd(tmp_path, "simulate", path, out_name=f"out{i}")
        assert code == 0
        files = json.loads((out / "manifest.json").read_text())["files"]
        kernel = kernel_to_json(kernel_from_json(cfg["kernel"]))
        assert kernel["orthonormal"] is True
        seen.add((json.dumps(kernel, sort_keys=True), json.dumps(files, sort_keys=True)))
    assert len(seen) == 1


def test_verify_parametric_power(tmp_path):
    code, out = run_cmd(tmp_path, "verify", CONFIG_DIR / "parametric_power.json")
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    verdict = json.loads((out / manifest["files"]["verdict"]).read_text())
    assert verdict["hypotheses_met"]
    assert math.isfinite(verdict["hypotheses"]["entropy_integral"])


@pytest.mark.parametrize("v_index", [-1, 5, True])
def test_verify_parametric_point_index_out_of_range_exits_2(tmp_path, capsys, v_index):
    cfg = json.loads((CONFIG_DIR / "parametric_power.json").read_text())
    assert len(cfg["parametric_kernel"]["V"]) == 5
    # the row of point 1, so True (== 1) repeats no row; NumPy would read it as a mask
    cfg["parametric_kernel"]["lambda"][1]["v_index"] = v_index
    path = tmp_path / "field.json"
    path.write_text(json.dumps(cfg))
    code, _ = run_cmd(tmp_path, "verify", path)
    assert code == 2
    assert "v_index" in json.loads(capsys.readouterr().err)["error"]


@pytest.mark.parametrize("path, value", [
    (("parametric_kernel", "lambda"), []),
    (("index_sets", "sizes"), []),
], ids=["lambda", "sizes"])
def test_verify_parametric_empty_input_exits_2(tmp_path, capsys, path, value):
    # each once ended in an uncaught IndexError (exit 1)
    cfg = json.loads((CONFIG_DIR / "parametric_power.json").read_text())
    section, key = path
    cfg[section][key] = value
    bad = tmp_path / "field.json"
    bad.write_text(json.dumps(cfg))
    code, _ = run_cmd(tmp_path, "verify", bad)
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"]


@pytest.mark.parametrize("level, named", [
    ({"kind": "powr", "tau": {"family": "power_log", "params": {"m": 2, "r": 0}}},
     "power | exponential"),
    ({"p": 2.0}, "power | exponential"),
    ({"kind": "exponential"}, "tau"),
    ("power", "power | exponential"),
], ids=["misspelt_kind", "missing_kind", "missing_tau", "not_an_object"])
def test_verify_parametric_bad_level_exits_2(tmp_path, capsys, level, named):
    # a misspelt kind was once checked silently as the exponential level
    cfg = json.loads((CONFIG_DIR / "parametric_power.json").read_text())
    cfg["verify"]["level"] = level
    bad = tmp_path / "field.json"
    bad.write_text(json.dumps(cfg))
    code, out = run_cmd(tmp_path, "verify", bad)
    assert code == 2
    assert named in json.loads(capsys.readouterr().err)["error"]
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("value", [5_000.5, 5_000.0, True],
                         ids=["fractional", "float", "bool"])
def test_verify_non_integer_limit_n_exits_2(tmp_path, capsys, value):
    cfg = json.loads((CONFIG_DIR / "gauss_rank1.json").read_text())
    cfg["verify"]["limit_n"] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    code, _ = run_cmd(tmp_path, "verify", path)
    assert code == 2
    assert "limit_n" in json.loads(capsys.readouterr().err)["error"]


@pytest.mark.parametrize("command, config, path, value", [
    ("verify", "gauss_rank1.json", ("verify", "final_ks"), -1.0),
    ("verify", "gauss_rank1.json", ("verify", "final_ks"), 0.0),
    ("verify", "gauss_rank1.json", ("verify", "final_ks"), 1.5),
    ("verify", "gauss_rank1.json", ("verify", "limit_n"), 0),
    ("verify", "gauss_rank1.json", ("N",), 0),
    ("verify", "parametric_power.json", ("verify", "final_ks"), 0.0),
    ("verify", "parametric_power.json", ("verify", "limit_n"), -2),
    ("verify", "parametric_power.json", ("N",), 0),
    ("simulate", "simulate_smoke.json", ("N",), 0),
    ("simulate", "simulate_smoke.json", ("N",), -5),
], ids=["nclt-final_ks-negative", "nclt-final_ks-0", "nclt-final_ks-above-1", "nclt-limit_n-0",
        "nclt-N-0", "parametric-final_ks-0", "parametric-limit_n-negative", "parametric-N-0",
        "simulate-N-0", "simulate-N-negative"])
def test_out_of_range_count_or_threshold_exits_2_before_any_sampling(
        tmp_path, capsys, monkeypatch, command, config, path, value):
    # a final_ks of -1 or 0 once ran the whole check and exited 5; N or limit_n 0 reached
    # the catch-all handler, after nclt had sampled every limit replication
    cfg = json.loads((CONFIG_DIR / config).read_text())
    *parents, key = path
    node = cfg
    for name in parents:
        node = node[name]
    node[key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg))
    draws, reader = [], mc.AxisDistribution.reader
    monkeypatch.setattr(mc.AxisDistribution, "reader",
                        lambda *args, **kw: draws.append(args[2:3]) or reader(*args, **kw))
    code, out = run_cmd(tmp_path, command, bad)
    assert code == 2
    assert f"'{key}'" in json.loads(capsys.readouterr().err)["error"]
    assert not out.exists()
    assert draws == []


@pytest.mark.parametrize("command, config, path, value", [
    ("verify", "gauss_rank1.json", ("verify", "final_ks"), True),
    ("verify", "parametric_power.json", ("verify", "level", "p"), True),
    ("verify", "lshape_fixed_fraction.json", ("index_sets", "fraction"), True),
    ("verify", "poisson_9c.json", ("p_grid",), [4.0, True]),
    ("verify", "tail_gauss.json", ("p_grid",), [2.0, True]),
    ("bound", "bound_rank1.json", ("p_grid",), [True, 4.0]),
    ("psi", "psi_tables.json", ("psi", "gls_norm"), True),
    ("psi", "psi_tables.json", ("psi", "p_grid"), [True]),
    ("psi", "psi_tables.json", ("psi", "x_grid"), [True]),
    ("psi", "psi_tables.json", ("psi", "y_grid"), [True, 5.0]),
], ids=["final_ks", "level-p", "fraction", "sandwich-p_grid", "tail-p_grid", "bound-p_grid",
        "gls_norm", "psi-p_grid", "x_grid", "y_grid"])
def test_bool_config_number_exits_2(tmp_path, capsys, command, config, path, value):
    # a bool once read as 1.0: final_ks true made any KS trajectory pass
    _assert_field_rejected(tmp_path, capsys, command, config, path, value)


def _assert_field_rejected(tmp_path, capsys, command, config, path, value):
    """Setting ``path`` in the demo ``config`` to ``value`` exits 2 with an error naming it."""
    cfg = json.loads((CONFIG_DIR / config).read_text())
    *parents, key = path
    node = cfg
    for name in parents:
        node = node[name]
    node[key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg))
    code, _ = run_cmd(tmp_path, command, bad)
    assert code == 2
    assert key in json.loads(capsys.readouterr().err)["error"]


@pytest.mark.parametrize("command, config, path, value", [
    ("bound", "bound_rank1.json", ("p_grid",), [math.nan]),
    ("bound", "bound_rank1.json", ("p_grid",), [2.0, math.inf]),
    ("psi", "psi_tables.json", ("psi", "x_grid"), [1.0, math.nan]),
    ("psi", "psi_tables.json", ("psi", "gls_norm"), math.inf),
    ("verify", "gauss_rank1.json", ("verify", "final_ks"), math.inf),
    ("verify", "tail_gauss.json", ("p_grid",), [2.0, 4.0, math.inf]),
], ids=["bound-p_grid-nan", "bound-p_grid-inf", "x_grid-nan", "gls_norm-inf", "final_ks-inf",
        "tail-p_grid-inf"])
def test_non_finite_config_number_exits_2(tmp_path, capsys, command, config, path, value):
    # JSON NaN and Infinity parse as floats: a NaN p_grid once wrote a NaN in every row
    _assert_field_rejected(tmp_path, capsys, command, config, path, value)


_SQUARES_NONE = {"family": "squares", "sizes": []}


@pytest.mark.parametrize("command, config, path, value", [
    ("bound", "bound_rank1.json", ("bound", "routes"), []),
    ("bound", "bound_rank1.json", ("bound", "routes"), "trivial"),
    ("bound", "bound_rank1.json", ("bound", "routes"), 5),
    ("bound", "bound_rank1.json", ("bound", "routes"), ["trivial", "bogus"]),
    ("bound", "bound_rank1.json", ("p_grid",), []),
    ("simulate", "simulate_smoke.json", ("index_sets", "sizes"), []),
    ("simulate", "simulate_smoke.json", ("index_sets", "sizes"), 6),
    ("simulate", "simulate_smoke.json", ("index_sets",), {"list": []}),
    ("verify", "poisson_9c.json", ("index_sets", "list"), []),
    ("verify", "poisson_9c.json", ("index_sets",), _SQUARES_NONE),
    ("verify", "tail_gauss.json", ("index_sets", "list"), []),
    ("verify", "tail_gauss.json", ("index_sets",), _SQUARES_NONE),
    ("verify", "gauss_rank1.json", ("index_sets", "sizes"), 4),
], ids=["routes-empty", "routes-string", "routes-number", "routes-unknown", "bound-p_grid-empty",
        "simulate-sizes-empty", "simulate-sizes-number", "simulate-list-empty",
        "sandwich-list-empty", "sandwich-sizes-empty", "tail-list-empty", "tail-sizes-empty",
        "nclt-sizes-number"])
def test_empty_or_malformed_route_grid_or_family_exits_2(tmp_path, capsys, command, config,
                                                        path, value):
    # empty routes, p_grid or sizes once ran and exited 0 (bound with an empty table, simulate
    # with an empty summary); the rest reached the catch-all handler or ran work first
    _assert_field_rejected(tmp_path, capsys, command, config, path, value)


def _staircase(profile):
    return {"list": [{"d": 2, "kind": "staircase", "params": {"profile": profile}}]}


@pytest.mark.parametrize("command, config, path, value, message", [
    ("simulate", None, None, None, "cannot read config"),
    ("simulate", "simulate_smoke.json", (), [1, 2], "must be a JSON object"),
    ("simulate", "simulate_smoke.json", ("distributions",), ["standard_normal"],
     "need 2 axis distributions"),
    ("simulate", "simulate_smoke.json", ("index_sets",), {"sizes": [4]},
     "either 'list' or 'family'"),
    ("simulate", "simulate_smoke.json", ("index_sets", "family"), "circles",
     "unknown index set family"),
    ("verify", "gauss_rank1.json", ("verify", "which"), "bogus", "verify.which"),
    ("simulate", "simulate_smoke.json", ("index_sets",),
     {"list": [{"d": 2, "kind": "disc", "params": {}}]}, "unknown index set kind"),
    ("simulate", "simulate_smoke.json", ("index_sets",), _staircase([2, -1]), "nonnegative"),
    ("simulate", "simulate_smoke.json", ("index_sets",), _staircase([0, 0]), "empty staircase"),
    ("simulate", "simulate_smoke.json", ("index_sets",),
     {"family": "squares_minus_corner", "sizes": [1]}, "need n >= 2"),
    ("simulate", "simulate_smoke.json", ("index_sets",),
     {"family": "lshape_fixed_fraction", "fraction": 0.99, "sizes": [2]}, "fraction too large"),
], ids=["unreadable", "json-array", "distributions-length", "index_sets-neither",
        "unknown-family", "unknown-which", "unknown-kind", "staircase-negative",
        "staircase-zero", "corner-size-1", "lshape-fraction"])
def test_config_error_exits_2(tmp_path, capsys, command, config, path, value, message):
    bad = tmp_path / "bad.json"          # never written for the unreadable case
    if config is not None:
        cfg = json.loads((CONFIG_DIR / config).read_text())
        if path:
            *parents, key = path
            node = cfg
            for name in parents:
                node = node[name]
            node[key] = value
        else:
            cfg = value
        bad.write_text(json.dumps(cfg))
    code, _ = run_cmd(tmp_path, command, bad)
    assert code == 2
    assert message in json.loads(capsys.readouterr().err)["error"]


def test_simulate_reads_a_law_given_as_an_object(tmp_path):
    cfg = json.loads((CONFIG_DIR / "simulate_smoke.json").read_text())
    cfg["N"] = 50
    cfg["distributions"][0] = {"kind": "log_weibull", "beta": 2}
    path = tmp_path / "lw.json"
    path.write_text(json.dumps(cfg))
    code, out = run_cmd(tmp_path, "simulate", path)
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    dist = load_empirical(out / manifest["files"]["dist_0"])
    laws = [AxisDistribution("log_weibull", beta=2), AxisDistribution("standard_normal")]
    direct = simulate_S_L(kernel_from_json(cfg["kernel"]), make_rect([6, 6]), laws, 50,
                          RngSpec(cfg["seed"]).child(0))
    assert np.array_equal(dist.values, direct.values)
    assert dist.provenance == direct.provenance


def test_simulate_integer_and_float_beta_are_one_law(tmp_path):
    # a log-Weibull beta of 2 and of 2.0 draw the same samples, so they must
    # name them with one provenance digest and write the same bytes; only the
    # manifest's digest of the config text differs
    outputs, digests = [], []
    for beta in (2, 2.0):
        cfg = json.loads((CONFIG_DIR / "simulate_smoke.json").read_text())
        cfg["N"] = 50
        cfg["distributions"][0] = {"kind": "log_weibull", "beta": beta}
        path = tmp_path / f"lw_{beta!r}.json"
        path.write_text(json.dumps(cfg))
        code, out = run_cmd(tmp_path, "simulate", path, out_name=f"out_{beta!r}")
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        digests.append(load_empirical(out / manifest["files"]["dist_0"]).provenance)
        outputs.append((manifest["files"], {name: data for name, data in read_outputs(out).items()
                                            if name != "manifest.json"}))
    assert digests[0] == digests[1]
    assert outputs[0] == outputs[1]
    assert AxisDistribution("log_weibull", beta=2) == AxisDistribution("log_weibull", beta=2.0)
    assert isinstance(AxisDistribution("log_weibull", beta=2).beta, float)
    for beta in (0, -1.5, None):
        with pytest.raises(ValueError, match="beta > 0"):
            AxisDistribution("log_weibull", beta=beta)


@pytest.mark.parametrize("beta", [math.inf, True], ids=["infinity", "bool"])
def test_simulate_log_weibull_beta_that_is_no_finite_real_exits_2(tmp_path, capsys, beta):
    # an Infinity beta once drew NaN samples and wrote a NaN variance, and true ran as a
    # beta of 1.0; both exited 0
    cfg = json.loads((CONFIG_DIR / "simulate_smoke.json").read_text())
    cfg["distributions"][0] = {"kind": "log_weibull", "beta": beta}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))   # Infinity as Python's json reads it
    code, out = run_cmd(tmp_path, "simulate", path)
    assert code == 2
    assert "beta > 0" in json.loads(capsys.readouterr().err)["error"]
    assert not (out / "manifest.json").exists()


def test_verify_tail_factor_without_a_moment_rule_exits_2(tmp_path, capsys):
    # a degree-2 Hermite factor has no moment rule under a Rademacher axis
    cfg = json.loads((CONFIG_DIR / "tail_gauss.json").read_text())
    cfg["kernel"]["lambda"] = [{"k": [2, 1], "w": 1.0}]
    cfg["distributions"] = ["rademacher", "rademacher"]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    code, _ = run_cmd(tmp_path, "verify", path)
    assert code == 2
    assert "moment rule" in json.loads(capsys.readouterr().err)["error"]


def _rademacher_h2_h1(tmp_path, name, cfg):
    """``cfg`` with an ``h_2 (x) h_1`` kernel on Rademacher axes, written to ``name``.

    ``g_2(x) = (x^2 - 1)/sqrt(2)`` is 0 at x = +-1, so every ``S_L`` is 0 and
    cannot approach the chaos limit, which has no atom: a sound KS check fails.
    """
    cfg = dict(cfg, N=2000, distributions=["rademacher", "rademacher"],
               index_sets={"family": "squares", "sizes": [4, 8, 16]})
    cfg["verify"] = dict(cfg["verify"], limit_n=5000)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(cfg))
    return run_cmd(tmp_path, "verify", path, out_name=name)


def _verdict_json(out):
    manifest = json.loads((out / "manifest.json").read_text())
    return json.loads((out / manifest["files"]["verdict"]).read_text())


def test_verify_nclt_negative_control_fails(tmp_path):
    cfg = json.loads((CONFIG_DIR / "gauss_rank1.json").read_text())
    cfg["kernel"]["lambda"] = [{"k": [2, 1], "w": 1.0}]
    code, out = _rademacher_h2_h1(tmp_path, "nclt", cfg)
    assert code == 5
    verdict = _verdict_json(out)
    assert verdict["hypotheses_met"] and verdict["verdict"] == "fail"
    assert all(stage["ks"] > 0.45 for stage in verdict["stages"])


def test_verify_parametric_negative_control_fails(tmp_path, capsys):
    # the exponential level needs no factor moment, so the KS check decides;
    # the power level's G does, and g_2 has no moment rule under Rademacher
    ts = [v / 5 for v in range(6)]
    tau = {"family": "power_log", "params": {"m": 2, "r": 0}, "support_upper": None}
    cfg = json.loads((CONFIG_DIR / "parametric_power.json").read_text())
    cfg["parametric_kernel"]["V"] = [{"coords": [t]} for t in ts]
    cfg["parametric_kernel"]["lambda"] = [{"k": [2, 1], "v_index": v, "w": 0.2 + 0.8 * t}
                                          for v, t in enumerate(ts)]
    cfg["verify"] = dict(cfg["verify"], level={"kind": "exponential", "tau": tau})
    code, out = _rademacher_h2_h1(tmp_path, "exponential", cfg)
    assert code == 5
    verdict = _verdict_json(out)
    assert verdict["hypotheses_met"] and verdict["sup_moment"]["passed"]
    assert verdict["verdict"] == "fail"
    assert all(stage["max_ks"] > 0.45 for stage in verdict["stages"])

    cfg["verify"] = dict(cfg["verify"], level={"kind": "power", "p": 2.0})
    code, _ = _rademacher_h2_h1(tmp_path, "power", cfg)
    assert code == 2
    assert "moment rule" in json.loads(capsys.readouterr().err)["error"]


def test_verify_parametric_divergent_entropy_integral_exits_4(tmp_path):
    # 3^6 grid points, each multi-index weighted 0.3 + i * 1e-4 with i in {0, 1, 2}: the
    # covering numbers grow faster than eps^-2, so the power-level integral at p = 2 diverges
    ks = [(1, 1), (2, 2), (1, 2), (2, 1), (3, 3), (1, 3)]
    grid = list(itertools.product(range(3), repeat=len(ks)))
    cfg = json.loads((CONFIG_DIR / "parametric_power.json").read_text())
    cfg["N"] = 200
    cfg["index_sets"] = {"family": "squares", "sizes": [2, 4]}
    cfg["verify"] = dict(cfg["verify"], level={"kind": "power", "p": 2.0}, limit_n=400)
    cfg["parametric_kernel"]["V"] = [{"coords": list(point)} for point in grid]
    cfg["parametric_kernel"]["lambda"] = [
        {"k": list(k), "v_index": v, "w": 0.3 + point[j] * 1e-4}
        for v, point in enumerate(grid) for j, k in enumerate(ks)]
    path = tmp_path / "divergent.json"
    path.write_text(json.dumps(cfg))
    code, out = run_cmd(tmp_path, "verify", path)
    assert code == 4
    verdict = _verdict_json(out)
    assert verdict["hypotheses"]["entropy_integral"] == math.inf
    assert not verdict["hypotheses_met"] and verdict["verdict"] == "hypotheses not met"


# ---------------------------------------------------------------------------
# psi command
# ---------------------------------------------------------------------------


def test_psi_tables(tmp_path):
    code, out = run_cmd(tmp_path, "psi", CONFIG_DIR / "psi_tables.json")
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    table = (out / manifest["files"]["psi_table"]).read_text().strip().split("\n")
    vals = {float(r.split(",")[0]): float(r.split(",")[1]) for r in table[1:]}
    assert vals[4.0] == pytest.approx(2.0, rel=1e-12)
    conj = (out / manifest["files"]["conjugate"]).read_text().strip().split("\n")
    cvals = {float(r.split(",")[0]): float(r.split(",")[1]) for r in conj[1:]}
    assert cvals[2.0] == pytest.approx(math.exp(3) / 2, rel=1e-3)
    tail = (out / manifest["files"]["tail"]).read_text().strip().split("\n")
    tvals = {float(r.split(",")[0]): float(r.split(",")[1]) for r in tail[1:]}
    assert tvals[3.0] == pytest.approx(math.exp(-9 / (2 * math.e)), rel=5e-3)


def test_psi_divergence_exit_code(tmp_path):
    cfg = tmp_path / "flat.json"
    cfg.write_text(json.dumps({
        "seed": 1,
        "psi": {"spec": {"family": "power_log", "params": {"m": 1e6, "r": 0},
                          "support_upper": None},
                 "p_grid": [2.0], "x_grid": [1.0], "y_grid": [3.0]}
    }))
    code, _ = run_cmd(tmp_path, "psi", cfg)
    assert code == 4


def test_psi_rows_for_other_families(tmp_path):
    # the extremal and exponential-growth families through the same table path
    for spec, p, expect in [
        ({"family": "extremal", "params": {"r": 3}, "support_upper": 3}, 2.0, 1.0),
        ({"family": "exp_power", "params": {"beta": 1, "C": 1},
          "support_upper": None}, 2.0, math.exp(2.0)),
    ]:
        cfg = tmp_path / f"{spec['family']}.json"
        cfg.write_text(json.dumps({
            "seed": 3, "psi": {"spec": spec, "p_grid": [1.0, 2.0],
                                "x_grid": [1.0], "y_grid": [30.0]}}))
        code, out = run_cmd(tmp_path, "psi", cfg, out_name=spec["family"])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        table = (out / manifest["files"]["psi_table"]).read_text().strip().split("\n")
        vals = {float(r.split(",")[0]): float(r.split(",")[1]) for r in table[1:]}
        assert vals[p] == pytest.approx(expect, rel=1e-10)


def test_psi_default_grid_stays_inside_open_support(tmp_path):
    # the default p-grid ends at min(top, 64); an open top b = 8 is pulled inside
    cfg = tmp_path / "bounded.json"
    cfg.write_text(json.dumps({
        "seed": 1, "psi": {"spec": {"family": "bounded_support",
                                     "params": {"b": 8, "gamma": 1}}}}))
    code, out = run_cmd(tmp_path, "psi", cfg)
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    table = (out / manifest["files"]["psi_table"]).read_text().strip().split("\n")
    rows = [[float(v) for v in r.split(",")] for r in table[1:]]
    assert len(rows) == 25 and all(math.isfinite(v) for r in rows for v in r)
    assert rows[0][0] == 1.0 and 7.99 < rows[-1][0] < 8.0


@pytest.mark.parametrize("spec, param", [
    ({"family": "exp_power", "params": {"beta": math.nan, "C": 1}}, "beta"),
    ({"family": "power_log", "params": {"m": True}}, "m"),
    ({"family": "rosenthal_scaled", "params": {
        "base": {"family": "power_log", "params": {"m": 2}}, "d": 2.5}}, "d"),
    ({"family": "power_log", "params": {"m": "2"}}, "m"),
    ({"family": "tabulated", "params": {"p_grid": [1.0, 2.0], "values": [1.0, True]}}, "values"),
    ({"family": "product_of", "params": {"factors": [
        {"family": "power_log", "params": {"m": 2}}, 3]}}, "factors"),
], ids=["nan", "bool", "fractional-d", "string", "bool-in-list", "mixed-list"])
def test_psi_spec_params_must_be_finite_numbers(tmp_path, capsys, spec, param):
    # NaN once wrote NaN tables, true ran as m = 1 (or a value of 1) and d = 2.5 as d = 2
    path = tmp_path / "psi.json"
    path.write_text(json.dumps({"seed": 1, "psi": {"spec": spec}}))
    code, out = run_cmd(tmp_path, "psi", path)
    assert code == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert f"'{spec['family']}'" in error and f"'{param}'" in error
    assert not out.exists()


def test_verify_parametric_tau_params_must_be_finite_numbers(tmp_path, capsys):
    cfg = json.loads((CONFIG_DIR / "parametric_power.json").read_text())
    tau = {"family": "exp_power", "params": {"beta": math.nan, "C": 1}}
    cfg["verify"] = dict(cfg["verify"], level={"kind": "exponential", "tau": tau})
    path = tmp_path / "tau.json"
    path.write_text(json.dumps(cfg))
    code, _ = run_cmd(tmp_path, "verify", path)
    assert code == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert "'exp_power'" in error and "'beta'" in error


def test_parametric_entropy_profile_csv(tmp_path):
    code, out = run_cmd(tmp_path, "verify", CONFIG_DIR / "parametric_power.json")
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    prof = (out / manifest["files"]["entropy_profile"]).read_text().strip().split("\n")
    assert prof[0] == "epsilon,N,H"
    eps, n, h = prof[1].split(",")
    assert float(n) >= 1.0 and float(h) == pytest.approx(math.log(float(n)), rel=1e-12)


# ---------------------------------------------------------------------------
# every table
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("config", sorted(p.name for p in CONFIG_DIR.glob("*.json")))
def test_demo_csv_cells_parse_as_numbers(tmp_path, config):
    # repr of a NumPy 2 float is np.float64(0.5), which no CSV reader parses
    cfg = json.loads((CONFIG_DIR / config).read_text())
    command = next((c for c in ("verify", "psi", "bound") if c in cfg), "simulate")
    _, out = run_cmd(tmp_path, command, CONFIG_DIR / config)
    tables = sorted(out.glob("*.csv"))
    assert tables
    for table in tables:
        header, *rows = [line.split(",") for line in table.read_text().splitlines()]
        for row in rows:
            assert len(row) == len(header), table.name
            for name, cell in zip(header, row):
                if name not in ("route", "verdict") and not (name == "M_star" and cell == ""):
                    float(cell)
