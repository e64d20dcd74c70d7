"""Batch front-end: config in, deterministic CSV/JSON reports out.

Subcommands: ``bound | simulate | verify | psi``.  Every run is a pure
function of the config bytes; all randomness flows from the mandatory
``seed`` field, re-runs produce byte-identical files, and output files are
named by a digest of their own content (a fixed-name ``manifest.json`` maps
logical kinds to those names).

Exit codes: 0 success, 2 config error, 3 verification hypotheses not met,
4 numeric divergence marker encountered, 5 verification ran and failed.
When several apply, the first of 2, 4, 3, 5 wins.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .index_sets import (index_set_from_json, lshape_family, make_rect,
                         squares_minus_corner_family)
from .kernels import kernel_from_json
from .mc import RngSpec, axis_distribution_from_json, empirical_bytes, simulate_family
from .mc import simulate_S_L  # noqa: F401  (a name bench/tracer.py wraps in every module)
from .parametric import parametric_kernel_from_json
from .psi import psi_from_json, young_fenchel, TailBound, tail_bound_eval
from .rosenthal import BoundReport, dp_quasinorm, rosenthal_K, theorem_W_bounds, trivial_bound
from .verify import (FINAL_KS, LIMIT_N, check_theorem_8, natural_composite,
                     verify_moment_sandwich, verify_nclt, verify_tail_domination)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_HYPOTHESES = 3
EXIT_DIVERGENCE = 4
EXIT_FAILED = 5

_VERDICT_EXIT = {"pass": EXIT_OK, "hypotheses not met": EXIT_HYPOTHESES}
_BOUND_ROUTES = ("trivial", "dp_quasinorm", "theorem_W")


class ConfigError(ValueError):
    pass


def _csv(header: str, rows) -> bytes:
    """One CSV table, a row a line: floats (NumPy's too) as ``repr(float(v))``, else ``str(v)``."""
    lines = [header] + [",".join(repr(float(v)) if isinstance(v, (float, np.floating)) else str(v)
                                 for v in row) for row in rows]
    return ("\n".join(lines) + "\n").encode()


def _dump_json(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True, indent=2) + "\n").encode()


class OutputSet:
    """Collects output files, names them by content digest, writes them and a manifest.

    Nothing is written before ``finish``: a run that stops early, on a
    config error found inside its command, leaves no ``--out`` behind.
    """

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.entries = {}
        self.files = {}

    def add(self, kind: str, ext: str, data: bytes) -> str:
        digest = hashlib.sha256(data).hexdigest()[:12]
        name = f"{kind}-{digest}.{ext}"
        self.files[name] = data
        self.entries[kind] = name
        return name

    def finish(self, config_digest: str) -> None:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        for name, data in self.files.items():
            (self.out_dir / name).write_bytes(data)
        manifest = {"config_digest": config_digest, "files": self.entries,
                    "version": __version__}
        (self.out_dir / "manifest.json").write_bytes(_dump_json(manifest))


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------


def load_config(path: str, seed_override=None):
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    try:
        cfg = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    if seed_override is not None:
        cfg["seed"] = int(seed_override)
    if "seed" not in cfg:
        raise ConfigError("config must name an integer 'seed'; no wall-clock default")
    if not isinstance(cfg["seed"], int) or isinstance(cfg["seed"], bool):
        raise ConfigError("'seed' must be an integer")
    digest = hashlib.sha256(_dump_json(cfg)).hexdigest()[:16]
    return cfg, digest


def _require(cfg, key, kind=None):
    if key not in cfg:
        raise ConfigError(f"config is missing '{key}'")
    return _typed(cfg, key, kind)


def _typed(cfg, key, kind, default=None):
    """``cfg[key]`` (or ``default`` when absent): a ``kind``, not a bool, and finite if a float."""
    val = cfg.get(key, default)
    if kind is not None and (not isinstance(val, kind) or isinstance(val, bool)):
        raise ConfigError(f"config field '{key}' has the wrong type")
    if isinstance(val, float) and not math.isfinite(val):
        raise ConfigError(f"config field '{key}' must be finite")
    return val


def _count(cfg, key, default=None) -> int:
    """The int ``cfg[key]`` (required unless ``default`` is given), checked to be >= 1."""
    val = _require(cfg, key, int) if default is None else _typed(cfg, key, int, default)
    if val < 1:
        raise ConfigError(f"config field '{key}' must be >= 1")
    return val


def _floats(values, key) -> list:
    """Entries of the config list ``values`` as floats, each checked by ``_typed`` as a number."""
    return [float(_typed({key: v}, key, (int, float))) for v in values]


def _load_kernel(cfg):
    return kernel_from_json(_require(cfg, "kernel", dict))


def _load_dists(cfg, d):
    spec = _require(cfg, "distributions", list)
    if len(spec) != d:
        raise ConfigError(f"need {d} axis distributions, got {len(spec)}")
    return [axis_distribution_from_json(s) for s in spec]


def _load_level(spec):
    """The parametric ``level`` object as ``("power", p)`` or ``("exponential", tau)``."""
    if not isinstance(spec, dict) or spec.get("kind") not in ("power", "exponential"):
        raise ConfigError("verify.level needs 'kind' power | exponential")
    if spec["kind"] == "power":
        return ("power", float(_require(spec, "p", (int, float))))
    return ("exponential", psi_from_json(_require(spec, "tau", (dict, str))))


def _load_index_sets(cfg, d):
    """The config's index sets, at least one; ``squares`` and ``boxes`` are d-cubes."""
    spec = _require(cfg, "index_sets", dict)
    key = "list" if "list" in spec else "sizes"
    family = spec.get("family")
    if (key == "sizes" and family is None) or spec.get(key) is None:
        raise ConfigError("index_sets needs either 'list' or 'family' plus 'sizes'")
    items = _typed(spec, key, list)
    if not items:
        raise ConfigError(f"index_sets field '{key}' must be a non-empty list")
    if key == "list":
        return [index_set_from_json(s) for s in items]
    if family in ("squares", "boxes"):
        return [make_rect([n] * d) for n in items]
    if family == "squares_minus_corner":
        return squares_minus_corner_family(items)
    if family == "lshape_fixed_fraction":
        return lshape_family(items, float(_typed(spec, "fraction", (int, float), 0.5)))
    raise ConfigError(f"unknown index set family '{family}'")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_bound(cfg, out: OutputSet, workers: int) -> int:
    kernel = _load_kernel(cfg)
    spec = _require(cfg, "bound", dict)
    p_grid = _floats(_require(cfg, "p_grid", list), "p_grid")
    if not p_grid:
        raise ConfigError("config field 'p_grid' must be a non-empty list")
    routes = _typed(spec, "routes", list, ["dp_quasinorm"])
    if not routes or any(route not in _BOUND_ROUTES for route in routes):
        raise ConfigError("config field 'routes' must be a non-empty list of "
                          + " | ".join(_BOUND_ROUTES))
    # K(p) is defined from 2, and below 2 the quadrature of |f|^p is not exact
    if min(p_grid) < 2.0:
        raise ConfigError("config field 'p_grid' must hold only p >= 2")
    l_size = _count(spec, "L_size", 1)
    m_max = _count(spec, "M_max", max(kernel.M, 1))
    # each route over the whole grid, so a term set's quadrature walks once for every p
    column = {}
    for route in dict.fromkeys(routes):
        if route == "trivial":
            column[route] = [BoundReport(p, trivial_bound(f_p, p, l_size), "trivial")
                             for p, f_p in zip(p_grid, kernel.moments(p_grid))]
        elif route == "dp_quasinorm":
            column[route] = [BoundReport(p, rosenthal_K(p) ** kernel.d * dp_quasinorm(kernel, p),
                                         "dp_quasinorm") for p in p_grid]
        else:
            column[route] = theorem_W_bounds(kernel, p_grid, l_size, m_max)
    reports = [column[route][i] for i in range(len(p_grid)) for route in routes]
    out.add("bounds", "csv", _csv("p,route,M_star,value", (
        (r.p, r.route, "" if r.m_star is None else r.m_star, r.bound_value) for r in reports)))
    out.add("bounds_rows", "json", _dump_json([r.to_json_row() for r in reports]))
    return EXIT_OK


def cmd_simulate(cfg, out: OutputSet, workers: int) -> int:
    kernel = _load_kernel(cfg)
    dists = _load_dists(cfg, kernel.d)
    sets = _load_index_sets(cfg, kernel.d)
    n = _count(cfg, "N")
    rng = RngSpec(cfg["seed"])
    qs = np.linspace(0.0, 1.0, 101)
    summary = []
    sims = simulate_family(kernel, sets, dists, n, rng.child(0), workers=workers)
    for i, (L, dist) in enumerate(zip(sets, sims)):
        name = out.add(f"dist_{i}", "bin", empirical_bytes(dist))
        out.add(f"quantiles_{i}", "csv", _csv("q,value", zip(qs, dist.quantile(qs))))
        var = dist.variance()
        row = {"index_set": L.to_json(), "file": name, "N": n,
               "variance": var, "variance_se": dist.variance_se(),
               "sigma_sq": kernel.sigma_sq}
        if kernel.sigma_sq > 0:
            row["var_ratio"] = var / kernel.sigma_sq
        summary.append(row)
    out.add("summary", "json", _dump_json(summary))
    return EXIT_OK


def _gnuplot_script(csv_name: str, ycol: int, ylabel: str) -> bytes:
    lines = [
        "set datafile separator ','",
        "set key autotitle columnhead",
        f"set ylabel '{ylabel}'",
        "set logscale y",
        f"plot '{csv_name}' using 1:{ycol} with linespoints",
    ]
    return ("\n".join(lines) + "\n").encode()


def cmd_verify(cfg, out: OutputSet, workers: int) -> int:
    spec = _require(cfg, "verify", dict)
    which = spec.get("which")
    if which not in ("nclt", "sandwich", "tail", "parametric"):
        raise ConfigError("verify.which must be one of nclt | sandwich | tail | parametric")
    rng = RngSpec(cfg["seed"])
    n = _count(cfg, "N")
    final_ks = float(_typed(spec, "final_ks", (int, float), FINAL_KS))
    if not 0.0 < final_ks <= 1.0:
        raise ConfigError("config field 'final_ks' must be in (0, 1]")
    limit_n = _count(spec, "limit_n", LIMIT_N)
    kernel = (parametric_kernel_from_json(_require(cfg, "parametric_kernel", dict))
              if which == "parametric" else _load_kernel(cfg))
    dists = _load_dists(cfg, kernel.d)
    sets = _load_index_sets(cfg, kernel.d)

    if which == "parametric":
        level = _load_level(spec.get("level", {"kind": "power", "p": 2.0}))
        report = check_theorem_8(kernel, level, sets, dists, n, rng, limit_n=limit_n,
                                 final_ks=final_ks, workers=workers)
        prof = report.profile
        out.add("entropy_profile", "csv",
                _csv("epsilon,N,H", zip(prof.eps, prof.counts, prof.entropy)))
    elif which == "nclt":
        report = verify_nclt(kernel, dists, sets, n, rng, limit_n=limit_n,
                             final_ks=final_ks, workers=workers)
        csv_name = out.add("stages", "csv", _csv(
            "stage,L_size,kappa_minus,kappa_plus,ks,verdict",
            ((r["stage"], r["L_size"], r["kappa_minus"], r["kappa_plus"], r["ks"], report.verdict)
             for r in report.stages)))
        out.add("plot", "gp", _gnuplot_script(csv_name, 5, "KS distance"))
    elif which == "sandwich":
        p_grid = _floats(_require(cfg, "p_grid", list), "p_grid")
        report = verify_moment_sandwich(kernel, dists, sets, p_grid, n, rng, workers=workers)
        csv_name = out.add("sandwich", "csv", _csv(
            "p,lower,empirical,empirical_se,upper",
            zip(report.p_grid, report.lower, report.empirical, report.empirical_se, report.upper)))
        out.add("plot", "gp", _gnuplot_script(csv_name, 3, "|S_L|_p"))
    else:
        p_grid = _typed(cfg, "p_grid", list, np.geomspace(2.0, 64.0, 25).tolist())
        composite = natural_composite(kernel, dists, _floats(p_grid, "p_grid"))
        report = verify_tail_domination(kernel, dists, sets, composite, n, rng,
                                        workers=workers)
        csv_name = out.add("tailbound", "csv", _csv("y,bound", zip(report.y_grid, report.bounds)))
        out.add("plot", "gp", _gnuplot_script(csv_name, 2, "tail bound"))
    out.add("verdict", "json", _dump_json(report.to_json()))
    if which == "parametric" and math.isinf(report.hypotheses["entropy_integral"]):
        return EXIT_DIVERGENCE
    return _VERDICT_EXIT.get(report.verdict, EXIT_FAILED)


def cmd_psi(cfg, out: OutputSet, workers: int) -> int:
    spec = _require(cfg, "psi", dict)
    psi = psi_from_json(_require(spec, "spec", dict))
    p_grid = _floats(spec.get("p_grid", np.geomspace(
        psi.p_min, min(psi.inner_top(), 64.0), 25).tolist()), "p_grid")
    x_grid = _floats(spec.get("x_grid", np.linspace(1.0, 5.0, 17).tolist()), "x_grid")
    norm = float(_typed(spec, "gls_norm", (int, float), 1.0))
    tb = TailBound(gls_norm=norm, psi=psi)
    y_grid = _floats(spec.get("y_grid", np.geomspace(
        tb.validity_threshold, tb.validity_threshold * 50.0, 17).tolist()), "y_grid")
    out.add("psi_table", "csv", _csv("p,psi,v", (
        (p, val, p * math.log(val)) for p, val in zip(p_grid, map(psi, p_grid)))))
    v_star = young_fenchel(psi, x_grid)
    out.add("conjugate", "csv", _csv("x,v_star", zip(x_grid, v_star)))
    out.add("tail", "csv", _csv("y,tail_bound", zip(y_grid, tail_bound_eval(tb, y_grid))))
    return EXIT_DIVERGENCE if np.any(np.isinf(v_star)) else EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

_COMMANDS = {
    "bound": cmd_bound,
    "simulate": cmd_simulate,
    "verify": cmd_verify,
    "psi": cmd_psi,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="multisum",
        description="moment/tail bounds and chaos-limit verification for multi-indexed sums")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="path to the JSON config")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--seed-override", type=int, default=None)
    args = parser.parse_args(argv)

    try:
        if args.workers < 1:
            raise ConfigError("--workers must be >= 1")
        cfg, digest = load_config(args.config, args.seed_override)
        out = OutputSet(Path(args.out))
        code = _COMMANDS[args.command](cfg, out, args.workers)
        out.finish(digest)
        return code
    except ConfigError as exc:
        sys.stderr.write(_dump_json({"error": str(exc)}).decode())
        return EXIT_CONFIG
    except (KeyError, TypeError, ValueError) as exc:
        sys.stderr.write(_dump_json({"error": f"invalid config: {exc}"}).decode())
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
