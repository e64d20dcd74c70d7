"""Seeded generator of the benchmark's CLI workloads.

Each workload is a list of ``multisum`` CLI invocations whose configs are
built here from the workload seed; the program sees only those configs.
The seed sets the configs' ``seed`` field (and, for ``bounds``, the
tabulated generating function), never the amount of work, so every seed of
one workload costs the same.

Each workload loads a different layer, so an optimisation of one layer has
a workload where it shows and others where it must not move:

* ``sim-box``     -- per-variate sampling (factor tables, inverse CDF,
  Philox); the box contraction is a cheap row sum.
* ``nclt-lshape`` -- the per-cell gather of the irregular ``S_L`` path.
* ``field``       -- KS checks over a 200-point field, then the exact
  covering search at 12 points.
* ``bounds``      -- no Monte Carlo: tensor quadrature and Young-Fenchel
  conjugates.

``smoke=True`` shrinks every size so a workload runs in well under a second;
the tests use it.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass

WORKLOADS = ("sim-box", "nclt-lshape", "field", "bounds")

# Wall seconds of one untraced repetition (process start, import, CLI calls
# and speed gauges) on the reference host, a shared 2-vCPU Intel Xeon VM on
# a slow stretch.  ``run.repetitions`` divides ``--seconds`` by them.
REPETITION_S = {"sim-box": 6.0, "nclt-lshape": 5.5, "field": 7.0, "bounds": 6.5}


@dataclass(frozen=True)
class Invocation:
    """One CLI call: subcommand, config object, and the work it stands for."""

    command: str
    config: dict
    work: float       # simulated cells N*|L|, or output rows for ``bounds``


def config_seed(workload: str, seed: int) -> int:
    """64-bit config seed derived from the workload name and the benchmark seed."""
    digest = hashlib.sha256(f"{workload}:{int(seed)}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def _kernel(family: str, d: int, weights: dict) -> dict:
    return {
        "d": d,
        "factors": [{"kind": family, "params": {}}] * d,
        "lambda": [{"k": list(k), "w": w} for k, w in weights.items()],
        "orthonormal": True,
    }


def _normal_axes(d: int) -> list:
    return ["standard_normal"] * d


def _sim_box(seed: int, smoke: bool) -> list:
    n, size = (2_000, 32) if smoke else (100_000, 256)
    cfg = {
        "seed": seed,
        "N": n,
        "kernel": _kernel("hermite", 2, {(k, k): 1.0 / k for k in range(1, 5)}),
        "distributions": _normal_axes(2),
        "index_sets": {"family": "squares", "sizes": [size]},
    }
    return [Invocation("simulate", cfg, float(n * size * size))]


def _lshape_size(n: int, fraction: float = 0.5) -> int:
    c = max(1, round(n * fraction))
    return n * n - c * c


def _nclt_lshape(seed: int, smoke: bool) -> list:
    n, limit_n, sizes = (500, 2_000, [4, 8, 16]) if smoke else (20_000, 100_000, [32, 64, 128])
    cfg = {
        "seed": seed,
        "N": n,
        "kernel": _kernel("hermite", 2, {(1, 1): 1.0}),
        "distributions": _normal_axes(2),
        "index_sets": {"family": "lshape_fixed_fraction", "fraction": 0.5, "sizes": sizes},
        "verify": {"which": "nclt", "final_ks": 0.05, "limit_n": limit_n},
    }
    return [Invocation("verify", cfg, float(n * sum(_lshape_size(m) for m in sizes)))]


def _parametric_kernel(n_points: int) -> dict:
    """Weights ``0.2 + 0.8 t`` on (1,1) and ``0.5 t^2`` on (2,2) over t in [0, 1]."""
    ts = [i / (n_points - 1) for i in range(n_points)]
    lam = []
    for v, t in enumerate(ts):
        lam.append({"k": [1, 1], "v_index": v, "w": 0.2 + 0.8 * t})
        lam.append({"k": [2, 2], "v_index": v, "w": 0.5 * t * t})
    return {
        "V": [{"coords": [t]} for t in ts],
        "factors": [{"kind": "hermite", "params": {}}] * 2,
        "lambda": lam,
        "orthonormal": True,
    }


def _field(seed: int, smoke: bool) -> list:
    # The exponential-level run stops at 12 grid points: one exact covering
    # search takes 1.3 s at |V|=12, 22 s at 16 and over 5 min at 20.
    if smoke:
        runs = [(24, 2_000, 4_000, [8, 16], {"kind": "power", "p": 2.0}),
                (6, 2_000, 4_000, [8, 16], None)]
    else:
        runs = [(200, 20_000, 50_000, [8, 32, 64], {"kind": "power", "p": 2.0}),
                (12, 5_000, 20_000, [8, 32, 64], None)]
    tau = {"family": "power_log", "params": {"m": 2, "r": 0}, "support_upper": None}
    out = []
    for n_points, n, limit_n, sizes, level in runs:
        cfg = {
            "seed": seed,
            "N": n,
            "parametric_kernel": _parametric_kernel(n_points),
            "distributions": _normal_axes(2),
            "index_sets": {"family": "squares", "sizes": sizes},
            "verify": {"which": "parametric", "limit_n": limit_n,
                       "level": level or {"kind": "exponential", "tau": tau}},
        }
        out.append(Invocation("verify", cfg, float(n * sum(m * m for m in sizes))))
    return out


def _geomspace(lo: float, hi: float, num: int) -> list:
    step = math.log(hi / lo) / (num - 1)
    return [lo * math.exp(i * step) for i in range(num)]


def _bounds(seed: int, smoke: bool) -> list:
    d, kmax, p_grid = (2, 3, [2.0, 4.0, 8.0]) if smoke else (3, 8, [2.0, 4.0, 8.0])
    routes = ["trivial", "dp_quasinorm", "theorem_W"]
    bound_cfg = {
        "seed": seed,
        "kernel": _kernel("poisson_charlier", d, {(k,) * d: 2.0 ** -k for k in range(1, kmax + 1)}),
        "bound": {"routes": routes, "M_max": kmax, "L_size": 10_000},
        "p_grid": p_grid,
    }
    # tabulated moment growth p**a on p = 2..64, the exponent drawn from the seed
    a = random.Random(seed).uniform(0.4, 0.6)
    p_tab = [float(p) for p in range(2, 65)]
    spec = {
        "family": "rosenthal_scaled",
        "params": {"d": 2, "base": {
            "family": "product_of",
            "params": {"factors": [
                {"family": "power_log", "params": {"m": 2, "r": 0.5}, "support_upper": None},
                {"family": "tabulated",
                 "params": {"p_grid": p_tab, "values": [p ** a for p in p_tab]},
                 "support_upper": 64.0},
            ]},
            "support_upper": 64.0}},
        "support_upper": 64.0,
    }
    nx, ny = (10, 20) if smoke else (200, 400)
    psi_cfg = {
        "seed": seed,
        "psi": {
            "spec": spec,
            "gls_norm": 1.0,
            "x_grid": [1.0 + 9.0 * i / (nx - 1) for i in range(nx)],
            "y_grid": _geomspace(math.e, 100.0 * math.e, ny),
        },
    }
    return [Invocation("bound", bound_cfg, float(len(p_grid) * len(routes))),
            Invocation("psi", psi_cfg, float(nx + ny))]


_BUILDERS = {
    "sim-box": _sim_box,
    "nclt-lshape": _nclt_lshape,
    "field": _field,
    "bounds": _bounds,
}


def generate(workload: str, seed: int, smoke: bool = False) -> list:
    """The workload's invocations for one benchmark seed."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload '{workload}'; choose from {', '.join(WORKLOADS)}")
    return _BUILDERS[workload](config_seed(workload, seed), smoke)


def determinism_probe(seed: int, smoke: bool = False) -> Invocation:
    """``sim-box`` config with fewer replications, for the untimed worker-count check."""
    inv, = _sim_box(config_seed("sim-box", seed), smoke)
    n = inv.config["N"] // 5
    return Invocation(inv.command, dict(inv.config, N=n), inv.work / 5)
