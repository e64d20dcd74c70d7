"""Parametric kernel fields: the field model, its metric entropy and sampling.

A parametric kernel carries weights ``lambda(v, k)`` over a finite grid V of
parameter points; each slice is an ordinary degenerate kernel and the
normalized sums become a random field ``Q_L(v)``.  Two functionals govern the
field-level limit theorems: the worst-case weight mass ``sigma_lambda`` and
the l1 weight distance ``rho_lambda``, a pseudometric on V whose covering
numbers enter the entropy integrals

* power level:       ``int_0^1 N(V, scaled rho, eps)**(1/p) d eps``
* exponential level: ``int_0^1 exp(w(H(eps))) d eps`` with
  ``w(x) = inf_y (x y + ln tau(1/y))``.

Coverings are greedy farthest-point selections (an upper bound, the safe
direction for the integrals), replaced by exact minimal covers on grids of at
most 20 points.  Both read ``rho_lambda`` one row at a time
(``ParametricKernel.rho_row``): the greedy search asks for one row per center
and holds O(|V|) floats, and the exact search stacks its at most 20 rows.
The exact search is breadth-first over bitmasks of covered points and
branches only on the balls that hold the lowest uncovered point, so each
layer holds at most ``2**|V|`` distinct masks.  The checks of the
field-level theorem live in ``verify``, with every other check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .index_sets import _sorted_unique
from .kernels import _factors_from_json, _factors_to_json, _json_weight, _multi_indices
from .mc import EmpiricalDist, RngSpec, _limit_cores, _sum_field, _terms, _weigh
# ks_distance is no longer called here but stays importable from this module:
# bench/test_bench.py checks that the tracer rebinds it here (ROADMAP item 9)
from .mc import ks_distance  # noqa: F401
from .psi import PsiFunction, _golden_max

__all__ = [
    "ParametricKernel",
    "EntropyProfile",
    "IntegralResult",
    "sigma_lambda",
    "rho_lambda",
    "covering_profile",
    "entropy_integral_power",
    "entropy_integral_exp",
    "simulate_Q_L",
    "parametric_kernel_from_json",
    "parametric_kernel_to_json",
]

_EXACT_COVER_LIMIT = 20


@dataclass
class ParametricKernel:
    """Weights ``lambda(v, k)`` over a finite parameter grid V.

    ``points`` holds the ambient coordinates of V, one row per grid point;
    ``lam`` maps each multi-index k to the vector of weights across V (dense
    over V, sparse over k).  Every slice at fixed v is a valid degenerate
    kernel over the shared factor families.
    """

    points: np.ndarray
    lam: dict
    factors: list

    def __post_init__(self):
        self.points = np.atleast_2d(np.asarray(self.points, dtype=float))
        nv = self.points.shape[0]
        if nv < 1:
            raise ValueError("parameter grid must be nonempty")
        if not self.lam:
            raise ValueError("parametric kernel needs at least one multi-index")
        self.d = len(next(iter(self.lam)))
        clean = {}
        for kvec, w in zip(_multi_indices(self.lam, self.d), self.lam.values()):
            w = np.asarray(w, dtype=float)
            if w.shape != (nv,):
                raise ValueError(f"weight vector for {kvec} must cover the grid")
            clean[kvec] = w
        self.lam = clean
        if len(self.factors) != self.d:
            raise ValueError("need one factor family per axis")

    @property
    def n_points(self) -> int:
        return int(self.points.shape[0])

    def rho_row(self, j: int) -> np.ndarray:
        """``rho_lambda`` from grid point j to every grid point, one multi-index at a time."""
        out = np.zeros(self.n_points)
        for w in self.lam.values():
            out += np.abs(w - w[j])
        return out


def sigma_lambda(pk: ParametricKernel) -> float:
    """``max_v sum_k |lambda(v, k)|``."""
    w = np.stack(list(pk.lam.values()))
    return float(np.abs(w).sum(axis=0).max())


def rho_lambda(pk: ParametricKernel, v1: int, v2: int) -> float:
    """l1 distance of weight vectors, a pseudometric on the grid."""
    v1, v2 = int(v1), int(v2)
    for v in (v1, v2):
        if not (0 <= v < pk.n_points):
            raise ValueError("parameter index off the grid")
    return float(pk.rho_row(v1)[v2])


# ---------------------------------------------------------------------------
# covering numbers and entropy integrals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EntropyProfile:
    """Covering numbers on a descending epsilon grid; entropy is ln N."""

    eps: np.ndarray
    counts: np.ndarray
    exact: bool = False

    def __post_init__(self):
        eps = np.asarray(self.eps, dtype=float)
        n = np.asarray(self.counts, dtype=float)
        if eps.ndim != 1 or eps.shape != n.shape or eps.size == 0:
            raise ValueError("profile needs matching non-empty arrays")
        if np.any(np.diff(eps) >= 0):
            raise ValueError("epsilon grid must be strictly descending")
        if np.any(eps <= 0) or np.any(eps > 1):
            raise ValueError("epsilon grid must lie in (0, 1]")
        if np.any(np.diff(n) < 0):
            raise ValueError("covering numbers grow as epsilon shrinks")
        if np.any(n <= 0):
            # true covering numbers are >= 1; synthetic formula profiles may
            # dip below 1 near eps = 1 and are accepted as integrands
            raise ValueError("covering numbers must be positive")
        eps = eps.copy(); n = n.copy()
        eps.flags.writeable = False; n.flags.writeable = False
        object.__setattr__(self, "eps", eps)
        object.__setattr__(self, "counts", n)

    @property
    def entropy(self) -> np.ndarray:
        return np.log(self.counts)


def _greedy_radii(row, n: int) -> np.ndarray:
    """radii[j] = covering radius of the first j+1 greedy centers; one ``row(i)`` per center."""
    mind = row(0)
    radii = np.empty(n)
    radii[0] = mind.max()
    for j in range(1, n):
        mind = np.minimum(mind, row(int(np.argmax(mind))))
        radii[j] = mind.max()
    return radii


def _exact_cover_count(dist: np.ndarray, eps: float) -> int:
    """Fewest eps-balls (row j of ``dist <= eps`` is the ball at j) covering every point.

    Breadth-first over bitmasks of covered points: a state branches only on
    the balls that contain its lowest uncovered point, since every cover
    holds one of them, so layer k reaches the full mask exactly when some k
    balls cover.  Each layer is deduplicated, which bounds it by 2**n masks.
    Every ball holds its center, so layer n covers unless a NaN leaves a point out: then n.
    """
    cover = dist <= eps
    n = dist.shape[0]
    balls = cover @ (np.int64(1) << np.arange(n, dtype=np.int64))
    # row i: the balls that contain point i; the other slots repeat ball i
    containing = np.where(cover.T, balls[None, :], balls[:, None])
    full = (1 << n) - 1
    frontier = np.zeros(1, dtype=np.int64)
    for k in range(1, n + 1):
        lowest = np.bitwise_count(frontier ^ (frontier + 1)) - 1
        frontier = _sorted_unique(frontier[:, None] | containing[lowest])
        if frontier[-1] == full:
            return k
    return n


def covering_profile(pk: ParametricKernel, eps_grid, scale: float = 1.0) -> EntropyProfile:
    """Covering numbers of (V, scale * rho_lambda) on the given epsilon grid.

    Greedy farthest-point coverings upper-bound the minimal covering number
    (the safe direction for the entropy integrals); for grids of at most
    20 points the exact minimum is computed instead.  Both read ``pk.rho_row``
    scaled after the sum; the greedy search holds one row, not a |V| x |V| matrix.
    """
    eps = np.sort(np.asarray(eps_grid, dtype=float))[::-1]
    n, exact = pk.n_points, pk.n_points <= _EXACT_COVER_LIMIT
    if exact:
        dist = scale * np.stack([pk.rho_row(j) for j in range(n)])
        counts = [_exact_cover_count(dist, e) for e in eps]
    else:
        radii = _greedy_radii(lambda j: scale * pk.rho_row(j), n)
        counts = [int(np.argmax(radii <= e)) + 1 if np.any(radii <= e) else n for e in eps]
    return EntropyProfile(eps, np.maximum.accumulate(np.array(counts, dtype=float)), exact=exact)


@dataclass(frozen=True)
class IntegralResult:
    """Entropy integral value; ``inf`` with the fitted blow-up exponent on divergence."""

    value: float
    tail_exponent: float | None = None

    @property
    def diverged(self) -> bool:
        return math.isinf(self.value)


def _integrate_profile(eps_desc: np.ndarray, g_desc: np.ndarray) -> IntegralResult:
    """Trapezoid over the grid plus a fitted power-law tail below the smallest eps."""
    eps = eps_desc[::-1]       # ascending
    g = g_desc[::-1]
    body = float(np.trapezoid(g, eps))
    if eps[-1] < 1.0:          # constant continuation where N has saturated to its top value
        body += float(g[-1]) * (1.0 - eps[-1])
    # fit ln g ~ -q ln eps on the smallest decade of the grid
    cut = eps <= eps[0] * 10.0
    if np.sum(cut) >= 2 and g[0] > 0:
        le = np.log(eps[cut])
        lg = np.log(np.maximum(g[cut], 1e-300))
        q = -float(np.polyfit(le, lg, 1)[0])
    else:
        q = 0.0
    q = max(q, 0.0)
    if q >= 1.0 - 1e-9:
        return IntegralResult(math.inf, tail_exponent=q)
    tail = float(g[0]) * eps[0] / (1.0 - q)
    return IntegralResult(body + tail, tail_exponent=q if q > 1e-12 else None)


def entropy_integral_power(profile: EntropyProfile, p: float) -> IntegralResult:
    """``int_0^1 N(eps)**(1/p) d eps`` with power-law handling of the singular end."""
    if p < 2:
        raise ValueError("power-level integrals use p >= 2")
    if profile.eps.size < 32:
        raise ValueError("profile too coarse: need at least 32 epsilon points")
    g = profile.counts ** (1.0 / p)
    return _integrate_profile(profile.eps, g)


def _w_transform(tau: PsiFunction, xs: np.ndarray) -> np.ndarray:
    """``w(x) = inf_y (x y + ln tau(1/y))`` over y with 1/y in the support of tau."""
    y_hi = 1.0 / tau.p_min
    if math.isfinite(tau.support_upper):
        y_lo = 1.0 / tau.support_upper + 1e-9
    else:
        y_lo = 1e-9
    grid = np.geomspace(y_lo, y_hi, 600)
    vals = xs[:, None] * grid + tau._log_eval_raw(1.0 / grid)
    k = np.argmin(vals, axis=1)
    v_grid = vals[np.arange(xs.size), k]
    # golden-section refinement: the infimum is minus the maximum of -f
    neg_max = -_golden_max(lambda y, idx: -(xs[idx] * y + tau._log_eval_raw(1.0 / y)),
                           grid[np.maximum(k - 1, 0)], grid[np.minimum(k + 1, grid.size - 1)])
    return np.where(neg_max < v_grid, neg_max, v_grid)   # Python min(v_grid, neg_max)


def entropy_integral_exp(profile: EntropyProfile, tau: PsiFunction) -> IntegralResult:
    """``int_0^1 exp(w(H(eps))) d eps`` for the exponential-level hypothesis."""
    if profile.eps.size < 32:
        raise ValueError("profile too coarse: need at least 32 epsilon points")
    h = profile.entropy
    uniq = _sorted_unique(h)
    w_vals = _w_transform(tau, uniq)[np.searchsorted(uniq, h)]
    g = np.exp(w_vals)
    return _integrate_profile(profile.eps, g)


# ---------------------------------------------------------------------------
# field simulation
# ---------------------------------------------------------------------------


def simulate_Q_L(pk: ParametricKernel, L, dists, N: int, rng: RngSpec,
                 workers: int = 1):
    """Simulate the field over V: per-point distributions plus the sup-field.

    Axis samples are shared across grid points within each replication (the
    field structure); the sup-field collects ``max_v |Q_L(v)|`` per
    replication.  Each marginal is bit-identical to ``simulate_S_L`` of the
    slice kernel under the same stream policy.  The (|V|, N) field is weighed
    from the per-term cores block by block and held whole, so memory grows
    with |V|; ``verify.check_theorem_8`` walks the grid from the cores instead.
    """
    field, = _sum_field(pk.factors, pk.lam, [L], dists, N, rng, workers)
    per_v = [EmpiricalDist(row, f"Q_L[v={v}]", seed=rng.seed) for v, row in enumerate(field)]
    sup = EmpiricalDist(np.abs(field).max(axis=0), "sup_field", seed=rng.seed)
    return per_v, sup


def sample_Q_infty(pk: ParametricKernel, N: int, rng: RngSpec, workers: int = 1):
    """Per-point limit samples sharing betas across v within each replication.

    The result has shape (|V|, N): row ``v`` holds the N samples at grid point
    v, weighed from the (T, N) limit cores, which are held beside it.
    """
    kvecs, weights = _terms(pk.lam)
    cores = _limit_cores(kvecs, pk.d, N, rng, workers)
    field = np.empty((len(weights), N))
    for w, row in zip(weights, field):
        _weigh(cores, w, row)
    return field


# ---------------------------------------------------------------------------
# JSON schema
# ---------------------------------------------------------------------------


def parametric_kernel_to_json(pk: ParametricKernel) -> dict:
    lam = []
    for kvec in sorted(pk.lam):
        for v in range(pk.n_points):
            lam.append({"v_index": v, "k": list(kvec), "w": float(pk.lam[kvec][v])})
    return {
        "V": [{"coords": row.tolist()} for row in pk.points],
        "lambda": lam,
        **_factors_to_json(pk.factors),
    }


def parametric_kernel_from_json(obj: dict) -> ParametricKernel:
    points = np.array([row["coords"] for row in obj["V"]], dtype=float)
    nv = points.shape[0]
    factors = _factors_from_json(obj["factors"])
    lam = {}
    seen = set()
    for row in obj["lambda"]:
        kvec, v = tuple(row["k"]), row["v_index"]
        if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < nv:
            raise ValueError(f"v_index {v!r} is not a point index in [0, {nv})")
        if (kvec, v) in seen:
            raise ValueError(f"lambda row (k={list(kvec)}, v_index={v}) is repeated")
        seen.add((kvec, v))
        lam.setdefault(kvec, np.zeros(nv))[v] = _json_weight(row)
    return ParametricKernel(points, lam, factors)
