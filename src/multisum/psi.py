"""Generating functions of Grand Lebesgue Spaces and the tail bounds they induce.

A generating function ``psi(p)`` on a support ``[p_min, b)`` turns a moment
growth profile into a norm ``sup_p |f|_p / psi(p)`` and, through the
Young-Fenchel (Legendre) conjugate of ``v(p) = p * ln(psi(p))``, into an
exponential bound on the two-sided tail of ``f``.

Built-in families:

* ``power_log(m, r)``   -- ``p**(1/m) * ln(p + e - 1)**(-r)``.  The shifted
  logarithm keeps the value finite and positive down to ``p = 1``; for
  ``r = 0`` it is exactly ``p**(1/m)``.
* ``extremal(r)``       -- identically 1 on ``[1, r]``; its norm is the plain
  ``L_r`` norm.
* ``bounded_support(b, gamma, r)`` -- ``(b - p)**(-(gamma+1)/b)`` times a slow
  log correction, normalised so ``psi(1) = 1``; blows up at ``p = b``.
* ``exp_power(beta, C)`` -- ``exp(C * p**beta)``; moment growth of variables
  failing the Cramer condition.
* ``product_of`` / ``rosenthal_scaled`` -- closures of the family under
  pointwise products and multiplication by powers of the Rosenthal function.
  The natural generating function of a rank-one product kernel over d
  sampled axes is ``rosenthal_scaled(product_of(factors), d)``.
* ``tabulated``         -- log-linear interpolation of measured values.

:func:`young_fenchel` and :func:`tail_bound_eval` take a scalar or an array.
An array is searched all at once: ``ln psi`` is evaluated once per grid cap
for every element, and one golden-section search refines all elements in
lockstep, each stopping on its own rule, so every element equals the scalar
call bit for bit.
"""

from __future__ import annotations

import inspect
import json
import math
from dataclasses import dataclass

import numpy as np

from .kernels import _finite_number
from .rosenthal import rosenthal_K

__all__ = [
    "SupportError",
    "PsiFunction",
    "MomentCurve",
    "TailBound",
    "power_log",
    "extremal",
    "bounded_support",
    "exp_power",
    "product_of",
    "rosenthal_scaled",
    "tabulated_psi",
    "gls_norm",
    "natural_psi",
    "young_fenchel",
    "tail_bound_eval",
    "psi_to_json",
    "psi_from_json",
]

_E = math.e

# Conjugate search controls.  The initial grid cap is extended by decades as
# long as the objective keeps climbing at the edge, so maximisers far beyond
# 1e4 (power_log with large m*x) are still found exactly.
_GRID_POINTS = 512
_GRID_CAP_INITIAL = 1.0e4
_GRID_CAP_MAX = 1.0e18
_X_BLOCK = 2048    # x values per objective matrix: 2048 x 512 doubles is 8 MB


class SupportError(ValueError):
    """Evaluation of a generating function outside its support."""


@dataclass(frozen=True)
class PsiFunction:
    """A generating function with explicit support ``[p_min, b)`` or ``[p_min, b]``.

    ``params`` are the arguments of the family's constructor, in its keyword
    order.  Instances are immutable; build them with the module-level
    constructors.
    """

    family: str
    params: tuple = ()
    p_min: float = 1.0
    support_upper: float = math.inf
    closed_top: bool = False

    # -- support ---------------------------------------------------------

    def in_support(self, p):
        p = np.asarray(p, dtype=float)
        upper = (p <= self.support_upper) if self.closed_top else (p < self.support_upper)
        return (p >= self.p_min) & upper

    def _require_support(self, p):
        ok = self.in_support(p)
        if not np.all(ok):
            bad = np.atleast_1d(np.asarray(p, dtype=float))[~np.atleast_1d(ok)][0]
            closer = "]" if self.closed_top else ")"
            raise SupportError(
                f"p={bad:g} outside support [{self.p_min:g}, {self.support_upper:g}{closer} "
                f"of psi family '{self.family}'"
            )

    def inner_top(self) -> float:
        """The top end of grids over the support: the top itself when closed,
        else pulled in by a relative 1e-12 (unless that falls to ``p_min``)."""
        if self.closed_top:
            return self.support_upper
        hi = self.support_upper * (1 - 1e-12)
        return hi if hi > self.p_min else self.support_upper

    # -- evaluation ------------------------------------------------------

    def __call__(self, p):
        self._require_support(p)
        out = np.exp(self._log_eval_raw(np.asarray(p, dtype=float)))
        if np.ndim(p) == 0:
            return float(out)
        return out

    def _log_eval_raw(self, p: np.ndarray) -> np.ndarray:
        """``ln psi(p)`` without forming psi; keeps conjugate searches overflow-free."""
        return _FAMILIES[self.family][1](p, *self.params)


# -- constructors ---------------------------------------------------------


def _numbers(family: str, **params) -> tuple:
    """``params``' values as floats, or a ValueError naming the first that is no finite number."""
    for key, value in params.items():
        if not _finite_number(value):
            raise ValueError(f"psi family '{family}' param '{key}' must be a finite number, "
                             f"got {value!r}")
    return tuple(float(value) for value in params.values())


def power_log(m: float, r: float = 0.0) -> PsiFunction:
    """``psi(p) = p**(1/m) * ln(p + e - 1)**(-r)`` on ``[1, inf)``."""
    m, r = _numbers("power_log", m=m, r=r)
    if m <= 0:
        raise ValueError("power_log requires m > 0")
    return PsiFunction("power_log", (m, r))


def extremal(r: float) -> PsiFunction:
    """Identically 1 on the closed support ``[1, r]``."""
    r, = _numbers("extremal", r=r)
    if r < 1:
        raise ValueError("extremal requires r >= 1")
    return PsiFunction("extremal", (r,), support_upper=r, closed_top=True)


def bounded_support(b: float, gamma: float, r: float = 0.0) -> PsiFunction:
    """Blow-up family ``(b - p)**(-(gamma+1)/b)`` with log correction, psi(1) = 1."""
    b, gamma, r = _numbers("bounded_support", b=b, gamma=gamma, r=r)
    if b <= 1:
        raise ValueError("bounded_support requires b > 1")
    if gamma <= -1:
        raise ValueError("bounded_support requires gamma > -1")
    return PsiFunction("bounded_support", (b, gamma, r), support_upper=b)


def exp_power(beta: float, C: float) -> PsiFunction:
    """``psi(p) = exp(C * p**beta)`` on ``[1, inf)``."""
    beta, C = _numbers("exp_power", beta=beta, C=C)
    if beta <= 0 or C <= 0:
        raise ValueError("exp_power requires beta > 0 and C > 0")
    return PsiFunction("exp_power", (beta, C))


def _intersect_support(factors):
    p_min = max(f.p_min for f in factors)
    b = min(f.support_upper for f in factors)
    closed = all(f.closed_top or f.support_upper > b for f in factors) and math.isfinite(b)
    if b < p_min or (b == p_min and not closed):
        raise SupportError("empty support intersection of psi factors")
    return p_min, b, closed


def product_of(factors) -> PsiFunction:
    """Pointwise product of generating functions on the intersection of supports."""
    factors = tuple(factors)
    if not factors:
        raise ValueError("product_of requires at least one factor")
    if len(factors) == 1:
        return factors[0]
    p_min, b, closed = _intersect_support(factors)
    return PsiFunction("product_of", (factors,),
                       p_min=p_min, support_upper=b, closed_top=closed)


def rosenthal_scaled(base: PsiFunction, d: int) -> PsiFunction:
    """``K(p)**d * base(p)``; the Rosenthal factor restricts the support to p >= 2."""
    if not isinstance(d, (int, np.integer)) or isinstance(d, bool) or d < 1:
        raise ValueError(f"psi family 'rosenthal_scaled' param 'd' must be an integer >= 1, "
                         f"got {d!r}")
    d = int(d)
    p_min = max(2.0, base.p_min)
    if base.support_upper < p_min or (base.support_upper == p_min and not base.closed_top):
        raise SupportError("empty support after restricting to p >= 2")
    return PsiFunction("rosenthal_scaled", (base, d),
                       p_min=p_min, support_upper=base.support_upper,
                       closed_top=base.closed_top)


def tabulated_psi(p_grid, values) -> PsiFunction:
    """Tabulated generating function; log-linear interpolation between nodes."""
    p = np.asarray(p_grid, dtype=float)
    v = np.asarray(values, dtype=float)
    if p.ndim != 1 or p.size == 0 or p.shape != v.shape:
        raise ValueError("tabulated psi needs matching non-empty 1-d grids")
    if np.any(np.diff(p) <= 0):
        raise ValueError("tabulated psi grid must be strictly ascending")
    if np.any(v <= 0) or not np.all(np.isfinite(v)):
        raise ValueError("tabulated psi values must be finite and positive")
    p = p.copy(); v = v.copy()
    p.flags.writeable = False; v.flags.writeable = False
    return PsiFunction("tabulated", (p, v), p_min=1.0, support_upper=float(p[-1]),
                       closed_top=True)


def _log_bounded(p, b, gamma, r):
    gap = b - p
    return -(gamma + 1.0) / b * np.log(gap) + (r / b) * np.log(np.log(1.0 / gap + _E))


# family -> (constructor, ``ln psi(p, *params)``).  The JSON param keys are the
# constructor's keywords.  The tabulated family is log-linear in p between
# nodes and constant below the first node.
_FAMILIES = {
    "power_log": (power_log,
                  lambda p, m, r: np.log(p) / m - r * np.log(np.log(p + _E - 1.0))),
    "extremal": (extremal, lambda p, r: np.zeros_like(p)),
    "bounded_support": (bounded_support, lambda p, b, gamma, r: (
        _log_bounded(p, b, gamma, r) - _log_bounded(1.0, b, gamma, r))),
    "exp_power": (exp_power, lambda p, beta, C: C * p ** beta),
    "product_of": (product_of, lambda p, factors: sum(f._log_eval_raw(p) for f in factors)),
    "rosenthal_scaled": (rosenthal_scaled, lambda p, base, d: (
        d * np.log(rosenthal_K(p)) + base._log_eval_raw(p))),
    "tabulated": (tabulated_psi, lambda p, p_grid, values: np.interp(
        np.log(np.maximum(p, p_grid[0])), np.log(p_grid), np.log(values))),
}


# -- moment curves ---------------------------------------------------------


@dataclass(frozen=True)
class MomentCurve:
    """``|f|_p`` sampled on a strictly ascending p-grid.

    Values must be nondecreasing in p (Lyapunov inequality under a probability
    measure); a relative slack of 1e-9 absorbs floating point noise.
    """

    p_grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p_grid, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if p.ndim != 1 or p.size == 0 or p.shape != v.shape:
            raise ValueError("moment curve needs matching non-empty 1-d arrays")
        if np.any(np.diff(p) <= 0):
            raise ValueError("moment curve p-grid must be strictly ascending")
        if np.any(v < 0) or not np.all(np.isfinite(v)):
            raise ValueError("moment values must be finite and nonnegative")
        if np.any(np.diff(v) < -1e-9 * np.maximum(v[:-1], 1e-300)):
            raise ValueError("moment values must be nondecreasing in p (Lyapunov)")
        p = p.copy(); v = v.copy()
        p.flags.writeable = False; v.flags.writeable = False
        object.__setattr__(self, "p_grid", p)
        object.__setattr__(self, "values", v)


def gls_norm(curve: MomentCurve, psi: PsiFunction) -> float:
    """``max`` over the curve grid of ``|f|_p / psi(p)``.

    This is a finite-grid lower bound of the true supremum over the whole
    support; refine the grid to tighten it.
    """
    return float(np.max(curve.values / psi(curve.p_grid)))


def natural_psi(curve: MomentCurve) -> PsiFunction:
    """The generating function equal to the moment curve itself (norm 1 on its grid)."""
    if np.any(curve.values <= 0):
        raise ValueError("natural psi requires strictly positive moments")
    return tabulated_psi(curve.p_grid, curve.values)


# -- Young-Fenchel conjugate ----------------------------------------------


def _first_max(first, *rest):
    """Elementwise ``max(first, *rest)`` in Python's order: a later value wins only
    if it compares greater, so a leading NaN or a leading ``0.0`` against ``-0.0`` stays."""
    out = first
    for r in rest:
        out = np.where(r > out, r, out)
    return out


def _golden_max(fun, lo, hi):
    """Maxima of unimodal functions on ``[lo[i], hi[i]]`` by golden-section search in lockstep.

    ``fun(p, idx)`` is the objective of element ``idx[j]`` at ``p[j]``.  Each
    element stops on its own rule ``b - a < 1e-14 * max(1, |a|)``, so it takes
    exactly the steps a one-element search takes, and each step makes one
    ``fun`` call over the elements still running.
    """
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = np.array(lo, dtype=float), np.array(hi, dtype=float)
    idx = np.arange(a.size)
    w = b - a
    c, d = b - invphi * w, a + invphi * w
    fc, fd = fun(c, idx), fun(d, idx)
    final = np.empty((4, a.size))       # a, b, f(c), f(d) of each element when it stops
    for _ in range(90):
        stop = w < 1e-14 * np.maximum(1.0, np.abs(a))
        if stop.any():
            final[:, idx] = a, b, fc, fd
            run = ~stop
            idx, a, b, c, d, fc, fd, w = (v[run] for v in (idx, a, b, c, d, fc, fd, w))
        if not idx.size:
            break
        up = fc > fd
        a, b = np.where(up, a, c), np.where(up, d, b)
        w = b - a
        step = invphi * w
        p = np.where(up, b - step, a + step)
        c, d = np.where(up, p, d), np.where(up, c, p)
        f = fun(p, idx)
        fc, fd = np.where(up, f, fd), np.where(up, fc, f)
    final[:, idx] = a, b, fc, fd
    a, b, fc, fd = final
    return _first_max(fc, fd, fun(0.5 * (a + b), np.arange(a.size)))


def _elementwise(fun, values):
    """``fun`` over the flattened ``values``: a float for a scalar, else an array of its shape."""
    arr = np.asarray(values, dtype=float)
    out = fun(arr.reshape(-1))
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


def young_fenchel(psi: PsiFunction, x):
    """Conjugate ``v*(x) = sup_p (x p - p ln psi(p))`` over the support of psi.

    ``x`` is a scalar (the result is a float) or an array (the result has its
    shape, and each element equals the scalar call).  Log-spaced grid search
    refined by golden section around the grid argmax: ``ln psi`` is evaluated
    once per grid cap for every x, the objective is one ``(len(x),
    _GRID_POINTS)`` matrix, and the refinement runs one lockstep golden search
    over all x.  On unbounded supports each x pushes its own grid cap out by
    decades while its objective still climbs at the edge; if it climbs through
    the final decade at the hard cap that conjugate is reported as ``inf``.
    """
    def blocks(xs):
        out = np.empty(xs.size)
        for s in range(0, xs.size, _X_BLOCK):
            out[s:s + _X_BLOCK] = _conjugate_block(psi, xs[s:s + _X_BLOCK])
        return out
    return _elementwise(blocks, x)


def _conjugate_block(psi: PsiFunction, xs: np.ndarray) -> np.ndarray:
    n = xs.size
    a, b, top = np.empty(n), np.empty(n), np.empty(n)   # bracket and grid max per x
    diverged = np.zeros(n, dtype=bool)
    pending = np.arange(n)
    bounded = math.isfinite(psi.support_upper)
    cap = psi.inner_top() if bounded else _GRID_CAP_INITIAL
    while pending.size:
        grid = np.geomspace(psi.p_min, cap, _GRID_POINTS)
        obj = xs[pending, None] * grid - grid * psi._log_eval_raw(grid)
        k = np.nanargmax(obj, axis=1)
        done = bounded | (k < _GRID_POINTS - 8)
        if not bounded and cap >= _GRID_CAP_MAX:
            # increasing over the whole last decade: divergent conjugate
            climbing = np.diff(obj[~done][:, grid >= cap / 10.0], axis=1)
            diverged[pending[~done]] = np.all(climbing >= 0, axis=1)
            done[:] = True
        rows, k = pending[done], k[done]
        a[rows] = grid[np.maximum(k - 1, 0)]
        b[rows] = grid[np.minimum(k + 1, _GRID_POINTS - 1)]
        top[rows] = obj[np.flatnonzero(done), k]
        pending = pending[~done]
        cap = min(cap * 100.0, _GRID_CAP_MAX)
    out = np.full(n, math.inf)
    live = np.flatnonzero(~diverged)
    x_live = xs[live]
    best = _golden_max(lambda p, idx: x_live[idx] * p - p * psi._log_eval_raw(p),
                       a[live], b[live])
    out[live] = _first_max(best, top[live])
    return out


# -- tail bounds -----------------------------------------------------------


@dataclass(frozen=True)
class TailBound:
    """Exponential tail bound induced by a GLS norm.

    Valid (non-trivial) for ``y >= e * gls_norm``; clamped to 1 below that
    threshold, where the moment method asserts nothing.
    """

    gls_norm: float
    psi: PsiFunction

    def __post_init__(self):
        if not (self.gls_norm > 0 and math.isfinite(self.gls_norm)):
            raise ValueError("tail bound requires a positive finite norm")

    @property
    def validity_threshold(self) -> float:
        return _E * self.gls_norm

    def __call__(self, y):
        return tail_bound_eval(self, y)


def tail_bound_eval(tb: TailBound, y):
    """``exp(-v*(ln(y / norm)))`` for ``y >= e * norm``; 1 below the threshold.

    ``y`` is a scalar or an array, as for :func:`young_fenchel`; the
    conjugates of all levels above the threshold come from one array call.
    """
    def bound(ys):
        if np.any(ys < 0):
            raise ValueError("tail levels are nonnegative")
        out = np.ones(ys.size)
        above = np.flatnonzero(~(ys < tb.validity_threshold))
        # math.log and math.exp per level: np.log and np.exp differ from them in the last bit
        v_star = young_fenchel(tb.psi, [math.log(y / tb.gls_norm) for y in ys[above].tolist()])
        out[above] = [0.0 if math.isinf(v) else min(1.0, math.exp(-v)) for v in v_star.tolist()]
        return out
    return _elementwise(bound, y)


# -- JSON schema -----------------------------------------------------------


def psi_to_json(psi: PsiFunction) -> dict:
    """Serialize to the exchange schema {family, params, support_upper}.

    The param keys are the keywords of the family's constructor.
    """
    keys = inspect.signature(_family(psi.family)[0]).parameters
    params = {key: _param_to_json(value) for key, value in zip(keys, psi.params)}
    upper = None if math.isinf(psi.support_upper) else psi.support_upper
    return {"family": psi.family, "params": params, "support_upper": upper}


def psi_from_json(obj) -> PsiFunction:
    """Inverse of :func:`psi_to_json`; omitted params take the constructor defaults.

    A number, whether a scalar param or an entry of a list, must be finite and not a bool.
    A list holds generating functions only when every entry is an object.
    """
    if isinstance(obj, str):
        obj = json.loads(obj)
    family = obj["family"]
    build = _family(family)[0]
    return build(**{key: _param_from_json(family, key, value)
                    for key, value in obj.get("params", {}).items()})


def _family(name: str):
    if name not in _FAMILIES:
        raise ValueError(f"unknown psi family '{name}'")
    return _FAMILIES[name]


def _param_to_json(value):
    if isinstance(value, PsiFunction):
        return psi_to_json(value)
    if isinstance(value, tuple):
        return [_param_to_json(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value


def _param_from_json(family: str, key: str, value):
    if isinstance(value, dict):
        return psi_from_json(value)
    if isinstance(value, list) and value and all(isinstance(v, dict) for v in value):
        return [psi_from_json(v) for v in value]
    for number in value if isinstance(value, list) else [value]:
        _numbers(family, **{key: number})
    return value
