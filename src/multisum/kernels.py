"""Degenerate (finite-rank, factorized) kernels and their low-rank approximation.

A degenerate kernel of ``d`` variables is ``f(x) = sum_k lambda(k) *
prod_s g_{k_s}(x_s)`` with centered one-variable factors.  Factor systems are
orthonormal polynomial families under their canonical base measures:

* ``hermite``          -- normalized probabilists' Hermite under N(0,1),
* ``rademacher_sign``  -- the identity on {-1, +1},
* ``poisson_charlier`` -- normalized Charlier under Poisson(1), evaluated on
  the compensated count ``x = n - 1``,
* ``exponential_poly`` -- signed Laguerre under Exp(1), evaluated on the
  compensated value ``x = t - 1``,
* ``tabulated``        -- value tables on a weighted node grid (the output of
  a spectral decomposition).

The analytic families run their three-term recurrences in a block's row
buffers, scaled by ``1/sqrt(k!)`` (``1/k!`` for Laguerre) from exact integer
factorials, and the Poisson weights are ``e**-1 / k!`` the same way, so
every norm and weight is within an ulp and no SciPy function is called.

``TabulatedKernel`` holds a two-variable kernel sampled on quadrature grids;
its weighted singular value decomposition yields the best rank-M
approximation in the weighted L2 sense, exactly (Eckart-Young).  For p != 2
the same truncation is used as a computable surrogate.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .index_sets import _int_array, _json_int

__all__ = [
    "FactorFamily",
    "tabulated_family",
    "DegenerateKernel",
    "TabulatedKernel",
    "kernel_to_json",
    "kernel_from_json",
    "quadrature_rule",
]

_POISSON_NODE_COUNT = 140  # pmf underflows past ~170!; 140 is exact to double precision
_GAUSS_NODE_COUNT = 64     # Gauss-Hermite and Gauss-Laguerre nodes per axis
_SLAB_FLOATS = 1 << 16     # values per quadrature block: 512 KiB, cache-sized
_NODE_LIMIT = 1 << 31      # largest tensor grid a moment walks
_RUNS = 32                 # most blocks a walk cuts each side of the grid into
# A walk drops every term below e**_EXP_FLOOR times its largest one: at most _NODE_LIMIT
# such terms add less than 2**31 * e**-64 < 2**-61 of the sum, far below the walk's rounding.
_EXP_FLOOR = -64.0
# A block's bound counts a value's log as at least this: a product below 2**-1021 may round
# up by a subnormal ulp.
_LOG_TINY = -1021 * math.log(2.0)


# ---------------------------------------------------------------------------
# quadrature rules per canonical base distribution
# ---------------------------------------------------------------------------


def _normed_hermite(x, n: int):
    """The orthonormal probabilists' Hermite function of degree n >= 1 at x, as NumPy makes it."""
    c0 = 0.
    c1 = 1. / np.sqrt(np.sqrt(2 * np.pi))
    nd = float(n)
    for _ in range(n - 1):
        tmp = c0
        c0 = -c1 * np.sqrt((nd - 1.) / nd)
        c1 = tmp + c1 * x * np.sqrt(1. / nd)
        nd = nd - 1.0
    return c0 + c1 * x


def _hermite_gauss(n: int):
    """``numpy.polynomial.hermite_e.hermegauss(n)``, n >= 2, by its own steps: bit for bit.

    The nodes are the eigenvalues of the symmetric companion matrix, with one
    Newton step; the weights come from the degree n - 1 function there.  Only
    ``numpy.linalg`` is used, which ``import numpy`` loads anyway, where
    ``numpy.polynomial`` would import 9 modules.
    """
    x = np.linalg.eigvalsh(np.diag(np.sqrt(np.arange(1, n)), -1))
    x -= _normed_hermite(x, n) / (_normed_hermite(x, n - 1) * np.sqrt(n))
    fm = _normed_hermite(x, n - 1)
    fm /= np.abs(fm).max()
    w = 1 / (fm * fm)
    w = (w + w[::-1]) / 2
    x = (x - x[::-1]) / 2
    w *= np.sqrt(2 * np.pi) / w.sum()
    return x, w


def _laguerre_series(x, c):
    """``numpy.polynomial.laguerre.lagval(x, c)`` for 3 or more coefficients, step for step."""
    nd = len(c)
    c0, c1 = c[-2], c[-1]
    for i in range(3, len(c) + 1):
        tmp = c0
        nd = nd - 1
        c0 = c[-i] - (c1 * (nd - 1)) / nd
        c1 = tmp + (c1 * ((2 * nd - 1) - x)) / nd
    return c0 + c1 * (1 - x)


def _laguerre_gauss(n: int):
    """``numpy.polynomial.laguerre.laggauss(n)``, n >= 2, by its own steps: bit for bit.

    As ``_hermite_gauss``: companion-matrix eigenvalues and one Newton step,
    with ``L_n' = -(L_0 + ... + L_{n-1})``, whose series is all -1.
    """
    k = np.arange(n)
    x = np.linalg.eigvalsh(np.diag(2. * k + 1.) - np.diag(k[1:], -1))
    unit = np.zeros(n + 1)
    unit[-1] = 1.0
    df = _laguerre_series(x, np.full(n, -1.0))
    x -= _laguerre_series(x, unit) / df
    fm = _laguerre_series(x, unit[1:])
    fm /= np.abs(fm).max()
    df /= np.abs(df).max()
    w = 1 / (fm * df)
    w /= w.sum()
    return x, w


@lru_cache(maxsize=None)
def quadrature_rule(base: str):
    """(nodes, weights) integrating exactly against the base probability law.

    Gauss-Hermite for the standard normal, the two-point rule for Rademacher,
    truncated pmf nodes for the compensated Poisson, Gauss-Laguerre shifted to
    the compensated exponential.  Nodes are expressed in the same coordinates
    the factor families consume.
    """
    if base == "standard_normal":
        x, w = _hermite_gauss(_GAUSS_NODE_COUNT)
        w = w / math.sqrt(2.0 * math.pi)
    elif base == "rademacher":
        x = np.array([-1.0, 1.0])
        w = np.array([0.5, 0.5])
    elif base == "compensated_poisson":
        # e**-1 / k!, the double nearest e**-1 divided by k! with one rounding (exact
        # integer division): within an ulp, where rounding k! to a double first is not
        num, den = math.exp(-1.0).as_integer_ratio()
        x = np.arange(_POISSON_NODE_COUNT) - 1.0
        w = np.array([num / (den * math.factorial(k)) for k in range(_POISSON_NODE_COUNT)])
    elif base == "centered_exponential":
        t, w = _laguerre_gauss(_GAUSS_NODE_COUNT)
        x = t - 1.0
    else:
        raise ValueError(f"no quadrature rule for base distribution '{base}'")
    x = x.copy(); w = w.copy()
    x.flags.writeable = False; w.flags.writeable = False
    return x, w


def _lp_norm(slabs, p_grid) -> list:
    """``(sum w |v|**p)**(1/p)`` at each p of ``p_grid``, by running log-sum-exps over one walk.

    Each slab is ``(vals, log_weights, tops)``: a block of grid values,
    overwritten here, or a function that makes it; arrays that broadcast
    against it and add up to the block's ``log w``; and None or, per p, an
    upper bound on the block's ``p log|v| + log w``, which is +inf or NaN
    where a value is not finite.  A p skips a block whose bound lies more
    than ``-_EXP_FLOOR`` below its top (the largest term it has seen), and
    the block is made only when some p keeps it.  Then ``log|v|`` is taken
    once; for each p that keeps it, ``p log|v| + log w`` is formed in one
    reused block-sized buffer (in ``vals`` itself for the last p) and added
    to that p's sum.  Every term of a skipped block would fall below the
    floor, so a skip changes no bit, and each p makes the float operations
    of a walk at that p alone: each norm is the one-p norm, and the norm of
    a walk that skips nothing, bit for bit.  Neither ``|v|**p`` nor ``w`` is
    formed, so large values at high p cannot overflow and tiny weights
    cannot underflow to 0.  ``exp`` runs only on terms above the top plus
    ``_EXP_FLOOR``.  A NaN or infinite value makes a p's norm NaN, and the
    walk stops once every p is NaN; an all-zero grid gives 0.
    """
    top = [-math.inf] * len(p_grid)
    total = [0.0] * len(p_grid)
    live = list(range(len(p_grid)))
    buf = np.empty(0)
    for vals, log_weights, tops in slabs:
        keep = live if tops is None else [i for i in live if not tops[i] < top[i] + _EXP_FLOOR]
        if not keep:
            continue
        if callable(vals):
            vals = vals()
        with np.errstate(divide="ignore"):
            np.log(np.abs(vals, out=vals), out=vals)
        if buf.size < vals.size and len(keep) > 1:
            buf = np.empty(vals.size)
        for i in keep:
            out = vals if i == keep[-1] else buf[:vals.size].reshape(vals.shape)
            np.multiply(vals, p_grid[i], out=out)
            for log_w in log_weights:
                out += log_w
            peak = out.max()
            if not peak < math.inf:
                top[i] = math.nan
                continue
            if peak > top[i]:
                total[i] *= math.exp(top[i] - peak)
                top[i] = peak
            terms = out[out > top[i] + _EXP_FLOOR]
            terms -= top[i]
            total[i] += np.exp(terms, out=terms).sum()
            del terms   # a copy: free it before the next one is made
        live = [i for i in live if not math.isnan(top[i])]
        if not live:
            break
    return [math.nan if math.isnan(t) else 0.0 if t == -math.inf
            else float(np.exp((t + math.log(s)) / p)) for t, s, p in zip(top, total, p_grid)]


def _blocks(left, right, log_left, log_right, p_grid):
    """``_lp_norm``'s slabs for the grid ``left @ right``: 2-D blocks, each with its bounds.

    ``left`` is (leading nodes, T terms), ``right`` (T, trailing nodes), and
    ``log_left`` and ``log_right`` are their nodes' log weights.  A block
    takes r leading rows and c trailing columns, about ``_SLAB_FLOATS``
    values in the grid's aspect ratio, and the blocks run row-major.  Its
    values are one ``matmul`` into a reused buffer, made only when
    ``_lp_norm`` keeps the block.  As ``|v_ij| <= T max_t |L_it R_tj|``, its
    bound at p is ``p log T + max_t [max_i (p log|L_it| + log w_i) +
    max_j (p log|R_tj| + log w_j)]`` over its rows i and columns j, at
    least ``p _LOG_TINY`` plus its largest ``log w``, plus ``2**-40`` times
    the magnitudes in play (T included, for the ``matmul``), far above the
    rounding of a term or of the bound.  Blocks get bounds only when every
    p is positive and every value is certified finite (``T max|L| max|R|``
    below ``2**1022``), so a NaN or infinite value is never skipped.  The
    per-p state is one bound per term and column run.
    """
    (n_lead, count), n_trail = left.shape, right.shape[1]
    rows = min(n_lead, max(1, math.isqrt(_SLAB_FLOATS * n_lead // n_trail), -(-n_lead // _RUNS)))
    cols = min(n_trail, max(1, _SLAB_FLOATS // rows, -(-n_trail // _RUNS)))
    starts = range(0, n_trail, cols)
    buf = np.empty(rows * cols)
    runs = None
    finite = count * np.abs(left).max() * np.abs(right).max() < 2.0 ** 1022
    if finite and all(p > 0 for p in p_grid):
        with np.errstate(divide="ignore"):
            log_lead = np.log(np.abs(left))
        runs = [[] for _ in p_grid]     # per p and column run: max_j p log|R_tj| + log w_j
        for c0 in starts:
            with np.errstate(divide="ignore"):
                log_run = np.log(np.abs(right[:, c0:c0 + cols]))
            for run, p in zip(runs, p_grid):
                run.append((log_run * p + log_right[c0:c0 + cols]).max(axis=1))
        runs = [np.stack(run, axis=1) for run in runs]
        run_weights = np.maximum.reduceat(log_right, starts)
        # every finite nonzero double has |log|x|| < 745
        scale = 1.0 + np.abs(log_left).max() + np.abs(log_right).max()
        lifts = [p * math.log(count) + 2.0 ** -40 * (scale + p * (2 * count + 1490.0))
                 for p in p_grid]
    for r0 in range(0, n_lead, rows):
        lead, log_w = left[r0:r0 + rows], log_left[r0:r0 + rows, None]
        tops = [None] * len(starts)
        if runs is not None:
            heads = [(p * log_lead[r0:r0 + rows] + log_w).max(axis=0)[:, None] for p in p_grid]
            floors = run_weights + log_w.max()
            tops = np.array([np.maximum((head + run).max(axis=0), p * _LOG_TINY + floors) + lift
                             for p, head, run, lift in zip(p_grid, heads, runs, lifts)]).T.tolist()
        for c0, block_tops in zip(starts, tops):
            trail = right[:, c0:c0 + cols]
            out = buf[:lead.shape[0] * trail.shape[1]].reshape(lead.shape[0], trail.shape[1])
            yield (lambda a=lead, b=trail, out=out: np.matmul(a, b, out=out),
                   [log_w, log_right[c0:c0 + cols]], block_tops)


@lru_cache(maxsize=None)
def _inverse_factorials(kmax: int, root: bool) -> np.ndarray:
    """``1/k!``, or ``1/sqrt(k!)`` when ``root``, for k = 0..kmax: a read-only array.

    Each is within an ulp of the exact value: ``1/k!`` is Python's correctly
    rounded integer division, and the square root rounds once more.  For the
    root, a factorial of more than 1000 bits is first divided by a power of 4
    that ``ldexp`` puts back, so the quotient stays in the normal range.
    """
    out = np.empty(kmax + 1)
    fact = 1
    for k in range(kmax + 1):
        fact *= max(k, 1)
        if root:
            e = max(0, fact.bit_length() - 1000) // 2
            out[k] = math.ldexp(math.sqrt(1 / (fact >> 2 * e)), -e)
        else:
            out[k] = 1 / fact
    out.flags.writeable = False
    return out


def _recurrence_rows(kmax: int, x: np.ndarray, first, step, norm: np.ndarray, buffers=None,
                     back=lambda k: k):
    """Rows 1..kmax at points x of ``p_{k+1} = c_k * p_k - b_k * p_{k-1}`` (``p_0 = 1``).

    ``first(b)`` returns ``p_1``, either an array it leaves alone or ``b``
    itself, which it fills; ``step(k, p, out)`` writes ``c_k * p`` into
    ``out``; ``back(k)`` is ``b_k``, k by default.  Row k is yielded as
    ``norm[k] * p_k``, valid until the next row: ``p_k`` itself where
    ``norm[k]`` is 1.0 (an exact product), else the last of the three
    ``buffers`` (arrays of x's shape, made here when absent).  The recurrence
    runs in place in the other two, never writes x, and its first step
    subtracts the scalar ``b_1 * p_0 = b_1``.  So the rows of a block make no
    array of their own when ``buffers`` are given.
    """
    a, b, row = buffers if buffers is not None else [np.empty_like(x) for _ in range(3)]
    p1 = first(b)
    prev, cur = None, p1
    for k in range(1, kmax + 1):
        yield cur if norm[k] == 1.0 else np.multiply(cur, norm[k], out=row)
        if k == kmax:
            return
        step(k, cur, row)
        if prev is None:
            nxt = np.subtract(row, back(1), out=a)
        else:
            scaled = np.multiply(prev, back(k), out=b if prev is p1 else prev)
            nxt = np.subtract(row, scaled, out=scaled)
        prev, cur = cur, nxt


def _hermite_rows(kmax: int, x: np.ndarray, buffers=None):
    """Normalized probabilists' Hermite polynomials, from the monic recurrence (``c_k = x``)."""
    return _recurrence_rows(kmax, x, lambda b: x, lambda k, p, out: np.multiply(x, p, out=out),
                            _inverse_factorials(kmax, True), buffers)


def _charlier_rows(kmax: int, x: np.ndarray, buffers=None):
    """Normalized Charlier polynomials (a = 1) on the compensated count x = n - 1.

    With ``n = x + 1``, ``p_1 = 1 - n`` and ``c_k = k + 1 - n``.  ``n`` is
    remade where it is needed rather than kept, so the rows run in the three
    buffers alone.
    """
    norm = (-1.0) ** np.arange(kmax + 1) * _inverse_factorials(kmax, True)

    def first(b):
        n = np.add(x, 1.0, out=b)
        return np.subtract(1.0, n, out=n)

    def step(k, p, out):
        n = np.add(x, 1.0, out=out)
        np.multiply(np.subtract(k + 1.0, n, out=n), p, out=out)

    return _recurrence_rows(kmax, x, first, step, norm, buffers)


def _sign_rows(kmax: int, x: np.ndarray, buffers=None):
    """The sign family's single member, the identity."""
    if kmax > 1:
        raise ValueError("the sign family has a single member (k = 1)")
    return [x][:kmax]


def _laguerre_rows(kmax: int, x: np.ndarray, buffers=None):
    """Signed Laguerre polynomials ``(-1)**k L_k(t)`` on the compensated value x = t - 1.

    ``p_k = (-1)**k k! L_k(t)`` has ``p_1 = x``, ``c_k = x - 2k`` and
    ``b_k = k**2``, and row k is ``p_k / k!``.  ``p_k`` grows like ``k!``,
    so rows past k = 170 are not finite.
    """
    return _recurrence_rows(kmax, x, lambda b: x,
                            lambda k, p, out: np.multiply(np.subtract(x, 2.0 * k, out=out), p,
                                                          out=out),
                            _inverse_factorials(kmax, False), buffers, back=lambda k: k * k)


# analytic factor kind -> (canonical base distribution, its rows 1..kmax)
_ANALYTIC_KINDS = {
    "hermite": ("standard_normal", _hermite_rows),
    "rademacher_sign": ("rademacher", _sign_rows),
    "poisson_charlier": ("compensated_poisson", _charlier_rows),
    "exponential_poly": ("centered_exponential", _laguerre_rows),
}


@dataclass(frozen=True)
class FactorFamily:
    """One axis' factor system: centered functions indexed by k >= 1.

    ``FactorFamily(kind)`` builds an analytic kind; ``tabulated_family``
    builds the tabulated kind, whose ``nodes``/``table``/``weights`` are the
    only set ones.
    """

    kind: str
    nodes: np.ndarray | None = None
    table: np.ndarray | None = None
    weights: np.ndarray | None = None

    def __post_init__(self):
        if self.kind != "tabulated" and self.kind not in _ANALYTIC_KINDS:
            raise ValueError(f"unknown factor family '{self.kind}'")

    @property
    def canonical_base(self) -> str | None:
        """The base law the factors are orthonormal under; None for tabulated factors."""
        return _ANALYTIC_KINDS[self.kind][0] if self.kind in _ANALYTIC_KINDS else None

    @property
    def rule(self):
        """(nodes, weights) integrating against the base law: canonical or tabulated."""
        if self.kind == "tabulated":
            return self.nodes, self.weights
        return quadrature_rule(self.canonical_base)

    def evaluate(self, k: int, x) -> np.ndarray:
        """Value of the k-th factor at points x (k is 1-based)."""
        if k < 1:
            raise ValueError("factor indices are 1-based; k=0 would be the constant")
        if self.kind == "tabulated" and k <= self.table.shape[0]:
            # one row only; a k past the table fails the member check in rows
            return np.interp(np.asarray(x, dtype=float), self.nodes, self.table[k - 1])
        return self.evaluate_block(k, x)[k - 1]

    def rows(self, kmax: int, x, buffers=None):
        """Factors 1..kmax at points x, one array of x's shape per k, in order.

        A row may be x itself or a buffer that the next row reuses, so callers
        only read rows and copy the ones they keep.  ``buffers``, three arrays
        of x's shape, hold the rows of the recurrence kinds; fresh ones are
        made when absent.  Nothing is computed past the current row, and a
        kmax past the family's members fails here, before the first row.
        """
        x = np.asarray(x, dtype=float)
        if self.kind != "tabulated":
            return _ANALYTIC_KINDS[self.kind][1](kmax, x, buffers)
        if kmax > self.table.shape[0]:
            raise ValueError(f"tabulated family has {self.table.shape[0]} members")
        return (np.interp(x, self.nodes, row) for row in self.table[:kmax])

    def evaluate_block(self, kmax: int, x) -> np.ndarray:
        """Factors 1..kmax at points x, stacked: shape (kmax,) + x.shape."""
        x = np.asarray(x, dtype=float)
        out = np.empty((kmax,) + x.shape)
        for k, row in enumerate(self.rows(kmax, x)):
            out[k] = row
        return out

    def moment(self, k: int, p: float, law=None) -> float:
        """``|g_k(xi)|_p`` when xi follows ``law``, an ``AxisDistribution``.

        Quadrature against the base measure when ``law`` is None or is the
        family's canonical base; the k = 1 member of every analytic family is
        the identity, so any law works there through its raw absolute moment.
        Any other pair has no moment rule and is a ValueError.
        """
        if law is None or law.kind == self.canonical_base:
            x, w = self.rule
            return _lp_norm([(self.evaluate(k, x), [np.log(w)], None)], [p])[0]
        if k == 1 and self.canonical_base is not None:
            return law.identity_moment(p)
        raise ValueError(
            f"no moment rule for factor family '{self.kind}' (k={k}) under '{law.kind}'")


def tabulated_family(nodes, table, weights) -> FactorFamily:
    nodes = np.asarray(nodes, dtype=float)
    table = np.atleast_2d(np.asarray(table, dtype=float))
    weights = np.asarray(weights, dtype=float)
    if np.any(weights <= 0) or abs(weights.sum() - 1.0) > 1e-8:
        raise ValueError("tabulated family weights must be positive and sum to 1")
    return FactorFamily("tabulated", nodes=nodes, table=table, weights=weights)


# ---------------------------------------------------------------------------
# degenerate kernels
# ---------------------------------------------------------------------------


def _multi_indices(keys, d: int) -> list:
    """The lambda keys ``keys`` as tuples of ``d`` integer factor indices, each at least 1."""
    if any(len(kvec) != d for kvec in keys):
        raise ValueError(f"every lambda key needs {d} factor indices")
    idx = _int_array([*keys] or np.empty((0, d), int), "factor indices", 2)
    if np.any(idx < 1):
        raise ValueError("factor indices are 1-based")
    return list(map(tuple, idx.tolist()))


@dataclass
class DegenerateKernel:
    """Finite-rank kernel ``sum_k lambda(k) prod_s g_{k_s}(x_s)``.

    ``lam`` maps d-tuples of 1-based factor indices to weights; the rank bound
    M is the largest index component.  Immutable after construction.
    """

    d: int
    lam: dict
    factors: list

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("kernel dimension must be >= 1")
        if len(self.factors) != self.d:
            raise ValueError("need one factor family per axis")
        self.lam = {k: float(w) for k, w in zip(_multi_indices(self.lam, self.d),
                                                self.lam.values())}

    # -- structure -------------------------------------------------------

    @property
    def M(self) -> int:
        """Degree: the largest factor index used on any axis."""
        if not self.lam:
            return 0
        return max(max(kvec) for kvec in self.lam)

    @property
    def sigma_sq(self) -> float:
        """``sum lambda(k)**2``; equals Var f under orthonormal factors."""
        return float(sum(w * w for w in self.lam.values()))

    @property
    def lambda_l1(self) -> float:
        return float(sum(abs(w) for w in self.lam.values()))

    # -- evaluation ------------------------------------------------------

    def evaluate(self, point) -> float:
        point = np.asarray(point, dtype=float)
        if point.shape != (self.d,):
            raise ValueError(f"point must have {self.d} coordinates")
        total = 0.0
        cache = {}
        for kvec, w in self.lam.items():
            prod = w
            for axis, k in enumerate(kvec):
                key = (axis, k)
                if key not in cache:
                    cache[key] = float(self.factors[axis].evaluate(k, point[axis:axis + 1])[0])
                prod *= cache[key]
            total += prod
        return total

    def moment(self, p: float, terms: dict | None = None) -> float:
        """``|f(xi)|_p``: ``moments([p], terms)``, as one float."""
        return self.moments([p], terms)[0]

    def moments(self, p_grid, terms: dict | None = None) -> list:
        """``|f(xi)|_p`` at each p of ``p_grid``, by one tensor-product quadrature walk.

        ``terms``, a sub-dict of ``lam``, restricts the sum to those terms.
        The value grid is never formed.  The axes split into a leading group
        and a trailing group, whichever split makes the larger of the two
        node counts smallest, and the grid is the product of a left factor
        (leading nodes x terms: the leading axes' factor rows scaled by
        lambda) and a right factor (terms x trailing nodes: the outer
        products of the trailing rows).  Each side's nodes are walked
        heaviest first (by their product of rule weights), so the largest
        terms come early, in 2-D blocks of about ``_SLAB_FLOATS`` values
        (``_blocks``), each with an upper bound on its terms at every p.
        ``_lp_norm`` skips a block at a p where that bound lies more than
        ``-_EXP_FLOOR`` below the p's largest term so far, and makes it (one
        ``matmul`` into a reused buffer, one ``log|v|`` for every p) only
        when some p keeps it, so each value is the one-p call's, and the
        skip-nothing walk's, bit for bit.  On the d = 3 Poisson-Charlier bound kernel at p = 2, 4, 8
        it makes a sixth of the grid.  Working memory is the two factors,
        ``T * (n_lead + n_trail)`` floats for T terms, the left one's logs,
        and about two blocks (three for more than one p): 64 nodes on each
        of 4 axes peak near 1.5 MiB, where the whole grid would take
        128 MiB.  A grid of more than ``_NODE_LIMIT`` (2**31) nodes is a
        ValueError, raised before any work.
        """
        terms = self.lam if terms is None else terms
        if not terms:
            return [0.0] * len(p_grid)
        rules = [fam.rule for fam in self.factors]
        sizes = [x.size for x, _ in rules]
        nodes = math.prod(sizes)
        if nodes > _NODE_LIMIT:
            raise ValueError(f"tensor quadrature over {nodes} nodes exceeds the limit "
                             f"of {_NODE_LIMIT}")
        split = min(range(1, self.d), default=1,
                    key=lambda a: max(math.prod(sizes[:a]), math.prod(sizes[a:])))
        count = len(terms)
        left = np.fromiter(terms.values(), float, count)[None, :]
        right = np.ones((count, 1))
        log_left = log_right = np.zeros(1)
        for axis, (rows, w) in enumerate(self._term_rows(terms)):
            if axis < split:
                left = (left[:, None, :] * rows.T).reshape(-1, count)
                log_left = (log_left[:, None] + np.log(w)).ravel()
            else:
                right = (right[:, :, None] * rows[:, None, :]).reshape(count, -1)
                log_right = (log_right[:, None] + np.log(w)).ravel()
        lead = np.argsort(-log_left, kind="stable")     # heaviest first
        trail = np.argsort(-log_right, kind="stable")
        left, log_left = left[lead], log_left[lead]
        right, log_right = right[:, trail], log_right[trail]
        return _lp_norm(_blocks(left, right, log_left, log_right, p_grid), p_grid)

    def _term_rows(self, keys):
        """Per axis, ``(rows, weights)``: row t holds the factor of ``keys[t]`` at the axis' rule nodes."""
        index = np.array(list(keys), dtype=np.intp) - 1
        for fam, k in zip(self.factors, index.T):
            x, w = fam.rule
            yield fam.evaluate_block(k.max() + 1, x)[k], w

    # -- low-rank structure ------------------------------------------------

    @property
    def head(self) -> "DegenerateKernel":
        """The kernel whose rank-M truncation (every index <= M) is ``Z_M``: itself."""
        return self

    def residual_norms(self, M: int, p_grid) -> list:
        """``Q_{M,p}`` at each p of ``p_grid``: the L_p norms of the terms with an index above M."""
        return self.moments(p_grid, {k: w for k, w in self.lam.items() if max(k) > M})

    def residual_l2_floors(self, M_max: int) -> list:
        """Per rank M = 1..M_max, a lower bound on the residual's L_2 norm on the rules, or None.

        The residual at M is ``residual_norms``' term set, the terms with an
        index above M.  Its squared L_2 norm on the tensor rule is
        ``sum_{k,k'} lambda(k) lambda(k') prod_s G_s[k_s, k'_s]``, where
        ``G_s`` is the Gram matrix of axis s's factor rows under the rule's
        weights, so no walk is needed.  The bound subtracts
        ``(d (n + 2) + 2 T) 2**-50 D_2**2`` (n nodes on the longest axis, T
        terms, ``D_2`` the sum of the terms' own L_2 norms), 8 times the
        first-order rounding of these sums, and is 0.0 where that leaves less
        than ``2**-1000``, near the subnormal range.

        None marks a rank whose walk is not certified finite: its terms (zero
        weights included) have a factor value that is not finite, or
        ``sum max(1, |lambda|) prod_s max(1, max |g|)`` over them is not below
        half the largest float, or the grid is past ``_NODE_LIMIT``.  Every
        product and partial sum of a certified walk is below that sum, so its
        norm is never NaN, and it is 0.0 when every weight of the residual
        is 0.  An empty residual is certified: ``moments`` returns 0.0
        without a walk.
        """
        keys = sorted(self.lam, key=max, reverse=True)     # each residual is a leading run
        runs = [sum(max(k) > m for k in keys) for m in range(1, M_max + 1)]
        rules = [fam.rule for fam in self.factors]
        if not keys or math.prod(x.size for x, _ in rules) > _NODE_LIMIT:
            return [0.0 if run == 0 else None for run in runs]
        lam = np.array([self.lam[k] for k in keys])
        gram = np.ones((lam.size, lam.size))
        size = np.maximum(1.0, np.abs(lam))
        slack = (self.d * (max(x.size for x, _ in rules) + 2) + 2 * lam.size) * 2.0 ** -50
        with np.errstate(over="ignore", invalid="ignore"):
            for rows, w in self._term_rows(keys):
                gram *= (rows * w) @ rows.T
                size *= np.maximum(1.0, np.abs(rows).max(axis=1))
            squares = np.cumsum(np.cumsum(lam[:, None] * gram * lam, axis=0), axis=1).diagonal()
            d2 = np.cumsum(np.abs(lam) * np.sqrt(gram.diagonal()))
            l2_sq = squares - slack * d2 * d2
            certified = 2.0 * np.cumsum(size) < math.inf
        return [0.0 if run == 0 else None if not certified[run - 1]
                else math.sqrt(l2_sq[run - 1]) if l2_sq[run - 1] > 2.0 ** -1000 else 0.0
                for run in runs]

    def digest_payload(self):
        return kernel_to_json(self)


# ---------------------------------------------------------------------------
# tabulated two-variable kernels and their weighted SVD
# ---------------------------------------------------------------------------


def _legendre01(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


@dataclass
class TabulatedKernel:
    """A kernel f(x, y) sampled on weighted grids (discrete surrogate of the measures)."""

    x_nodes: np.ndarray
    x_weights: np.ndarray
    y_nodes: np.ndarray
    y_weights: np.ndarray
    values: np.ndarray

    d = 2

    def __post_init__(self):
        self.x_nodes = np.asarray(self.x_nodes, dtype=float)
        self.y_nodes = np.asarray(self.y_nodes, dtype=float)
        self.x_weights = np.asarray(self.x_weights, dtype=float)
        self.y_weights = np.asarray(self.y_weights, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        for w in (self.x_weights, self.y_weights):
            if np.any(w <= 0) or abs(w.sum() - 1.0) > 1e-8:
                raise ValueError("grid weights must be positive and sum to 1 per axis")
        if self.values.shape != (self.x_nodes.size, self.y_nodes.size):
            raise ValueError("value grid shape must match the node grids")

    @classmethod
    def from_function(cls, fun, n: int = 64) -> "TabulatedKernel":
        """Sample ``fun`` on Gauss-Legendre grids over [0, 1] x [0, 1]."""
        x, wx = _legendre01(n)
        y, wy = _legendre01(n)
        vals = fun(x[:, None], y[None, :])
        return cls(x, wx, y, wy, vals)

    def moment(self, p: float) -> float:
        return _lp_norm([(self.values.copy(), self._log_weights, None)], [p])[0]

    def spectral(self):
        """Weighted singular value decomposition ``(singular_values, left, right)``.

        Values descend and the factor tables are orthonormal under the grid
        weights.  For a symmetric PSD kernel this is its Karhunen-Loeve
        eigendecomposition and left and right factors coincide up to sign.
        """
        return self._svd

    @cached_property
    def _svd(self):
        rx = np.sqrt(self.x_weights)
        ry = np.sqrt(self.y_weights)
        a = rx[:, None] * self.values * ry[None, :]
        u, s, vt = np.linalg.svd(a, full_matrices=False)
        left = u.T / rx[None, :]
        right = vt / ry[None, :]
        # sign convention: first nonzero component of the left factor positive
        for i in range(left.shape[0]):
            nz = np.nonzero(np.abs(left[i]) > 1e-13)[0]
            if nz.size and left[i, nz[0]] < 0:
                left[i] = -left[i]
                right[i] = -right[i]
        return s, left, right

    @cached_property
    def head(self) -> DegenerateKernel:
        """The whole weighted SVD as a degenerate kernel, ``lambda(k, k) = s_k``.

        Its rank-M truncation is the best rank-M approximation in the weighted
        L2 norm (Eckart-Young); for p != 2 it is a computable surrogate, not a
        certified optimum.
        """
        s, left, right = self.spectral()
        fam_x = tabulated_family(self.x_nodes, left, self.x_weights)
        fam_y = tabulated_family(self.y_nodes, right, self.y_weights)
        lam = {(k + 1, k + 1): float(s[k]) for k in range(s.size)}
        return DegenerateKernel(2, lam, [fam_x, fam_y])

    def residual_norms(self, M: int, p_grid) -> list:
        """``Q_{M,p}`` at each p of ``p_grid``: the weighted L_p norm of the rank-M residual.

        The residual is ``values`` minus the rank-M truncation: 0 at or above
        the numerical rank.  At p = 2 it is the Frobenius-style tail
        ``sqrt(sum_{k>M} s_k**2)``; the trace-style tail is ``sum(s[M:])``.
        Every other p is read off one walk of the residual grid.
        """
        s, left, right = self.spectral()
        if M >= int(np.sum(s > s[0] * 1e-13)):
            return [0.0] * len(p_grid)
        others = [p for p in p_grid if p != 2.0]
        if others:
            recon = (left[:M].T * s[:M]) @ right[:M]
            norms = iter(_lp_norm([(self.values - recon, self._log_weights, None)], others))
        return [math.sqrt(np.sum(s[M:] ** 2)) if p == 2.0 else next(norms) for p in p_grid]

    @property
    def _log_weights(self):
        return [np.log(self.x_weights)[:, None], np.log(self.y_weights)]

    def digest_payload(self):
        arrays = (self.x_nodes, self.x_weights, self.y_nodes, self.y_weights, self.values)
        blob = b"".join(np.ascontiguousarray(a, dtype="<f8").tobytes() for a in arrays)
        return {"shape": list(self.values.shape), "sha256": hashlib.sha256(blob).hexdigest()}


# ---------------------------------------------------------------------------
# JSON schema
# ---------------------------------------------------------------------------


def orthonormal_factors(factors) -> bool:
    """Whether every factor is analytic, hence centered and orthonormal under its base law."""
    return all(fam.canonical_base is not None for fam in factors)


def _factors_to_json(factors) -> dict:
    """``{factors: [{kind, params}], orthonormal}``; only tabulated factors have params."""
    return {"factors": [{"kind": fam.kind,
                         "params": {"nodes": fam.nodes.tolist(), "table": fam.table.tolist(),
                                    "weights": fam.weights.tolist()}
                         if fam.kind == "tabulated" else {}} for fam in factors],
            "orthonormal": orthonormal_factors(factors)}


def _factors_from_json(entries) -> list:
    """The factor families of a ``[{kind, params}]`` list, as ``_factors_to_json`` writes it."""
    return [tabulated_family(e["params"]["nodes"], e["params"]["table"], e["params"]["weights"])
            if e["kind"] == "tabulated" else FactorFamily(e["kind"]) for e in entries]


def kernel_to_json(kernel: DegenerateKernel) -> dict:
    """Schema: {d, factors: [{kind, params}], lambda: [{k, w}], orthonormal}."""
    lam = [{"k": list(k), "w": w} for k, w in sorted(kernel.lam.items())]
    return {"d": kernel.d, **_factors_to_json(kernel.factors), "lambda": lam}


def _finite_number(x) -> bool:
    """Whether ``x`` is a finite number: not a bool (JSON's true), a string, NaN or Infinity."""
    try:
        return not isinstance(x, bool) and math.isfinite(x)
    except (TypeError, OverflowError):
        return False


def _json_weight(row: dict):
    """A lambda row's ``w``: a finite JSON number."""
    w = row["w"]
    if not _finite_number(w):
        raise ValueError(f"lambda field 'w' must be a finite number, got {w!r}")
    return w


def kernel_from_json(obj: dict) -> DegenerateKernel:
    factors = _factors_from_json(obj["factors"])
    lam = {}
    for row in obj["lambda"]:
        kvec = tuple(row["k"])
        if kvec in lam:
            raise ValueError(f"lambda row k={list(kvec)} is repeated")
        lam[kvec] = _json_weight(row)
    return DegenerateKernel(_json_int(obj["d"], "kernel dimension 'd'"), lam, factors)
