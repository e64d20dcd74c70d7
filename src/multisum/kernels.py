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

from ._special import eval_laguerre, gammaln
from .index_sets import _int_array

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
_SLAB_FLOATS = 1 << 17     # values per quadrature slab: 1 MiB, cache-sized
_NODE_LIMIT = 1 << 31      # largest tensor grid a moment walks
_EXP_FLOOR = -708.0        # exp below this is subnormal or 0


# ---------------------------------------------------------------------------
# quadrature rules per canonical base distribution
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def quadrature_rule(base: str):
    """(nodes, weights) integrating exactly against the base probability law.

    Gauss-Hermite for the standard normal, the two-point rule for Rademacher,
    truncated pmf nodes for the compensated Poisson, Gauss-Laguerre shifted to
    the compensated exponential.  Nodes are expressed in the same coordinates
    the factor families consume.
    """
    if base == "standard_normal":
        x, w = np.polynomial.hermite_e.hermegauss(_GAUSS_NODE_COUNT)
        w = w / math.sqrt(2.0 * math.pi)
    elif base == "rademacher":
        x = np.array([-1.0, 1.0])
        w = np.array([0.5, 0.5])
    elif base == "compensated_poisson":
        k = np.arange(_POISSON_NODE_COUNT)
        x = k - 1.0
        w = np.exp(-1.0 - gammaln(k + 1.0))
    elif base == "centered_exponential":
        t, w = np.polynomial.laguerre.laggauss(_GAUSS_NODE_COUNT)
        x = t - 1.0
    else:
        raise ValueError(f"no quadrature rule for base distribution '{base}'")
    x = x.copy(); w = w.copy()
    x.flags.writeable = False; w.flags.writeable = False
    return x, w


def _lp_norm(slabs, p_grid) -> list:
    """``(sum w |v|**p)**(1/p)`` at each p of ``p_grid``, by running log-sum-exps over one walk.

    Each slab is ``(vals, log_weights)``: a block of grid values, overwritten
    here, and arrays that broadcast against it and add up to the block's
    ``log w``.  ``log|v|`` is taken once per slab; then, for each p in turn,
    ``p log|v| + log w`` is formed in one reused slab-sized buffer (in
    ``vals`` itself for the last p) and added to that p's sum, with the float
    operations a walk at that p alone would make, so each norm is the one-p
    norm bit for bit.  Neither ``|v|**p`` nor ``w`` is formed, so large
    values at high p cannot overflow and tiny weights cannot underflow to 0.
    ``exp`` runs only where ``p log|v| + log w`` is within ``-_EXP_FLOOR`` of
    the largest so far: below that a term is subnormal or 0 and cannot move a
    sum whose largest term is 1.  A NaN or infinite value makes a p's norm
    NaN, and the walk stops once every p is NaN; an all-zero grid gives 0.
    """
    top = [-math.inf] * len(p_grid)
    total = [0.0] * len(p_grid)
    live = list(range(len(p_grid)))
    buf = np.empty(0)
    for vals, log_weights in slabs:
        with np.errstate(divide="ignore"):
            np.log(np.abs(vals, out=vals), out=vals)
        if buf.size < vals.size and len(live) > 1:
            buf = np.empty(vals.size)
        for i in live:
            out = vals if i == live[-1] else buf[:vals.size].reshape(vals.shape)
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


def _recurrence_rows(kmax: int, first: np.ndarray, coef, norm: np.ndarray, buffers=None):
    """Rows 1..kmax of ``p_{k+1} = coef(k) * p_k - k * p_{k-1}`` (``p_0 = 1``, ``p_1 = first``).

    Row k is yielded as ``norm[k] * p_k``, valid until the next row: ``p_k``
    itself where ``norm[k]`` is 1.0 (an exact product), else the last of the
    three ``buffers`` (arrays of first's shape, made here when absent).  The
    recurrence runs in place in the other two and never writes ``first``; its
    first step subtracts the scalar ``p_0 = 1``.
    """
    a, b, row = buffers if buffers is not None else [np.empty_like(first) for _ in range(3)]
    prev, cur = None, first
    for k in range(1, kmax + 1):
        yield cur if norm[k] == 1.0 else np.multiply(cur, norm[k], out=row)
        if k == kmax:
            return
        np.multiply(coef(k), cur, out=row)
        if prev is None:
            nxt = np.subtract(row, 1.0, out=a)
        else:
            scaled = np.multiply(prev, k, out=b if prev is first else prev)
            nxt = np.subtract(row, scaled, out=scaled)
        prev, cur = cur, nxt


def _hermite_rows(kmax: int, x: np.ndarray, buffers=None):
    """Normalized probabilists' Hermite polynomials, from the monic recurrence."""
    norm = np.exp(-0.5 * gammaln(np.arange(kmax + 1) + 1.0))
    return _recurrence_rows(kmax, x, lambda k: x, norm, buffers)


def _charlier_rows(kmax: int, x: np.ndarray, buffers=None):
    """Normalized Charlier polynomials (a = 1) on the compensated count x = n - 1."""
    n = x + 1.0
    norm = (-1.0) ** np.arange(kmax + 1) * np.exp(-0.5 * gammaln(np.arange(kmax + 1) + 1.0))
    return _recurrence_rows(kmax, 1.0 - n, lambda k: k + 1.0 - n, norm, buffers)


def _sign_rows(kmax: int, x: np.ndarray, buffers=None):
    """The sign family's single member, the identity."""
    if kmax > 1:
        raise ValueError("the sign family has a single member (k = 1)")
    return [x][:kmax]


def _laguerre_rows(kmax: int, x: np.ndarray, buffers=None):
    """Signed Laguerre polynomials on the compensated value x = t - 1."""
    t = x + 1.0
    return ((-1.0) ** k * eval_laguerre(k, t) for k in range(1, kmax + 1))


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
            return _lp_norm([(self.evaluate(k, x), [np.log(w)])], [p])[0]
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
    orthonormal: bool = False

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
        products of the trailing rows).  The leading nodes are walked in
        slabs of at most ``_SLAB_FLOATS`` values (one row at least): one
        ``matmul`` into a reused buffer, then one step of ``_lp_norm``, which
        takes ``log|v|`` once and serves every p, so each value is the one-p
        call's bit for bit.  Working memory is the two factors,
        ``T * (n_lead + n_trail)`` floats for T terms, plus about two slabs
        (three for more than one p): 64 nodes on each of 4 axes peak near
        2.4 MiB, where the whole grid would take 128 MiB.  A grid of more
        than ``_NODE_LIMIT`` (2**31) nodes is a ValueError, raised before any
        work.
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
        step = max(1, _SLAB_FLOATS // right.shape[1])
        buf = np.empty((min(step, left.shape[0]), right.shape[1]))

        def slabs():
            for start in range(0, left.shape[0], step):
                out = buf[:min(step, left.shape[0] - start)]
                np.matmul(left[start:start + step], right, out=out)
                yield out, [log_left[start:start + step, None], log_right]

        return _lp_norm(slabs(), p_grid)

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
        return _lp_norm([(self.values.copy(), self._log_weights)], [p])[0]

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
        return DegenerateKernel(2, lam, [fam_x, fam_y], orthonormal=True)

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
            norms = iter(_lp_norm([(self.values - recon, self._log_weights)], others))
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


def _factors_to_json(factors) -> list:
    """``[{kind, params}]``, one entry per axis; only tabulated factors have params."""
    return [{"kind": fam.kind,
             "params": {"nodes": fam.nodes.tolist(), "table": fam.table.tolist(),
                        "weights": fam.weights.tolist()} if fam.kind == "tabulated" else {}}
            for fam in factors]


def _factors_from_json(entries) -> list:
    """The factor families of a ``[{kind, params}]`` list, as ``_factors_to_json`` writes it."""
    return [tabulated_family(e["params"]["nodes"], e["params"]["table"], e["params"]["weights"])
            if e["kind"] == "tabulated" else FactorFamily(e["kind"]) for e in entries]


def kernel_to_json(kernel: DegenerateKernel) -> dict:
    """Schema: {d, factors: [{kind, params}], lambda: [{k, w}], orthonormal}."""
    lam = [{"k": list(k), "w": w} for k, w in sorted(kernel.lam.items())]
    return {"d": kernel.d, "factors": _factors_to_json(kernel.factors), "lambda": lam,
            "orthonormal": kernel.orthonormal}


def _json_weight(row: dict):
    """A lambda row's ``w``: a finite JSON number, not a bool, a string or NaN."""
    w = row["w"]
    try:
        ok = not isinstance(w, bool) and math.isfinite(w)
    except (TypeError, OverflowError):
        ok = False
    if not ok:
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
    return DegenerateKernel(obj["d"], lam, factors,
                            orthonormal=bool(obj.get("orthonormal", False)))
