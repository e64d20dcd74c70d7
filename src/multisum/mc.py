"""Seeded Monte Carlo for normalized multi-indexed sums and their chaos limits.

Randomness is counter-based: every uniform variate is addressed by
``(seed, stream tag, axis, replication, coordinate)`` through a Philox
counter, so results are bit-identical no matter how replications are split
across workers or how large a batch is requested.  All sampling is inverse
CDF on those uniforms.  A family of index sets is sampled in one pass from
one stream (``simulate_family``): per replication each axis draws the
family's widest side, ``max_L axis_max(L)`` coordinates (``_columns``), so
replication r owns the positions ``[r * stride, (r + 1) * stride)`` with
``stride = _stride`` of that count, and every set sums its own cells of those
draws.  The sets of a family are thus coupled by common random numbers, each
with its own law, and a one-set family reads just what its set alone reads.

The normalized sum over an index set L is ``S_L = |L|**-0.5 *
sum_{k in L} f(xi_{k_1}(1), ..., xi_{k_d}(d))``.  Every L is a disjoint union
of lattice boxes (corner rows ``IndexSet.lo``, ``IndexSet.hi``), and over one
box the sum factorizes: per axis, a slice sum ``F_s[k] = sum_{i in box_s}
g_k(xi_i(s))`` of the factor values, then ``sum_k lambda(k) prod_s F_s[k_s]``.
One contraction sums that over the boxes, costing O(rank * boxes * sum n_s)
instead of O(rank * |L|).  It stops short of the weights: it writes the T
per-term cores ``sum_B prod_s F_s[k_s]``, one per multi-index, and a grid
point's values are their weighted sum (``_weigh``).  So a parametric field
``Q_L(v)`` has rank T whatever ``|V|``, ``S_L`` is its ``|V| = 1`` row, and a
check that walks the grid point by point keeps only the T cores.  The
Gaussian-chaos limit ``sum_k lambda(k) prod_s beta_s[k_s]`` is the same
contraction over one single-cell box whose slice sums are fresh standard
normal draws per replication.

No factor table is built: each factor family yields its rows ``g_1, g_2, ...``
one at a time (``FactorFamily.rows``), and every row is slice-summed into the
per-box sums as soon as it exists.  A replication therefore holds O(sum n_s)
floats whatever the rank.  Replications run in blocks (``_block_cap``) whose
widest axis row fits a share of the cache, since a block is walked once per
layer (uniforms, inverse CDF, each factor row); a set of many boxes makes
blocks larger, so that the NumPy calls, whose count per block is fixed, do
not dominate; and ``_BLOCK_BUDGET`` caps them.  Each worker samples its
blocks through buffers it allocates once.  The variates are
counter-addressed, so block size moves no bit.

Each simulated distribution carries a provenance digest of its inputs
(kernel, index set, axis laws, N, seed); the index set enters by its JSON,
which names an explicit set by its boxes, never its cells.
"""

from __future__ import annotations

import hashlib
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ._special import gammaln, ndtri
from .index_sets import IndexSet
from .kernels import _lp_norm, kernel_to_json, quadrature_rule

__all__ = [
    "RngSpec",
    "AxisDistribution",
    "EmpiricalDist",
    "compute_S_L",
    "simulate_S_L",
    "simulate_family",
    "sample_S_infty",
    "empirical_moment",
    "empirical_tail",
    "load_empirical",
]

TAG_AXIS = 1      # axis sample streams
TAG_BETA = 2      # limit-field Gaussian streams

_POISSON_NODES = quadrature_rule("compensated_poisson")[0]
_POISSON_CDF = np.cumsum(quadrature_rule("compensated_poisson")[1])

# Replications per block (``_block_cap``).  A block walks each of its arrays
# several times (uniforms, inverse CDF, factor rows, side sums), so its widest
# axis row should stay in cache: _CACHE_FLOATS doubles, a share of a 2 MiB L2.
# But part of a block's cost is per call, not per float: its NumPy calls (one
# per factor row and distinct box side, one per term, box and axis of the
# contraction).  Where those would dominate, on sets of many boxes, a block
# grows to _FLOATS_PER_CALL floats per call.  Weighing the cores into grid
# points is not counted: a field that keeps its rows weighs them per block,
# and a larger block would only make its rows' strided slices larger.
# _BLOCK_BUDGET, the floats one block may hold, caps both and peak memory.
_CACHE_FLOATS = 1 << 16
_FLOATS_PER_CALL = 1 << 13
_BLOCK_BUDGET = 1 << 22


@dataclass(frozen=True)
class RngSpec:
    """Counter-based random stream policy rooted at a 64-bit seed.

    Stream key = (seed, tag, axis); within a stream, replication r owns the
    double positions [r * stride, (r + 1) * stride) where stride is the
    column count rounded up to a multiple of 4 (one Philox counter step
    yields 4 doubles, so chunks of replications can jump exactly).
    """

    seed: int

    def __post_init__(self):
        if not (0 <= int(self.seed) < 2 ** 64):
            raise ValueError("seed must fit in 64 bits")

    def child(self, index: int) -> "RngSpec":
        """Derived independent stream root; deterministic in (seed, index)."""
        mixed = (self.seed * 0x9E3779B97F4A7C15 + (index + 1) * 0xD1B54A32D192ED03) % 2 ** 64
        return RngSpec(mixed)

    def uniform_block(self, tag: int, axis: int, rep_start: int, rep_count: int,
                      ncols: int, out: np.ndarray | None = None) -> np.ndarray:
        """Uniforms of shape (rep_count, ncols), positions keyed by (rep, col).

        ``out``, a C-contiguous float array of ``_stride(ncols)`` columns and at
        least ``rep_count`` rows, receives them instead of a fresh array; the
        result is then a view of its leading rows.
        """
        stride = _stride(ncols)
        key = np.array([self.seed, (int(tag) << 32) | int(axis)], dtype=np.uint64)
        bg = np.random.Philox(key=key)
        bg.advance(rep_start * stride // 4)
        if out is None:
            u = np.random.Generator(bg).random((rep_count, stride))
        elif out.shape[1] != stride or out.shape[0] < rep_count:
            raise ValueError(f"a uniform buffer for {rep_count} x {ncols} needs {stride} columns"
                             f" and {rep_count} rows")
        else:
            u = np.random.Generator(bg).random(out=out[:rep_count])
        return u[:, :ncols]


def _stride(ncols: int) -> int:
    """Doubles one replication owns in a stream: ``ncols`` rounded up to a Philox step of 4."""
    return 4 * ((ncols + 3) // 4)


@dataclass(frozen=True)
class AxisDistribution:
    """Sampling law of one axis' variables.

    Centering lives in the kernel factors, not here, but every listed kind
    happens to be symmetric or compensated and hence mean zero itself.  The
    log-Weibull kind is the symmetric law with ``P(|xi| > y) =
    exp(-ln(1+y)**(1 + 1/beta))``.
    """

    kind: str
    beta: float | None = None

    def __post_init__(self):
        kinds = {"standard_normal", "rademacher", "centered_exponential",
                 "compensated_poisson", "log_weibull"}
        if self.kind not in kinds:
            raise ValueError(f"unknown axis distribution '{self.kind}'")
        if self.kind == "log_weibull":
            if not (self.beta and self.beta > 0):
                raise ValueError("log_weibull requires beta > 0")
            # one law, one digest: a beta of 2 and of 2.0 are the same law
            object.__setattr__(self, "beta", float(self.beta))

    @property
    def uniforms_per_coord(self) -> int:
        return 2 if self.kind == "log_weibull" else 1

    def transform(self, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Inverse-CDF map from uniforms; pairs of columns for two-uniform kinds.

        Uniforms are clipped to ``[2**-60, 1 - 2**-53]`` first.  Without ``out``
        the input is left alone.  With ``out`` the values are written there
        and ``u`` is scratch: ``out`` may be ``u`` itself or, for a two-uniform
        kind, ``u``'s even columns, so a block is transformed in place.
        """
        if out is None:
            u = np.array(u, dtype=float)
            out = u[..., ::self.uniforms_per_coord]
        if self.kind == "rademacher":     # the clip never moves a uniform across 0.5
            return np.copysign(1.0, np.subtract(u, 0.5, out=out), out=out)
        if self.kind == "log_weibull":
            # magnitude from even columns, sign from odd columns
            v = np.clip(u[..., 0::2], 2.0 ** -60, 1.0 - 2.0 ** -53, out=out)
            np.log1p(np.negative(v, out=v), out=v)
            np.negative(v, out=v)
            v **= self.beta / (1.0 + self.beta)
            np.exp(v, out=v)
            v -= 1.0
            sign = np.subtract(u[..., 1::2], 0.5, out=u[..., 1::2])
            return np.copysign(v, sign, out=v)
        v = np.clip(u, 2.0 ** -60, 1.0 - 2.0 ** -53, out=out)
        if self.kind == "standard_normal":
            return ndtri(v, out=v)
        if self.kind == "centered_exponential":
            np.log1p(np.negative(v, out=v), out=v)
            np.negative(v, out=v)
            v -= 1.0
            return v
        # compensated_poisson: the clipped uniform lies below the last cdf value, 1.0
        return _POISSON_NODES.take(np.searchsorted(_POISSON_CDF, v), out=v, mode="clip")

    def sample_block(self, rng: RngSpec, axis: int, rep_start: int, rep_count: int,
                     ncols: int, tag: int = TAG_AXIS,
                     out: np.ndarray | None = None) -> np.ndarray:
        """Samples of shape (rep_count, ncols), transformed in place in their uniforms.

        ``out`` is the uniform buffer (see ``RngSpec.uniform_block``), so the
        result is a view of it.
        """
        u = rng.uniform_block(tag, axis, rep_start, rep_count,
                              ncols * self.uniforms_per_coord, out)
        return self.transform(u, out=u[:, ::self.uniforms_per_coord])

    def identity_moment(self, p: float) -> float:
        """``|xi|_p`` of the raw axis variable (the centered identity factor)."""
        if self.kind == "rademacher":
            return 1.0
        if self.kind == "standard_normal":
            return math.sqrt(2.0) * math.exp(
                (gammaln((p + 1.0) / 2.0) - 0.5 * math.log(math.pi)) / p)
        if self.kind == "centered_exponential":
            val = _quad(lambda t: abs(t - 1.0) ** p * math.exp(-t), 0, np.inf)
            return val ** (1.0 / p)
        if self.kind == "compensated_poisson":
            x, pmf = quadrature_rule("compensated_poisson")
            return _lp_norm([(x.copy(), [np.log(pmf)])], [p])[0]
        # log_weibull: p * int y^(p-1) P(|xi|>y) dy, integrated in u = ln(1+y)
        b = self.beta
        def integrand(u):
            y = math.expm1(u)
            return p * y ** (p - 1.0) * math.exp(u - u ** (1.0 + 1.0 / b))
        hi = max(10.0, (4.0 * p) ** (b / (b + 1.0)) + 20.0)
        val = _quad(integrand, 0, hi, limit=200)
        return val ** (1.0 / p)

    def to_json(self):
        if self.kind == "log_weibull":
            return {"kind": "log_weibull", "beta": self.beta}
        return self.kind


def _quad(f, lo: float, hi: float, **options) -> float:
    """``scipy.integrate.quad(f, lo, hi, **options)``'s value, importing it on first use.

    ``scipy.integrate`` loads ``scipy.optimize``, ``scipy.sparse`` and
    ``scipy.linalg`` with it, about a third of ``import multisum``, and only
    these two identity moments need it.
    """
    from scipy.integrate import quad
    return quad(f, lo, hi, **options)[0]


def axis_distribution_from_json(obj) -> AxisDistribution:
    if isinstance(obj, str):
        return AxisDistribution(obj)
    return AxisDistribution(obj["kind"], beta=obj.get("beta"))


# ---------------------------------------------------------------------------
# empirical distributions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EmpiricalDist:
    """Sorted replication batch of a scalar statistic with provenance."""

    values: np.ndarray
    provenance: str = ""
    seed: int | None = None

    def __post_init__(self):
        v = np.sort(np.asarray(self.values, dtype=float))
        if v.size < 1:
            raise ValueError("need at least one replication")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @classmethod
    def _sorted_in_place(cls, values: np.ndarray) -> "EmpiricalDist":
        """Sort the float array ``values`` in place and wrap a read-only view of it, uncopied.

        ``values`` must not be written while the result is in use.
        """
        values.sort()
        dist = cls.__new__(cls)
        object.__setattr__(dist, "values", values.view())
        dist.values.flags.writeable = False
        return dist

    @property
    def n(self) -> int:
        return int(self.values.size)

    def variance(self) -> float:
        return float(np.var(self.values, ddof=1)) if self.n > 1 else 0.0

    def variance_se(self) -> float:
        """Asymptotic delta-method standard error of the sample variance, kurtosis aware.

        It uses the sample fourth moment, which converges slowly when the law
        is heavy-tailed, so at small N it understates the spread: for diagonal
        Hermite kernels of degree up to 3 at N = 2000, 7% of 300 seeded runs
        fell more than 4 standard errors from the exact variance, the worst 8.9.
        """
        if self.n < 2:
            return 0.0
        x = self.values - self.values.mean()
        m2 = np.mean(x ** 2)
        m4 = np.mean(x ** 4)
        return float(math.sqrt(max(m4 - m2 ** 2, 0.0) / self.n))

    def quantile(self, q):
        return np.quantile(self.values, q)


def empirical_moment(dist: EmpiricalDist, p: float):
    """``(mean |x|^p)**(1/p)`` with its delta-method standard error."""
    if p < 1:
        raise ValueError("moment order must be >= 1")
    a = np.abs(dist.values) ** p
    m = float(a.mean())
    if m == 0.0:
        return 0.0, 0.0
    est = m ** (1.0 / p)
    se_m = float(a.std(ddof=1) / math.sqrt(dist.n)) if dist.n > 1 else 0.0
    return est, se_m * est / (p * m)


def empirical_tail(dist: EmpiricalDist, y: float) -> float:
    """Two-sided tail ``max(P(x >= y), P(x <= -y))`` under the empirical law."""
    if y < 0:
        raise ValueError("tail levels are nonnegative")
    v = dist.values
    right = v.size - np.searchsorted(v, y, side="left")
    left = np.searchsorted(v, -y, side="right")
    return max(right, left) / v.size


# positions per block of ``ks_distance``: on field-size pairs 24 and 32 cost about the same at
# shift 0 and more at shift 0.1; 8 costs about 1.5 times as much, 64 about 2.5 times
_KS_BLOCK = 16


def ks_distance(a: EmpiricalDist, b: EmpiricalDist) -> float:
    """Two-sample Kolmogorov-Smirnov sup-distance between empirical CDFs.

    Over a tie run of the smaller sample ``x`` (positions ``s..e`` holding
    one value) the CDF of ``x`` is constant and that of ``y`` is monotone,
    so the sup is reached just before the run (``x`` count ``s`` against
    the ``y`` below ``x[s]``) or at its end (``e + 1`` against the ``y`` up
    to and including ``x[e]``).  Each candidate is the float
    ``|k/n - c/m|`` that the sample points it stands for give.

    Only the positions that can hold the sup are searched.  The sorted
    positions of ``x`` are split into blocks of ``_KS_BLOCK``, and one
    binary search per distinct lead (a block's first value) counts the
    ``y`` below it (``head``).  A lead that begins a run is a candidate of
    these counts alone, so exact already; ``lo`` is the max of those.  Any
    other candidate of a block has an ``x`` count from ``first + 1`` to the
    block's end and a ``y`` count from its ``head`` to the next block's (or
    ``m``), and float division and subtraction are monotone, so ``hi``
    bounds it.  A block with ``hi < lo`` cannot hold the sup, and neither
    can a block whose lead is the next block's: it lies inside a run that
    goes on, so its only candidate is its lead.  So the float result is
    that of searching every position.  In each remaining block only run
    starts and ends are searched, once for the ``y`` below, and a run end
    again for the ``y`` up to it when a ``y`` ties it.  No array of the
    sample's size is formed.  On two samples of one law only the blocks
    near the sup are kept, and a sample of few values keeps about one block
    per run.

    A NaN has no place in a CDF, so a sample holding one is a ValueError;
    sorted, a NaN sits last, so one look at each sample's top finds it.
    """
    x, y = a.values, b.values
    if np.isnan(x[-1]) or np.isnan(y[-1]):
        raise ValueError("KS distance of a sample holding NaN")
    if x.size > y.size:
        x, y = y, x
    n, m = x.size, y.size
    lead = x[::_KS_BLOCK]
    k = lead.size
    edge = np.arange(0, n + _KS_BLOCK, _KS_BLOCK)        # block edges; the last block ends at n
    edge[k] = n
    new = np.empty(k + 1, bool)                          # lead j differs from lead j - 1
    new[0] = new[k] = True                               # (no lead follows the last block)
    np.not_equal(lead[1:], lead[:-1], out=new[1:k])
    head = np.searchsorted(y, lead[new[:k]], side="left")
    if head.size < k:                                    # a lead repeats: one count per block
        head = head[np.cumsum(new[:k]) - 1]
    f = edge / n
    h = np.empty(k + 1)
    np.divide(head, m, out=h[:k])
    h[k] = 1.0                                           # m / m after the last block
    begins = new[:k].copy()                              # leads that begin a tie run
    np.not_equal(x[_KS_BLOCK - 1:n - 1:_KS_BLOCK], lead[1:], out=begins[1:])
    lo = np.abs(f[:k] - h[:k])[begins].max()
    hi = np.maximum(f[1:] - h[:k], h[1:] - (edge[:k] + 1) / n)
    # kept: the bound reaches ``lo`` and the next lead differs
    pos = (edge[:k][(hi >= lo) & new[1:]][:, None] + np.arange(_KS_BLOCK)).ravel()
    pos = pos[pos < n]                                   # the positions of the kept blocks
    val = x[pos]
    nxt = np.minimum(pos + 1, n - 1)
    starts = val != x[pos - 1]                           # position 0 is in ``lo``
    ends = (val != x[nxt]) | (pos == nxt)
    cand = starts | ends
    pos, val, starts, ends = pos[cand], val[cand], starts[cand], ends[cand]
    below = np.searchsorted(y, val, side="left")
    upto = below.copy()
    tie = ends & ~(y[np.minimum(below, m - 1)] > val)
    upto[tie] = np.searchsorted(y, val[tie], side="right")
    at_start = np.abs(pos / n - below / m)[starts]
    at_end = np.abs((pos + 1) / n - upto / m)[ends]
    return float(max(at_start.max(initial=0.0), at_end.max(initial=0.0), lo))


# ---------------------------------------------------------------------------
# single-realization sums
# ---------------------------------------------------------------------------


def _terms(lam: dict):
    """The multi-indices of ``lam`` and its (|V|, T) weights, a row per grid point.

    A scalar weight is the ``|V| = 1`` field; an empty kernel is one point of no terms.
    """
    weights = np.array([np.ravel(w) for w in lam.values()], dtype=float).T
    return list(lam), weights if lam else np.zeros((1, 0))


def _kmax(kvecs, d: int) -> list:
    """Largest factor index per axis (1 for an empty kernel, whose sum is zero)."""
    return [max((k[axis] for k in kvecs), default=1) for axis in range(d)]


def _spans(sets, axis: int):
    """A family's distinct ``(lo, hi)`` box sides on one axis, sorted; per set, each box's index."""
    sides = [list(zip(L.lo[:, axis].tolist(), L.hi[:, axis].tolist())) for L in sets]
    index = {span: i for i, span in enumerate(sorted({s for boxes in sides for s in boxes}))}
    return list(index), [[index[side] for side in boxes] for boxes in sides]


def _box_sums(fam, kmax: int, x: np.ndarray, spans, inverse, buffers=None) -> list:
    """Per set and box, ``F[k - 1] = sum_{i in box_axis} g_k(x[:, i - 1])`` for k = 1..kmax.

    ``x`` holds one axis' samples, shape (reps, columns); each result has shape
    (kmax, reps).  Every factor row is slice-summed as soon as it exists, so no
    (kmax, reps, columns) table is ever built, and once per distinct side
    (``_spans``): boxes that share their side on this axis, in one set or
    across the family, share its sums.  ``buffers`` go to ``FactorFamily.rows``.
    """
    sums = np.empty((len(spans), kmax, x.shape[0]))
    for k, row in enumerate(fam.rows(kmax, x, buffers)):
        for (lo, hi), out in zip(spans, sums):
            row[:, lo - 1:hi].sum(axis=1, out=out[k])
    return [[sums[i] for i in boxes] for boxes in inverse]


def _contract(sums, kvecs, out: np.ndarray) -> np.ndarray:
    """Per term t, the core ``sum_B prod_s sums[B][s][k_s - 1]``, written into ``out[t]``.

    ``sums[B][s]`` is box B's slice sum on axis s, shape (kmax_s, reps), and
    ``out`` has shape (T, reps), a row per multi-index of ``kvecs``.  The cores
    are unweighted: every grid point of a field is a weighted sum of the same
    T cores (``_weigh``).
    """
    for kvec, core in zip(kvecs, out):
        for b, box_sums in enumerate(sums):
            term = box_sums[0][kvec[0] - 1]
            for axis in range(1, len(kvec)):
                term = term * box_sums[axis][kvec[axis] - 1]
            if b:
                core += term
            else:
                core[...] = term
    return out


def _weigh(cores, w, out: np.ndarray, scratch=None) -> np.ndarray:
    """One grid point's values ``0.0 + w[0] * cores[0] + w[1] * cores[1] + ...`` into ``out``.

    The terms are added in this order everywhere, so a point's values are the
    same floats whichever path weighs it.  The leading ``0.0 +``, taken as
    ``cores[0] * w[0] + 0.0`` (the same float, -0.0 included), makes a sum of
    no terms 0.0.  ``scratch``, shaped like ``out``, holds each later term; a
    fresh one is made per term when absent, and one term needs none.
    """
    if not len(w):
        out[...] = 0.0
        return out
    np.multiply(cores[0], w[0], out=out)
    out += 0.0
    for core, wt in zip(cores[1:], w[1:]):
        out += np.multiply(core, wt, out=scratch)
    return out


def _field_sums(factors, kmax, sides, samples, rows=None) -> list:
    """Per set, ``sums[B][s]`` for ``_contract``; per axis, (reps, columns) samples and ``_spans``.

    ``rows``, three flat buffers of at least reps x columns floats, hold every
    axis' factor rows in turn; fresh ones are made when absent.
    """
    per_axis = []
    for fam, k, x, spans in zip(factors, kmax, samples, sides):
        buffers = None if rows is None else [r[:x.size].reshape(x.shape) for r in rows]
        per_axis.append(_box_sums(fam, k, x, *spans, buffers))
    return [list(zip(*per_set)) for per_set in zip(*per_axis)]


def compute_S_L(kernel, L: IndexSet, axis_samples) -> float:
    """Normalized sum for one realization of the axis samples.

    The set is contracted box by box: per box and axis, one slice sum of the
    factor values, multiplied across axes and summed over the boxes.  A
    rectangle is a single box, so it costs O(rank * sum n_s) rather than the
    O(rank * prod n_s) of summing cell by cell.
    """
    for axis in range(kernel.d):
        if L.axis_max(axis) > len(axis_samples[axis]):
            raise ValueError(f"axis {axis} samples do not cover the index set")
    kvecs, weights = _terms(kernel.lam)
    samples = [np.asarray(x, dtype=float)[None, :] for x in axis_samples]
    sums, = _field_sums(kernel.factors, _kmax(kvecs, kernel.d),
                        [_spans([L], axis) for axis in range(L.d)], samples)
    cores = _contract(sums, kvecs, np.empty((len(kvecs), 1)))
    return float(_weigh(cores, weights[0], np.empty(1))[0]) / math.sqrt(L.size)


# ---------------------------------------------------------------------------
# replicated simulation
# ---------------------------------------------------------------------------


def _provenance(kind, kernel, L, dists, n, seed, columns=None) -> str:
    """First 16 hex digits of the sha256 of ``json.dumps(payload, sort_keys=True)``.

    The payload names the index set by its JSON, which lists an explicit
    set's boxes, so the hash costs O(boxes) whatever ``|L|``.  A set sampled
    with a family reads the family's per-axis ``columns`` of each stream, so
    they enter the payload when they differ from the set's own ``axis_max``.
    """
    payload = {
        "kind": kind,
        "kernel": kernel_to_json(kernel) if hasattr(kernel, "factors") else kernel,
        "L": L.to_json() if L is not None else None,
        "dists": [d.to_json() for d in dists] if dists else None,
        "N": n,
        "seed": seed,
    }
    if columns is not None:
        payload["columns"] = columns
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]


def _block_cap(floats_per_rep: int, widest: int, calls: int) -> int:
    """Replications per block: cache-sized, unless NumPy calls would dominate, within the budget.

    ``widest`` is the widest axis row one replication adds to a block (its
    uniforms, which the inverse CDF and the factor rows walk again) and
    ``calls`` the NumPy calls one block makes whatever its size.
    """
    cache = _CACHE_FLOATS // widest
    amortized = -(-_FLOATS_PER_CALL * calls // floats_per_rep)
    return max(1, min(max(cache, amortized), _BLOCK_BUDGET // floats_per_rep))


def _run_blocks(sampler, N, nrows, workers):
    """C-contiguous (nrows, N) array, filled block by block.

    ``sampler`` is ``(make_batch, block_cap)``.  ``make_batch(cap)`` allocates
    the buffers for blocks of up to ``cap`` replications and returns
    ``batch(start, count, out)``, which samples one block through them into
    ``out``.  Each worker chunk, a run of
    replications in order, makes its own batch once, at the chunk's block
    size, and reuses it.  A block fills columns ``[start, start + count)`` of every row.
    """
    if N < 1:
        raise ValueError("need at least one replication")
    make_batch, block_cap = sampler
    out = np.empty((nrows, N))
    edges = np.linspace(0, N, num=max(1, int(workers)) + 1, dtype=int)
    chunks = [(int(a), int(b)) for a, b in zip(edges[:-1], edges[1:]) if b > a]

    def run_chunk(bounds):
        a, b = bounds
        cap = min(block_cap, b - a)
        batch = make_batch(cap)
        for start in range(a, b, cap):
            count = min(cap, b - start)
            batch(start, count, out[:, start:start + count])

    if len(chunks) <= 1:
        for c in chunks:
            run_chunk(c)
    else:
        with ThreadPoolExecutor(max_workers=len(chunks)) as pool:
            list(pool.map(run_chunk, chunks))
    return out


def _columns(sets, d: int) -> list:
    """Per axis, the columns one replication of a family draws: its sets' largest ``axis_max``."""
    return [max(L.axis_max(axis) for L in sets) for axis in range(d)]


def _sum_sampler(factors, kvecs, sets, dists, rng):
    """``(make_batch, block_cap)`` of the T unnormalized cores of each set of a family's sums.

    A block's output holds T rows per set, in the family's order.  The family
    reads one stream: per replication each axis draws ``_columns`` variates,
    each factor row is made once over them, and each distinct box side of the
    whole family is slice-summed once, so a one-set family reads what that
    set alone would.
    """
    d = len(factors)
    if not sets:
        raise ValueError("need at least one index set")
    for L in sets:
        if L.d != d:
            raise ValueError(f"index set has dimension {L.d}, the kernel {d}")
    if len(dists) != d:
        raise ValueError("need one axis distribution per kernel axis")
    kmax = _kmax(kvecs, d)
    ncols = _columns(sets, d)
    strides = [_stride(n * dist.uniforms_per_coord) for n, dist in zip(ncols, dists)]
    sides = [_spans(sets, axis) for axis in range(d)]
    T = len(kvecs)

    def make_batch(cap):
        uniforms = [np.empty((cap, stride)) for stride in strides]
        rows = np.empty((3, cap * max(ncols)))

        def batch(rep_start, rep_count, out):
            samples = (dist.sample_block(rng, axis, rep_start, rep_count, n, out=u)
                       for axis, (dist, n, u) in enumerate(zip(dists, ncols, uniforms)))
            for i, sums in enumerate(_field_sums(factors, kmax, sides, samples, rows)):
                _contract(sums, kvecs, out[i * T:(i + 1) * T])

        return batch

    # per axis: uniforms, three row buffers and a temporary, side sums; plus T cores per set
    per_rep = sum(n * (dist.uniforms_per_coord + 4) + len(spans) * k
                  for (spans, _), n, k, dist in zip(sides, ncols, kmax, dists)) + len(sets) * T
    # a slice sum per factor row and distinct side; per term, a product per box and axis
    calls = (sum(len(spans) * k for (spans, _), k in zip(sides, kmax))
             + T * sum(len(L.lo) for L in sets) * d)
    return make_batch, _block_cap(per_rep, max(strides), calls)


def _limit_sampler(kvecs, d, rng):
    """``(make_batch, block_cap)`` of the T chaos-limit cores; betas are a one-cell box's sums."""
    kmax = _kmax(kvecs, d)
    normal = AxisDistribution("standard_normal")

    def make_batch(cap):
        uniforms = [np.empty((cap, _stride(k))) for k in kmax]

        def batch(rep_start, rep_count, out):
            betas = [normal.sample_block(rng, axis, rep_start, rep_count, k, TAG_BETA, u).T
                     for axis, (k, u) in enumerate(zip(kmax, uniforms))]
            _contract([betas], kvecs, out)

        return batch

    per_rep = sum(3 * k for k in kmax) + len(kvecs)    # uniforms, contraction products; cores
    return make_batch, _block_cap(per_rep, max(_stride(k) for k in kmax), len(kvecs) * d)


def _weighed(sampler, weights, roots=None):
    """``sampler``'s cores weighed per block into a row per grid point, a block of rows per set.

    Set i's T cores give rows ``[i |V|, (i + 1) |V|)``, divided by its
    ``roots[i]``, ``sqrt|L|``; the limit, with no ``roots``, is one block
    left undivided.  Only one block's cores are held, so a kept field costs
    no T x N floats more.
    """
    make_cores, block_cap = sampler
    nv, T = weights.shape
    roots = roots or [None]

    def make_batch(cap):
        cores_of, cores = make_cores(cap), np.empty((len(roots) * T, cap))
        scratch = np.empty(cap if T > 1 else 0)    # a second term's products

        def batch(rep_start, rep_count, out):
            cores_of(rep_start, rep_count, cores[:, :rep_count])
            for i, root in enumerate(roots):
                rows, set_cores = out[i * nv:(i + 1) * nv], cores[i * T:(i + 1) * T, :rep_count]
                for w, row in zip(weights, rows):
                    _weigh(set_cores, w, row, scratch[:rep_count])
                if root is not None:
                    np.divide(rows, root, out=rows)

        return batch

    return make_batch, block_cap


def _sum_cores(factors, kvecs, sets, dists, N, rng, workers) -> list:
    """Per set of the family, its (T, N) unnormalized cores, a row per multi-index of ``kvecs``."""
    sampler = _sum_sampler(factors, kvecs, sets, dists, rng)
    return np.split(_run_blocks(sampler, N, len(sets) * len(kvecs), workers), len(sets))


def _sum_field(factors, lam, sets, dists, N, rng, workers) -> list:
    """Per set of the family, its (|V|, N) normalized sums, a row per grid point, in one pass."""
    kvecs, weights = _terms(lam)
    sampler = _weighed(_sum_sampler(factors, kvecs, sets, dists, rng), weights,
                       [math.sqrt(L.size) for L in sets])
    return np.split(_run_blocks(sampler, N, len(sets) * len(weights), workers), len(sets))


def _limit_cores(kvecs, d, N, rng, workers) -> np.ndarray:
    """(T, N) chaos-limit cores, a row per multi-index of ``kvecs``."""
    return _run_blocks(_limit_sampler(kvecs, d, rng), N, len(kvecs), workers)


def _limit_field(lam, d, N, rng, workers) -> np.ndarray:
    """(|V|, N) chaos-limit values, a row per grid point; the betas are shared across points."""
    kvecs, weights = _terms(lam)
    return _run_blocks(_weighed(_limit_sampler(kvecs, d, rng), weights), N, len(weights),
                       workers)


def simulate_family(kernel, sets, dists, N: int, rng: RngSpec,
                    workers: int = 1) -> list:
    """N independent replications of S_L for every set L of a family, in one pass over ``rng``.

    The sets share their axis samples (common random numbers): per
    replication each axis draws the family's largest ``axis_max`` once, and
    each set sums its own cells of them.  So each set keeps its law, and a
    one-set family is ``simulate_S_L``.  All S x N sums are held at once.
    Worker counts partition replications without changing any variate.
    """
    sets = list(sets)
    field = _sum_field(kernel.factors, kernel.lam, sets, dists, N, rng, workers)
    columns = _columns(sets, kernel.d)
    out = []
    for L, rows in zip(sets, field):
        own = [L.axis_max(axis) for axis in range(L.d)]
        prov = _provenance("S_L", kernel, L, dists, N, rng.seed,
                           None if own == columns else columns)
        out.append(EmpiricalDist(rows[0], prov, seed=rng.seed))
    return out


def simulate_S_L(kernel, L: IndexSet, dists, N: int, rng: RngSpec,
                 workers: int = 1) -> EmpiricalDist:
    """N independent replications of S_L; deterministic under the stream policy.

    The one-set family of ``simulate_family``.  Worker counts partition
    replications without changing any variate, so the result is identical to
    a serial run.
    """
    return simulate_family(kernel, [L], dists, N, rng, workers)[0]


def sample_S_infty(lam: dict, d: int, N: int, rng: RngSpec,
                   workers: int = 1) -> EmpiricalDist:
    """Gaussian-chaos limit ``sum_k lambda(k) prod_s beta_s(k_s)``, fresh betas per replication."""
    lam = {tuple(k): float(w) for k, w in lam.items()}
    vals = _limit_field(lam, d, N, rng, workers)
    payload = {"lambda": sorted((list(k), w) for k, w in lam.items()), "d": d}
    return EmpiricalDist(vals[0], _provenance("S_infty", payload, None, None, N, rng.seed),
                         seed=rng.seed)


# ---------------------------------------------------------------------------
# persistence: binary column file with a JSON header
# ---------------------------------------------------------------------------


def empirical_bytes(dist: EmpiricalDist) -> bytes:
    header = json.dumps({"format": "empirical-dist-v1", "n": dist.n,
                         "provenance": dist.provenance, "seed": dist.seed},
                        sort_keys=True)
    return header.encode() + b"\n" + dist.values.astype("<f8").tobytes()


def load_empirical(path) -> EmpiricalDist:
    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode())
        vals = np.frombuffer(fh.read(), dtype="<f8")
    if header.get("format") != "empirical-dist-v1" or vals.size != header["n"]:
        raise ValueError("corrupt empirical distribution file")
    return EmpiricalDist(vals, header.get("provenance", ""),
                         seed=header.get("seed"))
