"""Seeded Monte Carlo for normalized multi-indexed sums and their chaos limits.

Every variate is addressed by ``(seed, stream tag, axis, replication,
coordinate)``, so results are bit-identical no matter how replications are
split across workers or how large a batch is requested.  Every stream is
paged (``_Pages``): page j of a stream holds a fixed run of replications,
drawn in row order by one SFC64 generator keyed by ``(seed, tag, axis, j)``,
and a read that starts inside a page draws and drops the page's prefix.
Standard normals, the axis law of every Gaussian run and of the chaos
limit's betas, are drawn by NumPy's ziggurat (Marsaglia & Tsang 2000); they
are not clipped, though the inverse CDF that they replace bounded ``|xi|`` at
about 8.1.  Every other law is an inverse CDF of the pages' uniforms,
transformed in place.  A family of index sets is sampled in one pass from
one stream per axis (``simulate_family``): per replication each axis draws
the family's widest side, ``max_L axis_max(L)`` coordinates, and every set
sums its own cells of those draws.  The sets of a family are thus coupled by
common random numbers, each with its own law, and a one-set family reads
just what its set alone reads.  An axis of standard normal variables whose
terms take only the identity factor (k = 1) or Hermite k = 2 is segmented
instead (``_layouts``): the union of the family's box edges on it cuts the
line into segments, and it draws each segment's statistics, not its
normals.  Over n unit normals ``sum xi = sqrt(n) Z`` and ``sum xi**2 = Z**2
+ C``, Z normal and C chi-square of n - 1 degrees, independent; so one
normal per segment gives the identity's side sums, and a chi-square from a
second paged stream (``TAG_CHI2``, NumPy's gamma sampler) the power sum that
Hermite k = 2 also needs (``_axis_sums``).  There a variate is addressed by
``(seed, tag, axis, replication, segment)``, and a side's power sum is the
sum of those of the segments it covers.

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
normal draws per replication.  Its T cores are sampled whole
(``_limit_cores``) and weighed one grid point at a time; a simulated field
weighs each block's cores into its rows at once (``_sum_field``).

No factor table is built.  Each axis owns its side sums: per distinct box
side of the family (``_spans``), the sums of factors 1..kmax over it, shape
(sides, kmax, reps), by one of two routes.  By rows, each factor family
yields its rows ``g_1, g_2, ...`` one at a time (``FactorFamily.rows``), and
every row is slice-summed as soon as it exists (``_row_sums``).  By powers,
Hermite factors make no rows: a side's sum of ``h_k`` is ``(sum_j c_kj S_j)
/ sqrt(k!)``, from its power sums ``S_j``, ``He_k``'s exact integer
coefficients from the Hermite row of the factor families' recurrence table
(``kernels._monic_coefficients``) and ``S_0`` its length (``_hermite_sums``);
at kmax 1 it is ``S_1``, the sum of row 1, which is x in every analytic
family.  An axis sampled cell by cell makes the powers ``x**2, ..., x**m``,
m = ceil(kmax / 2), and takes ``S_1`` by a slice sum and ``S_j`` by a row
dot of two powers (``_power_sums``), Hermite under any law by powers and
every other family by rows (``_side_sums``).  A segmented axis, whatever
its family, slice-sums its segments' ``sqrt(n) Z`` and ``Z**2 + C`` over
each side's run (``_axis_sums``).  The draws are the same and the
arithmetic less, but power sums cancel more than rows do: against exact
sums over 4096 normal draws this errs by about 1.5e-14 per root of the
side's length at k = 4 and 2.2e-13 at k = 12, where the rows err by 3e-16.
Charlier and Laguerre factors keep their rows, since by powers
they cancel more still (Laguerre 3.1e-12 at k = 12 on its exponential law,
Charlier 1.7e-10 at k = 12 on normal draws).  Every slice sum of a row, be
it of factors, powers or segment statistics, is a ``_slice_sum``: a run of
fewer than 8 columns is added column by column in place, in order from 0.0,
the floats NumPy's pairwise sum gives below its 8-value block, so they rest
on IEEE addition in a fixed order, not on NumPy's reduction; a longer run
takes NumPy's pairwise sum, which keeps it accurate.  Each set's boxes then
take their sides' sums (``_box_sums``), so boxes that share a side share
its sums, and ``_contract`` writes each term's core in place, a box's
product axis by axis into the core or one reused scratch row; and
``compute_S_L`` runs these same steps on one replication.  A replication
therefore holds O(sum n_s) floats whatever the rank.
Replications run in blocks (``_block_cap``) whose widest axis row fits a
share of the cache, since a block is walked once per layer (draws, inverse
CDF, each factor or power row), within ``_BLOCK_BUDGET``.  Each worker
samples its blocks through buffers and stream readers
(``AxisDistribution.reader``) it makes once, so a page's generator runs on
from block to block.  The variates are addressed by replication, so block
size moves no bit.

Each simulated distribution carries a provenance digest of its inputs
(kernel, index set, axis laws, N, seed); the index set enters by its JSON,
which names an explicit set by its boxes, never its cells.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial

import numpy as np

from .index_sets import IndexSet, _sorted_unique
from .kernels import (_finite_number, _inverse_factorials, _lp_norm, _monic_coefficients,
                      kernel_to_json, quadrature_rule)

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
TAG_CHI2 = 3      # chi-square streams of segmented Hermite k = 2 axes

_POISSON_NODES = quadrature_rule("compensated_poisson")[0]
_POISSON_CDF = np.cumsum(quadrature_rule("compensated_poisson")[1])

# Replications per block (``_block_cap``).  A block walks each of its arrays
# several times (draws, inverse CDF, factor or power rows, side sums), so its
# widest axis row should stay in cache: _CACHE_FLOATS doubles, a share of a
# 2 MiB L2.  _BLOCK_BUDGET, the floats one block may hold, caps it and peak
# memory.  A many-box set makes more NumPy calls per block; growing its blocks
# to amortize them sped a checkerboard and slowed a staircase, so no rule does
# until a many-box workload can time one (ROADMAP item 6).
_CACHE_FLOATS = 1 << 16
_BLOCK_BUDGET = 1 << 22

# A stream's page holds the fewest whole replications of at least this many values,
# so building its generator (about 20 us) is small beside drawing it (about 12 ns a value).
_PAGE_VALUES = 1 << 16
# A read that starts inside a page draws the rows before it into its own buffer, or into a
# scratch of this many floats where the buffer is smaller, so a small read makes few calls.
_SKIP_FLOATS = 1 << 12


@dataclass(frozen=True)
class RngSpec:
    """Random stream policy rooted at a 64-bit seed.

    Stream key = (seed, tag, axis); each stream is paged (``_Pages``), so a
    value is addressed by (replication, column) whatever range is read.  The
    seed is a Python or NumPy integer, not a bool, in ``[0, 2**64)``, kept as
    a Python int.
    """

    seed: int

    def __post_init__(self):
        seed = self.seed
        if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) \
                or not 0 <= int(seed) < 2 ** 64:
            raise ValueError(f"seed must be an integer in [0, 2**64), got {seed!r}")
        object.__setattr__(self, "seed", int(seed))

    def child(self, index: int) -> "RngSpec":
        """Derived independent stream root; deterministic in (seed, index)."""
        mixed = (self.seed * 0x9E3779B97F4A7C15 + (index + 1) * 0xD1B54A32D192ED03) % 2 ** 64
        return RngSpec(mixed)

    def uniform_block(self, tag: int, axis: int, rep_start: int, rep_count: int,
                      ncols: int, out: np.ndarray | None = None) -> np.ndarray:
        """Uniforms of shape (rep_count, ncols): one read of fresh pages of (seed, tag, axis)."""
        return _Pages(self.seed, tag, axis, ncols, np.random.Generator.random).read(
            rep_start, rep_count, out)


def _check_buffer(out: np.ndarray, rep_count: int, ncols: int) -> None:
    """Raise unless ``out`` can hold ``rep_count`` replications of ``ncols`` draws in place."""
    if out.shape[1] != ncols or out.shape[0] < rep_count or not out.flags.c_contiguous:
        raise ValueError(f"a sample buffer for {rep_count} x {ncols} needs {ncols}"
                         f" columns and {rep_count} rows, C-contiguous")


class _Pages:
    """One ``(seed, tag, axis)`` stream, ``ncols`` values per replication, drawn by ``draw``.

    ``draw(gen, out)`` fills the 2-d array ``out``, a run of whole rows, in
    row-major order: ``np.random.Generator.standard_normal`` (the ziggurat),
    ``np.random.Generator.random`` (uniforms on [0, 1)) or a gamma draw with
    one shape per column (``_chi2``).  Page j holds replications ``[j R, (j +
    1) R)``, with R the fewest that hold ``_PAGE_VALUES`` values, a function
    of ``ncols`` alone.  It is drawn by one SFC64 generator seeded by
    ``SeedSequence(seed, spawn_key=(tag, axis, j))``.  A draw fills values in
    order, so a page's leading rows are the same whatever count is asked
    for, and a read that starts inside a page draws and drops the page's
    rows before it, whole rows at a time (a gamma page's law varies by
    column), through its own buffer, so it holds no page-sized array.  The
    reader keeps its page's generator live, so reads of consecutive ranges
    draw each value once.
    """

    def __init__(self, seed: int, tag: int, axis: int, ncols: int, draw):
        self.key = (int(seed), int(tag), int(axis))
        self.ncols, self.draw = ncols, draw
        self.reps = -(-_PAGE_VALUES // ncols)
        self.page, self.gen, self.at = -1, None, 0    # the live page, its generator, its next rep

    def read(self, rep_start: int, rep_count: int, out: np.ndarray | None = None) -> np.ndarray:
        """Values of shape (rep_count, ncols) for replications ``rep_start`` on.

        ``out``, a C-contiguous float array of ``ncols`` columns and at least
        ``rep_count`` rows, receives them instead of a fresh array; the result
        is then a view of its leading rows.
        """
        if out is None:
            rows = np.empty((rep_count, self.ncols))
        else:
            _check_buffer(out, rep_count, self.ncols)
            rows = out[:rep_count]
        rep, end = rep_start, rep_start + rep_count
        while rep < end:
            page = rep // self.reps
            if page != self.page or rep < self.at:
                seed, tag, axis = self.key
                seeds = np.random.SeedSequence(seed, spawn_key=(tag, axis, page))
                self.gen = np.random.Generator(np.random.SFC64(seeds))
                self.page, self.at = page, page * self.reps
            if rep > self.at:   # drop the page's rows before rep, drawn in runs of whole rows
                skip, room = rep - self.at, rows[rep - rep_start:]
                if room.size < min(skip * self.ncols, _SKIP_FLOATS):
                    room = np.empty((min(skip, _SKIP_FLOATS // self.ncols), self.ncols))
                for at in range(0, skip, len(room)):
                    self.draw(self.gen, out=room[:min(len(room), skip - at)])
            stop = min(end, (page + 1) * self.reps)
            self.draw(self.gen, out=rows[rep - rep_start:stop - rep_start])
            rep = self.at = stop
        return rows


def _chi2(dof: np.ndarray):
    """A page draw of chi-square values, ``dof[c]`` degrees of freedom in column c.

    ``2 Gamma(dof / 2)`` by NumPy's ``standard_gamma``, which draws a variable
    number of bits per value; at 0 degrees it draws none and gives 0.
    """
    shape = dof / 2.0

    def draw(gen, out):
        gen.standard_gamma(shape, out=out)
        out *= 2.0

    return draw


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
            if not (_finite_number(self.beta) and self.beta > 0):
                raise ValueError(f"log_weibull requires a finite beta > 0, got {self.beta!r}")
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
        kind, ``u``'s even columns, so a block is transformed in place.  The
        normal law has no inverse CDF here: its streams are drawn by the
        ziggurat (``reader``).
        """
        if self.kind == "standard_normal":
            raise ValueError("standard normals are drawn by the ziggurat, not from uniforms")
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
        if self.kind == "centered_exponential":
            np.log1p(np.negative(v, out=v), out=v)
            np.negative(v, out=v)
            v -= 1.0
            return v
        # compensated_poisson: the clipped uniform lies below the last cdf value, 1.0
        return _POISSON_NODES.take(np.searchsorted(_POISSON_CDF, v), out=v, mode="clip")

    def reader(self, rng: RngSpec, axis: int, ncols: int, tag: int = TAG_AXIS):
        """``read(rep_start, rep_count, out=None)``: samples of stream ``(rng.seed, tag, axis)``.

        A read returns shape (rep_count, ncols).  ``out`` is a buffer of
        ``ncols * uniforms_per_coord`` columns as for ``_Pages.read`` and the
        result a view of it: normals are drawn into it, any other law is
        transformed in place in its uniforms.  A reader runs its page on from
        one read to the next, so one reader should serve consecutive ranges.
        """
        if self.kind == "standard_normal":
            return _Pages(rng.seed, tag, axis, ncols, np.random.Generator.standard_normal).read
        per = self.uniforms_per_coord
        pages = _Pages(rng.seed, tag, axis, ncols * per, np.random.Generator.random)

        def read(rep_start, rep_count, out=None):
            u = pages.read(rep_start, rep_count, out)
            return self.transform(u, out=u[:, ::per])

        return read

    def identity_moment(self, p: float) -> float:
        """``|xi|_p`` of the raw axis variable (the centered identity factor).

        Closed forms for the Rademacher and normal laws (the latter by
        ``math.lgamma``), the Poisson pmf nodes, and ``_quad`` for the rest.
        """
        if self.kind == "rademacher":
            return 1.0
        if self.kind == "standard_normal":
            return math.sqrt(2.0) * math.exp(
                (math.lgamma((p + 1.0) / 2.0) - 0.5 * math.log(math.pi)) / p)
        if self.kind == "centered_exponential":
            val = _quad(lambda t: abs(t - 1.0) ** p * math.exp(-t), 0, np.inf)
            return val ** (1.0 / p)
        if self.kind == "compensated_poisson":
            x, pmf = quadrature_rule("compensated_poisson")
            return _lp_norm([(x.copy(), [np.log(pmf)], None)], [p])[0]
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

    This is the only SciPy import in ``multisum``.  ``scipy.integrate`` loads
    ``scipy.optimize``, ``scipy.sparse`` and ``scipy.linalg`` with it, more
    than ``import multisum`` itself costs, and only these two identity
    moments need it.
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
    """Sorted replication batch of a scalar statistic with provenance.

    ``law_moments``, when set, is a function of no arguments that returns the
    exact (variance, fourth central moment) of the law the values were drawn
    from, or None; it is called only by ``variance_se`` and not stored by
    ``empirical_bytes``.
    """

    values: np.ndarray
    provenance: str = ""
    seed: int | None = None
    law_moments: Callable[[], tuple | None] | None = None

    def __post_init__(self):
        v = np.sort(np.asarray(self.values, dtype=float))
        if v.size < 1:
            raise ValueError("need at least one replication")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @property
    def n(self) -> int:
        return int(self.values.size)

    def variance(self) -> float:
        return float(np.var(self.values, ddof=1)) if self.n > 1 else 0.0

    def variance_se(self) -> float:
        """Standard error of the sample variance: exact where the law's moments are known.

        Where ``law_moments`` gives the sampled law's variance and fourth
        central moment it is the exact ``sqrt(mu4/n - sigma^4 (n-3)/(n(n-1)))``:
        ``simulate_family`` passes ``_sum_moments``, which knows them where
        every axis has a law table of centred factors (any analytic kind on
        its base law, Hermite k <= 2 on a Poisson axis, the identity on a
        log-Weibull axis).  Otherwise (a non-centred factor, k >= 2 on a
        log-Weibull axis, a tabulated factor) it is the asymptotic
        delta-method estimate from the sample fourth moment, which converges
        slowly when the law is heavy-tailed, so it understates the spread
        and moves with the sample variance: for diagonal Hermite kernels
        of degree up to 3 at N = 2000, 7% of 300 seeded runs fell more than 4
        estimated standard errors from the exact variance, the worst 8.9.
        """
        if self.n < 2:
            return 0.0
        moments = self.law_moments() if self.law_moments is not None else None
        if moments is not None:
            var, mu4 = moments
            n = self.n
            return float(math.sqrt(max(mu4 / n - var * var * (n - 3) / (n * (n - 1)), 0.0)))
        x = self.values - self.values.mean()
        m2 = np.mean(x ** 2)
        m4 = np.mean(x ** 4)
        return float(math.sqrt(max(m4 - m2 ** 2, 0.0) / self.n))

    def quantile(self, q):
        """``np.quantile(self.values, q)`` bit for bit at float ``q``, read off the sorted sample.

        NumPy's linear rule: at ``i = (n - 1) q`` with weight ``g = i -
        floor(i)``, ``a + (b - a) g`` from the neighbours a and b, or ``b -
        (b - a)(1 - g)`` where ``g >= 1/2``; at or past the last index both
        neighbours are the last value, and a NaN-topped sample gives NaN
        everywhere.  ``np.quantile`` would partition a copy and, through
        ``np.unique``, import ``numpy.ma``.
        """
        q = np.asarray(q, dtype=float)
        if not np.all((q >= 0.0) & (q <= 1.0)):
            raise ValueError("quantiles must be in the range [0, 1]")
        v, top = self.values, self.values.size - 1
        index = top * q.ravel()
        lo = np.where(index >= top, -1.0, np.floor(index)).astype(np.intp)
        a, b = v[lo], v[np.where(lo < 0, -1, lo + 1)]
        gamma = index - lo
        diff = b - a
        out = a + diff * gamma
        upper = gamma >= 0.5
        out[upper] = b[upper] - diff[upper] * (1.0 - gamma[upper])
        if np.isnan(v[-1]):
            out[:] = v[-1]
        return out.reshape(q.shape)[()]


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

    The one-row case of ``_ks_rows``, with the smaller sample as the row.
    """
    x, y = a.values, b.values
    if x.size > y.size:
        x, y = y, x
    return float(_ks_rows(x[None, :], y)[0])


def _ks_rows(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """KS sup-distance of each sorted row of ``x``, shape (R, n), against the sorted ``y``.

    Over a tie run of a row ``x`` (positions ``s..e`` holding one value) the
    CDF of ``x`` is constant and that of ``y`` is monotone, so the sup is
    reached just before the run (``x`` count ``s`` against the ``y`` below
    ``x[s]``) or at its end (``e + 1`` against the ``y`` up to and including
    ``x[e]``).  Each candidate is the float ``|k/n - c/m|`` that the sample
    points it stands for give.

    Only the positions that can hold the sup are searched.  The sorted
    positions of a row are split into blocks of ``_KS_BLOCK``, and one
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

    All rows go through each step at once, so R rows cost about the NumPy
    calls of one; a row's distance is the max of its own candidates, the
    same float whatever the other rows hold.  The smaller sample is the row
    for speed only: every step is exact for either order.

    A NaN has no place in a CDF, so a sample holding one is a ValueError;
    sorted, a NaN sits last, so one look at each sample's top finds it.
    """
    if np.isnan(x[:, -1]).any() or np.isnan(y[-1]):
        raise ValueError("KS distance of a sample holding NaN")
    R, n = x.shape
    m = y.size
    lead = x[:, ::_KS_BLOCK]
    k = lead.shape[1]
    edge = np.arange(0, n + _KS_BLOCK, _KS_BLOCK)        # block edges; the last block ends at n
    edge[k] = n
    new = np.empty((R, k + 1), bool)                     # lead j differs from lead j - 1
    new[:, 0] = new[:, k] = True                         # (no lead follows the last block)
    np.not_equal(lead[:, 1:], lead[:, :-1], out=new[:, 1:k])
    head = np.searchsorted(y, lead[new[:, :k]], side="left")
    if head.size < R * k:                                # a lead repeats: one count per block
        head = head[np.cumsum(new[:, :k]) - 1]           # (each row's first lead is new)
    f = edge / n
    h = np.empty((R, k + 1))
    np.divide(head.reshape(R, k), m, out=h[:, :k])
    h[:, k] = 1.0                                        # m / m after the last block
    begins = new[:, :k].copy()                           # leads that begin a tie run
    np.not_equal(x[:, _KS_BLOCK - 1:n - 1:_KS_BLOCK], lead[:, 1:], out=begins[:, 1:])
    lo = np.where(begins, np.abs(f[:k] - h[:, :k]), 0.0).max(axis=1)   # distances are >= 0
    hi = np.maximum(f[1:] - h[:, :k], h[:, 1:] - (edge[:k] + 1) / n)
    # kept: the bound reaches ``lo`` and the next lead differs
    row, block = np.nonzero((hi >= lo[:, None]) & new[:, 1:])
    pos = (edge[block][:, None] + np.arange(_KS_BLOCK)).ravel()
    row = np.repeat(row, _KS_BLOCK)
    inside = pos < n                                     # the positions of the kept blocks
    pos, row = pos[inside], row[inside]
    flat, at = x.reshape(-1), row * n + pos
    val = flat[at]
    nxt = np.minimum(pos + 1, n - 1)
    starts = val != flat[at - 1]                         # a row's position 0 is in ``lo``
    ends = (val != flat[at - pos + nxt]) | (pos == nxt)
    cand = starts | ends
    pos, row, val, starts, ends = pos[cand], row[cand], val[cand], starts[cand], ends[cand]
    below = np.searchsorted(y, val, side="left")
    upto = below.copy()
    tie = ends & ~(y[np.minimum(below, m - 1)] > val)
    upto[tie] = np.searchsorted(y, val[tie], side="right")
    at_start = np.where(starts, np.abs(pos / n - below / m), 0.0)
    at_end = np.where(ends, np.abs((pos + 1) / n - upto / m), 0.0)
    np.maximum.at(lo, row, np.maximum(at_start, at_end))
    return lo


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


# NumPy's pairwise sum adds a run of fewer than this many values one by one from 0.0, and
# a longer one as eight interleaved partial sums (split in halves past 128 values)
_PAIRWISE_BLOCK = 8


def _slice_sum(x: np.ndarray, lo: int, hi: int, out: np.ndarray) -> np.ndarray:
    """``x[:, lo - 1:hi].sum(axis=1)`` into ``out``, a float per row of ``x``.

    A run of fewer than ``_PAIRWISE_BLOCK`` columns is added column by column
    in place, from 0.0 and in order, as NumPy's sum adds it, so the floats are
    NumPy's, signed zeros included, without resting on its reduction: one
    pass per column instead of NumPy's inner loop per row, which on a 16 384
    x 4 block costs 321 us against 46.  A longer run takes NumPy's sum, whose
    pairwise order keeps long sums accurate.
    """
    if hi - lo + 1 >= _PAIRWISE_BLOCK:
        return x[:, lo - 1:hi].sum(axis=1, out=out)
    np.add(x[:, lo - 1], 0.0, out=out)
    for column in range(lo, hi):
        out += x[:, column]
    return out


def _row_sums(rows, spans, out: np.ndarray) -> np.ndarray:
    """``out[i, k - 1]``, the slice sum of the k-th of ``rows`` over side ``spans[i]``.

    Each row is summed as soon as it exists, so no factor table is ever built.
    Every sum is a ``_slice_sum``: a side of fewer than eight columns (or
    segments) adds them in order, a longer one takes NumPy's pairwise sum.
    """
    for k, row in enumerate(rows):
        for (lo, hi), side in zip(spans, out):
            _slice_sum(row, lo, hi, side[k])
    return out


def _side_sums(fam, kmax: int, x: np.ndarray, spans, buffers=None) -> np.ndarray:
    """(sides, kmax, reps): per distinct side, the sums of factors 1..kmax of ``fam`` over x.

    ``x`` holds one variate per cell, a row per replication, and ``spans``
    the distinct ``(lo, hi)`` sides (``_spans``).  The one place that picks
    a per-cell route: Hermite factors are combined from power sums
    (``_power_sums``, ``_hermite_sums``), any other family slice-sums its
    rows (``_row_sums``); at kmax 1 both sum x itself.  ``buffers``, arrays of x's shape, hold the
    rows or powers; fresh ones are made where absent.
    """
    out = np.empty((len(spans), kmax, x.shape[0]))
    if fam.kind == "hermite":
        return _hermite_sums(_power_sums(x, kmax, spans, out, buffers), spans)
    return _row_sums(fam.rows(kmax, x, buffers), spans, out)


def _box_sums(sums, inverses) -> list:
    """Per set, ``sums[B][s]`` for ``_contract``: box B's side sums on axis s.

    ``sums`` holds each axis' distinct sides' sums and ``inverses`` per axis
    and set each box's side (``_spans``), so boxes that share a side share its sums.
    """
    per_axis = [[[side[i] for i in boxes] for boxes in inverse]
                for side, inverse in zip(sums, inverses)]
    return [list(zip(*per_set)) for per_set in zip(*per_axis)]


def _power_sums(x: np.ndarray, kmax: int, spans, out: np.ndarray, buffers=None) -> np.ndarray:
    """Power sums ``out[i, j - 1] = sum_{side i} x**j``, j = 1..kmax, of the cells x.

    ``out`` has shape (sides, kmax, reps).  The powers ``x**2, ..., x**m``, m =
    ceil(kmax / 2), each the one before times x, go to ``buffers[j - 2]``
    (fresh arrays where absent).  ``S_1`` is x's slice sum (``_slice_sum``:
    in order below eight columns, NumPy's pairwise sum above) and ``S_j`` the
    row dot ``np.vecdot(x**a, x**b)``, ``a = ceil(j / 2)`` and ``b = j - a``.
    """
    powers = [x]
    for j in range(2, (kmax + 1) // 2 + 1):
        powers.append(np.multiply(powers[-1], x, out=None if buffers is None else buffers[j - 2]))
    for (lo, hi), side in zip(spans, out):
        _slice_sum(x, lo, hi, side[0])
        for j in range(2, kmax + 1):
            a = (j + 1) // 2
            p, q = powers[a - 1][:, lo - 1:hi], powers[j - a - 1][:, lo - 1:hi]
            # OpenBLAS splits a dot of more than 10 000 values across its threads, which would tie
            # the float to their count, so a wider side adds the dots of runs of 8192 in order
            np.vecdot(p[:, :8192], q[:, :8192], out=side[j - 1])
            for at in range(8192, hi - lo + 1, 8192):
                side[j - 1] += np.vecdot(p[:, at:at + 8192], q[:, at:at + 8192])
    return out


def _hermite_sums(out: np.ndarray, spans) -> np.ndarray:
    """Normalized Hermite side sums ``out[i, k - 1] = sum_{side i} h_k`` from power sums, in place.

    ``out``, shape (sides, kmax, reps), holds side i's power sum ``S_j`` in
    ``out[i, j - 1]`` (``_power_sums``, or a segmented axis' ``_axis_sums``);
    ``S_0`` is the length of side ``spans[i]``.  From k = kmax down, so that
    every ``S_j`` of j < k is still in place, ``out[i, k - 1] = (S_k + c_k,k-2
    S_k-2 + ...) / sqrt(k!)`` with ``He_k``'s integer coefficients, which
    ``kernels._monic_coefficients`` builds from the Hermite row of the
    recurrence table; at kmax 1 nothing changes.  These steps run in a fixed
    order on the rows of all sides at once, so each float rests on its
    replication's draws alone, whatever the block.
    """
    lengths = np.array([[hi - lo + 1.0] for lo, hi in spans])
    norm = _inverse_factorials(out.shape[1], True)
    for k, c in reversed(list(enumerate(_monic_coefficients("hermite", out.shape[1]), 1))):
        row = out[:, k - 1]
        for j in range(k - 2, 0, -2):
            row += c[j] * out[:, j - 1]
        if k % 2 == 0:
            row += c[0] * lengths
        if norm[k] != 1.0:
            row *= norm[k]
    return out


def _contract(sums, kvecs, out: np.ndarray, scratch=None) -> np.ndarray:
    """Per term t, the core ``sum_B prod_s sums[B][s][k_s - 1]``, written into ``out[t]``.

    ``sums[B][s]`` is box B's slice sum on axis s, shape (kmax_s, reps), and
    ``out`` has shape (T, reps), a row per multi-index of ``kvecs``.  The cores
    are unweighted: every grid point of a field is a weighted sum of the same
    T cores (``_weigh``).  Each core is made in place: the first box's product,
    taken axis by axis in order, goes straight into ``out[t]``, and each later
    box's into ``scratch``, a row of ``out``'s length (made here where absent
    and needed), before it is added.  No product array is allocated.
    """
    for kvec, core in zip(kvecs, out):
        for b, box_sums in enumerate(sums):
            rows = [side[k - 1] for side, k in zip(box_sums, kvec)]
            if len(rows) == 1:
                if b:
                    core += rows[0]
                else:
                    core[...] = rows[0]
                continue
            if b and scratch is None:
                scratch = np.empty(out.shape[1])
            term = np.multiply(rows[0], rows[1], out=scratch if b else core)
            for row in rows[2:]:
                term *= row
            if b:
                core += term
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


def compute_S_L(kernel, L: IndexSet, axis_samples) -> float:
    """Normalized sum for one realization of the axis samples.

    The steps of one sampled block on a single replication: per axis the
    distinct sides' sums (``_side_sums``), per box their product across axes
    summed over the boxes (``_contract``), then the weights.  A rectangle is
    a single box, so it costs O(rank * sum n_s) rather than the O(rank *
    prod n_s) of summing cell by cell.
    """
    if L.d != kernel.d:
        raise ValueError(f"index set has dimension {L.d}, the kernel {kernel.d}")
    if len(axis_samples) != kernel.d:
        raise ValueError(f"need one sample array per kernel axis, {kernel.d}; "
                         f"got {len(axis_samples)}")
    for axis in range(kernel.d):
        if L.axis_max(axis) > len(axis_samples[axis]):
            raise ValueError(f"axis {axis} samples do not cover the index set")
    kvecs, weights = _terms(kernel.lam)
    spans, inverses = zip(*(_spans([L], axis) for axis in range(kernel.d)))
    sums = [_side_sums(fam, k, np.asarray(x, dtype=float)[None, :], sides) for fam, k, x, sides
            in zip(kernel.factors, _kmax(kvecs, kernel.d), axis_samples, spans)]
    boxes, = _box_sums(sums, inverses)
    cores = _contract(boxes, kvecs, np.empty((len(kvecs), 1)))
    return float(_weigh(cores, weights[0], np.empty(1))[0]) / math.sqrt(L.size)


# ---------------------------------------------------------------------------
# replicated simulation
# ---------------------------------------------------------------------------


def _provenance(kind, kernel, L, dists, n, seed, columns=None) -> str:
    """First 16 hex digits of the sha256 of ``json.dumps(payload, sort_keys=True)``.

    The payload names the index set by its JSON, which lists an explicit
    set's boxes, so the hash costs O(boxes) whatever ``|L|``.  A set sampled
    with a family reads the family's per-axis draws of each stream
    (``_layouts``: a column count, or a segmented axis' cuts), so they enter
    the payload as ``columns`` when they differ from those of the set alone.
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


def _sum_moments(kernel, L: IndexSet, dists):
    """``_moments.sum_moments(kernel, L, dists)``, importing it on first use.

    The exact ``(Var S_L, E S_L**4)`` under the axis laws, or None where an axis has no
    table of centred factors.  Only ``EmpiricalDist.variance_se`` reads them, so a run
    that never reads a standard error (``bound``, ``verify``) never loads their rule.
    """
    from ._moments import sum_moments
    return sum_moments(kernel, L, dists)


def _block_cap(floats_per_rep: int, widest: int) -> int:
    """Replications per block: the cache share of the widest axis row, within the budget.

    ``widest`` is the widest axis row one replication adds to a block (its
    draws, which the inverse CDF and the factor or power rows walk again).
    """
    return max(1, min(_CACHE_FLOATS // widest, _BLOCK_BUDGET // floats_per_rep))


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
    else:   # imported here: a one-chunk run loads no concurrent.futures, nor its logging
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=len(chunks)) as pool:
            list(pool.map(run_chunk, chunks))
    return out


def _layouts(factors, kvecs, sets, dists) -> list:
    """Per axis, what one replication of a family draws: segment cuts, or a column count.

    An axis whose law is standard normal and whose terms all take the k = 1
    member of an analytic family (the identity) or Hermite k = 2 is
    segmented: the family's box-edge grid on it (the union of its sets'
    ``edges``) cuts it into segments, and it draws each segment's statistics
    instead of its normals (``_axis_sums``).  Over n i.i.d. N(0, 1), ``sum xi
    = sqrt(n) Z`` and ``sum xi**2 = Z**2 + C`` with Z ~ N(0, 1) and C ~ chi2(n
    - 1) independent (Cochran 1934), and disjoint segments are independent,
    so every side's power sums keep their exact joint law.  Its entry is the
    list of cuts.  Every other axis draws one variate per lattice column,
    its sets' largest ``axis_max``.
    """
    out = []
    for axis, (fam, dist) in enumerate(zip(factors, dists)):
        ks = {k[axis] for k in kvecs}
        if (dist.kind == "standard_normal" and fam.kind != "tabulated"
                and ks <= ({1, 2} if fam.kind == "hermite" else {1})):
            out.append(_sorted_unique(np.concatenate([L.edges[axis] for L in sets])).tolist())
        else:
            out.append(max(L.axis_max(axis) for L in sets))
    return out


def _axis_sums(fam, kmax: int, dist, rng, axis: int, layout, spans, cap: int):
    """``sums(rep_start, rep_count, flat)``: one axis' side sums over a block, from its streams.

    ``layout`` is the axis' ``_layouts`` entry and ``spans`` its distinct
    sides (``_spans``); each call returns their sums, shape (sides, kmax,
    rep_count).  A column count reads that many variates per replication
    from ``(seed, TAG_AXIS, axis)`` and sums them cell by cell
    (``_side_sums``).  A list of cuts reads one normal Z per segment from
    the same stream and, at kmax 2, one chi-square C per segment from
    ``(seed, TAG_CHI2, axis)``; a segment's power sums ``sqrt(n) Z`` and ``C
    + Z**2`` are made in the draw buffers and summed over each side's run of
    segments (``_row_sums``) for ``_hermite_sums``.  The draws go to buffers
    of ``cap`` rows made here; the rows and powers use ``flat``, flat
    buffers that every axis uses in turn.
    """
    lengths = np.diff(layout).astype(float) if isinstance(layout, list) else None
    if lengths is not None:     # a side [lo, hi] is segments [at[lo], at[hi + 1])
        at = {cut: i for i, cut in enumerate(layout)}
        segments = [(at[lo] + 1, at[hi + 1]) for lo, hi in spans]
    n = layout if lengths is None else lengths.size
    read = dist.reader(rng, axis, n)
    draws = np.empty((cap, n * dist.uniforms_per_coord))
    if kmax == 2 and lengths is not None:
        chi2 = _Pages(rng.seed, TAG_CHI2, axis, n, _chi2(lengths - 1.0)).read
        chis = np.empty((cap, n))

    def sums(rep_start, rep_count, flat):
        x = read(rep_start, rep_count, draws)
        buffers = [b[:x.size].reshape(x.shape) for b in flat]
        if lengths is None:
            return _side_sums(fam, kmax, x, spans, buffers)
        powers = [x]
        if kmax == 2:       # S_2 takes Z before S_1 scales it
            c = chi2(rep_start, rep_count, chis)
            c += np.multiply(x, x, out=buffers[0])
            powers.append(c)
        x *= np.sqrt(lengths)
        out = np.empty((len(spans), kmax, rep_count))
        return _hermite_sums(_row_sums(powers, segments, out), spans)

    return sums


def _sum_sampler(factors, kvecs, sets, dists, rng):
    """``(make_batch, block_cap)`` of the T unnormalized cores of each set of a family's sums.

    A block's output holds T rows per set, in the family's order.  Per
    replication each axis draws what ``_layouts`` names and sums each
    distinct box side of the whole family once (``_axis_sums``), so a
    one-set family reads what that set alone would; then each set's boxes
    take their sides' sums (``_box_sums``) and are contracted.  Its blocks
    are the cache share of the widest axis row (``_block_cap``).
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
    layouts = _layouts(factors, kvecs, sets, dists)
    spans, inverses = zip(*(_spans(sets, axis) for axis in range(d)))
    ncols = [len(layout) - 1 if isinstance(layout, list) else layout for layout in layouts]
    widths = [n * dist.uniforms_per_coord for n, dist in zip(ncols, dists)]
    T = len(kvecs)
    # three row buffers, or as many as the m - 1 powers past x of kmax >= 9 (_hermite_sums)
    nflat = max(3, (max(kmax) + 1) // 2 - 1)

    def make_batch(cap):
        axes = [_axis_sums(*args, cap)
                for args in zip(factors, kmax, dists, [rng] * d, range(d), layouts, spans)]
        # made after the draw buffers: the other order measured 3% slower on segment draws
        flat = np.empty((nflat, cap * max(ncols)))
        scratch = np.empty(cap)     # a later box's products in _contract

        def batch(rep_start, rep_count, out):
            sums = [axis_sums(rep_start, rep_count, flat) for axis_sums in axes]
            for i, boxes in enumerate(_box_sums(sums, inverses)):
                _contract(boxes, kvecs, out[i * T:(i + 1) * T], scratch[:rep_count])

        return batch

    # per axis: draws, chi-squares on a segmented k = 2 axis, the row buffers and a
    # temporary, side sums (which a power axis' power sums fill first); plus T cores per set
    chi2 = [isinstance(layout, list) and k == 2 for layout, k in zip(layouts, kmax)]
    per_rep = sum(n * (dist.uniforms_per_coord + 1 + nflat + c) + len(sides) * k
                  for sides, n, k, dist, c in zip(spans, ncols, kmax, dists, chi2)) \
        + len(sets) * T
    return make_batch, _block_cap(per_rep, max(widths))


def _limit_cores(kvecs, d, N, rng, workers) -> np.ndarray:
    """(T, N) chaos-limit cores, a row per multi-index; betas are a one-cell box's sums."""
    kmax = _kmax(kvecs, d)
    normal = AxisDistribution("standard_normal")

    def make_batch(cap):
        draws = [np.empty((cap, k)) for k in kmax]
        reads = [normal.reader(rng, axis, k, TAG_BETA) for axis, k in enumerate(kmax)]

        def batch(rep_start, rep_count, out):
            betas = [read(rep_start, rep_count, buf).T for read, buf in zip(reads, draws)]
            _contract([betas], kvecs, out)

        return batch

    per_rep = sum(3 * k for k in kmax) + len(kvecs)    # draws, contraction products; cores
    sampler = make_batch, _block_cap(per_rep, max(kmax))
    return _run_blocks(sampler, N, len(kvecs), workers)


def _sum_cores(factors, kvecs, sets, dists, N, rng, workers) -> np.ndarray:
    """(sets, T, N) unnormalized cores: per set of the family, a row per multi-index."""
    sampler = _sum_sampler(factors, kvecs, sets, dists, rng)
    return _run_blocks(sampler, N, len(sets) * len(kvecs), workers).reshape(len(sets), -1, N)


def _sum_field(factors, lam, sets, dists, N, rng, workers) -> list:
    """Per set of the family, its (|V|, N) normalized sums, a row per grid point, in one pass.

    Each block's cores are weighed into its rows at once, so no T x N cores are held.
    """
    kvecs, weights = _terms(lam)
    make_cores, block_cap = _sum_sampler(factors, kvecs, sets, dists, rng)
    nv, T = weights.shape
    roots = [math.sqrt(L.size) for L in sets]

    def make_batch(cap):
        cores_of, cores = make_cores(cap), np.empty((len(sets) * T, cap))
        scratch = np.empty(cap if T > 1 else 0)    # a second term's products

        def batch(rep_start, rep_count, out):
            cores_of(rep_start, rep_count, cores[:, :rep_count])
            for i, root in enumerate(roots):
                rows, set_cores = out[i * nv:(i + 1) * nv], cores[i * T:(i + 1) * T, :rep_count]
                for w, row in zip(weights, rows):
                    _weigh(set_cores, w, row, scratch[:rep_count])
                np.divide(rows, root, out=rows)

        return batch

    return np.split(_run_blocks((make_batch, block_cap), N, len(sets) * nv, workers), len(sets))


def simulate_family(kernel, sets, dists, N: int, rng: RngSpec,
                    workers: int = 1) -> list:
    """N independent replications of S_L for every set L of a family, in one pass over ``rng``.

    The sets share their axis samples (common random numbers): per
    replication each axis draws the family's largest ``axis_max`` once, or
    on a segmented axis one normal per segment of the family's box edges
    (``_layouts``), and each set sums its own cells or segments of them.  So
    each set keeps its law, and a one-set family is ``simulate_S_L``.  All
    S x N sums are held at once.  Worker counts partition replications
    without changing any variate.
    Each distribution can compute its law's exact moments (``_sum_moments``,
    called only when its ``variance_se`` is read), so that its standard
    error is exact wherever every axis law has a table of centred factors.
    """
    sets, kvecs = list(sets), list(kernel.lam)
    field = _sum_field(kernel.factors, kernel.lam, sets, dists, N, rng, workers)
    layouts = _layouts(kernel.factors, kvecs, sets, dists)
    out = []
    for L, rows in zip(sets, field):
        own = _layouts(kernel.factors, kvecs, [L], dists)
        prov = _provenance("S_L", kernel, L, dists, N, rng.seed,
                           None if own == layouts else layouts)
        out.append(EmpiricalDist(rows[0], prov, seed=rng.seed,
                                 law_moments=partial(_sum_moments, kernel, L, dists)))
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
    kvecs, weights = _terms(lam)
    vals = _weigh(_limit_cores(kvecs, d, N, rng, workers), weights[0], np.empty(N))
    payload = {"lambda": sorted((list(k), w) for k, w in lam.items()), "d": d}
    return EmpiricalDist(vals, _provenance("S_infty", payload, None, None, N, rng.seed),
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
