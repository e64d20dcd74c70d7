"""Every check of the paper's theorems against seeded simulation, under one stream policy.

Weak convergence is proxied by the two-sample Kolmogorov-Smirnov distance
between simulated sums and direct samples of the chaos limit, with a noise
budget from the distribution-free KS critical value.  One routine checks a
parametric field, and the irregular-domain CLT is its one-point case.  Every
check samples its family of index sets in one pass from ``rng.child(0)``, so
the stages share their axis draws (``mc.simulate_family``); the limit reads
``rng.child(_LIMIT_STREAM)``.  Moment and tail bounds are checked as
dominations: the simulated side must sit below the computed bound at every
probed point, within Monte Carlo slack where the check is two-sided.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .index_sets import nclt_condition_report
from .kernels import DegenerateKernel, orthonormal_factors
from .mc import (EmpiricalDist, RngSpec, _ks_rows, _limit_cores, _sum_cores, _terms, _weigh,
                 empirical_moment, empirical_tail, ks_distance, simulate_family)
from .mc import simulate_S_L  # noqa: F401  (a name bench/tracer.py wraps in every module)
from .parametric import (EntropyProfile, ParametricKernel, covering_profile,
                         entropy_integral_exp, entropy_integral_power, sigma_lambda)
from .psi import PsiFunction, TailBound, product_of, rosenthal_scaled, tabulated_psi
from .rosenthal import dp_quasinorm, rosenthal_K

__all__ = [
    "ks_distance",
    "ks_critical",
    "ConvergenceReport",
    "Theorem8Report",
    "SandwichReport",
    "TailDominationReport",
    "verify_nclt",
    "check_theorem_8",
    "verify_moment_sandwich",
    "verify_tail_domination",
    "natural_composite",
]

_KS_ALPHA = 0.01            # level of the KS critical value
_LIMIT_STREAM = 997         # rng child stream of the chaos-limit draws
LIMIT_N = 100_000           # default chaos-limit sample size of the KS checks
FINAL_KS = 0.05             # default KS bound at the last stage
_SUP_MOMENT_BUDGET = 3.0    # slack factor on the sup-field moment majorant


def ks_critical(n: int, m: int) -> float:
    """Distribution-free two-sample KS critical value at level ``_KS_ALPHA``."""
    c = math.sqrt(-math.log(_KS_ALPHA / 2.0) / 2.0)
    return c * math.sqrt((n + m) / (n * m))


@dataclass(frozen=True)
class ConvergenceReport:
    """KS trajectory of a growing family against its chaos limit."""

    description: str
    stages: tuple            # dicts: stage, L_size, kappa_minus, kappa_plus, min_corner, ks
    verdict: str             # pass | fail | hypotheses not met
    final_threshold: float
    noise_budget: float
    hypotheses_met: bool

    def to_json(self) -> dict:
        return asdict(self)


def _require_orthonormal(kernel):
    """The chaos limit's hypothesis for either kernel kind: analytic factors, sum lambda^2 > 0."""
    if not orthonormal_factors(kernel.factors):
        raise ValueError("chaos limits need orthonormal factors: no law samples 'tabulated' grids")
    if sum(np.square(w).sum() for w in kernel.lam.values()) <= 0:
        raise ValueError("degenerate limit: sum lambda^2 must be positive")


def _verdict(met: bool, ok: bool) -> str:
    """The one verdict rule: "hypotheses not met" unless ``met``, else "pass" or "fail"."""
    return ("pass" if ok else "fail") if met else "hypotheses not met"


def _ks_verdict(ks, crit, final_ks):
    """KS sequence nonincreasing within twice the critical value, last stage below final_ks."""
    nonincreasing = all(b <= a + 2.0 * crit for a, b in zip(ks, ks[1:]))
    return nonincreasing and ks[-1] <= final_ks


def _chaos_limit_ks(pk: ParametricKernel, dists, sets, N, rng, limit_n, final_ks, workers):
    """KS distances of the field ``Q_L`` against its shared-beta chaos limit, drawn once.

    Returns the distances (a list per stage, one entry per grid point), the
    ``_ks_verdict`` of each stage's largest, the noise budget and the last
    stage's sup-field.  The limit's T per-term cores are sampled once, and
    every stage's in one pass over the family; then the grid is walked one
    point at a time.  A point's rows of all stages are weighed at once from
    the cores into one reused (stages, N) buffer, the last stage's ``|row|``
    is folded into the sup-field, and the buffer is sorted row-wise; its
    limit row is weighed into another reused buffer and sorted there.  All
    stages are scored against it in one call of ``mc._ks_rows``, whatever N
    and limit_n: each distance is the same float with either sample as the
    row.  So memory is O(T (stages N + limit_n) + stages N + limit_n),
    whatever |V|: the cores, the two row buffers, the sup-field and a
    scratch of ``max(stages N, limit_n)`` floats.  Every row, distance and
    sup-field value is that of ``sample_Q_infty``, of the family's
    ``mc._sum_field`` and of ``ks_distance``.
    """
    kvecs, weights = _terms(pk.lam)
    limit = _limit_cores(kvecs, pk.d, limit_n, rng.child(_LIMIT_STREAM), workers)
    # per term, its cores of every stage: one weighing makes every stage's row of a point
    cores = _sum_cores(pk.factors, kvecs, sets, dists, N, rng.child(0), workers).transpose(1, 0, 2)
    roots = np.array([[math.sqrt(L.size)] for L in sets])    # sizes past 2**63 are Python ints
    limit_row, rows, sup = np.empty(limit_n), np.empty((len(sets), N)), np.zeros(N)
    # a second term's products in _weigh, then |row| for the sup-field
    scratch = np.empty(max(rows.size, limit_n) if len(kvecs) > 1 else N)
    products, limit_products = ((scratch[:rows.size].reshape(rows.shape), scratch[:limit_n])
                                if len(kvecs) > 1 else (None, None))
    ks = [[] for _ in sets]
    for w in weights:
        _weigh(cores, w, rows, products)
        rows /= roots
        np.maximum(sup, np.abs(rows[-1], out=scratch[:N]), out=sup)
        rows.sort(axis=1)
        lim = _weigh(limit, w, limit_row, limit_products)
        lim.sort()
        for stage, value in zip(ks, _ks_rows(rows, lim)):
            stage.append(float(value))
    crit = ks_critical(N, limit_n)
    sup = EmpiricalDist(sup, "sup_field", seed=rng.child(0).seed)
    return ks, _ks_verdict([max(row) for row in ks], crit, final_ks), 2.0 * crit, sup


def verify_nclt(kernel: DegenerateKernel, dists, sets, N: int, rng: RngSpec, *,
                limit_n: int = LIMIT_N, final_ks: float = FINAL_KS,
                workers: int = 1) -> ConvergenceReport:
    """KS trajectory of S_L along a growing family of index sets against the chaos limit.

    The family must meet the irregular-domain conditions: the inscribed or
    circumscribed rectangles grow strictly while their deficiency decays
    below ``index_sets._KAPPA_THRESHOLD``.  Rectangles have zero deficiency,
    so for a family of cubes only the growth of the sides counts.  When neither
    condition holds the verdict is "hypotheses not met" and the KS
    trajectory is still reported.  Otherwise pass requires the KS sequence
    nonincreasing within twice the KS critical value and the final stage
    below ``final_ks``.  The KS side is ``check_theorem_8``'s on the one-point
    field ``lambda(0, k) = lambda(k)``, with its hypothesis: analytic factors.
    """
    _require_orthonormal(kernel)
    sets = list(sets)
    cond = nclt_condition_report(sets)
    pk = ParametricKernel([[0.0]], {k: [w] for k, w in kernel.lam.items()}, kernel.factors)
    ks, ks_ok, budget, _ = _chaos_limit_ks(pk, dists, sets, N, rng, limit_n, final_ks, workers)
    rows = [{"stage": i, "L_size": L.size, "kappa_minus": cond.kappa_minus[i],
             "kappa_plus": cond.kappa_plus[i], "min_corner": cond.inner_min_sides[i],
             "ks": row[0]} for i, (L, row) in enumerate(zip(sets, ks))]
    return ConvergenceReport(
        description=f"|L| in {[L.size for L in sets]}",
        stages=tuple(rows), verdict=_verdict(cond.hypotheses_met, ks_ok),
        final_threshold=final_ks, noise_budget=budget,
        hypotheses_met=cond.hypotheses_met)


@dataclass(frozen=True)
class Theorem8Report:
    """Hypothesis evaluation plus grid-marginal KS and sup-moment domination."""

    level: str                       # power | exponential
    hypotheses: dict
    hypotheses_met: bool
    stages: tuple                    # per stage: dict(L_size, ks_per_v, max_ks)
    sup_moment: dict
    verdict: str
    profile: EntropyProfile | None = None

    def to_json(self) -> dict:
        out = asdict(self)
        del out["profile"]
        return out


def check_theorem_8(pk: ParametricKernel, level, L_family, dists, N: int,
                    rng: RngSpec, limit_n: int = LIMIT_N, final_ks: float = FINAL_KS,
                    workers: int = 1) -> Theorem8Report:
    """Evaluate a field-level limit theorem's hypotheses and its empirical content.

    ``level`` is ``("power", p)`` or ``("exponential", tau)``.  Hypotheses:
    the entropy integral at the scaled metric must converge (power), or
    ``sigma_lambda`` finite plus the generalized integral convergent
    (exponential).  Coverings are taken on 64 geometric radii from 1 to 1e-4.
    The empirical side runs the KS check of ``verify_nclt`` at every grid
    point against the shared-beta limit field and checks the sup-field
    moment at p (power) or 2 (exponential) against its majorant times
    ``_SUP_MOMENT_BUDGET``.  On the power level ``G`` is the product over
    axes of the worst used factor moment under the sampling laws.  As for
    ``verify_nclt``, the factors must be analytic and the family nonempty.
    """
    _require_orthonormal(pk)
    L_family = list(L_family)
    if not L_family:
        raise ValueError("empty family")
    kind, arg = level
    eps_grid = np.geomspace(1.0, 1e-4, 64)
    sigma = sigma_lambda(pk)
    if kind == "power":
        p_ref = float(arg)
        g_val = math.prod(_axis_moment_max(pk, dists, p_ref))
        scale = rosenthal_K(p_ref) ** pk.d * g_val
        profile = covering_profile(pk, eps_grid, scale=scale)
        integral = entropy_integral_power(profile, p_ref)
        hyp = {"p": p_ref, "G": g_val, "sigma_lambda": sigma,
               "entropy_integral": integral.value}
        met = math.isfinite(g_val) and not integral.diverged
        majorant = scale * sigma + integral.value
    else:
        p_ref, tau = 2.0, arg
        profile = covering_profile(pk, eps_grid, scale=1.0)
        integral = entropy_integral_exp(profile, tau)
        hyp = {"tau_family": tau.family, "sigma_lambda": sigma,
               "entropy_integral": integral.value}
        met = math.isfinite(sigma) and not integral.diverged
        majorant = float(tau(p_ref)) * (sigma + integral.value)

    ks, ks_ok, _, sup = _chaos_limit_ks(pk, dists, L_family, N, rng, limit_n, final_ks,
                                        workers)
    stages = tuple({"L_size": L.size, "ks_per_v": row, "max_ks": max(row)}
                   for L, row in zip(L_family, ks))
    emp_sup, emp_se = empirical_moment(sup, p_ref)
    sup_ok = bool(emp_sup <= _SUP_MOMENT_BUDGET * majorant + 3 * emp_se)
    sup_report = {"p": p_ref, "empirical": emp_sup, "se": emp_se, "majorant": majorant,
                  "budget": _SUP_MOMENT_BUDGET, "passed": sup_ok}
    return Theorem8Report(level=kind, hypotheses=hyp, hypotheses_met=met,
                          stages=stages, sup_moment=sup_report,
                          verdict=_verdict(met, ks_ok and sup_ok), profile=profile)


# ---------------------------------------------------------------------------
# moment sandwich
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SandwichReport:
    """Lower bound ``D_p``, empirical supremum over index sets, upper bound ``K(p)**d * D_p``."""

    p_grid: tuple
    lower: tuple
    empirical: tuple
    empirical_se: tuple
    upper: tuple
    verdict: str             # pass | fail | hypotheses not met (an empty p-grid)
    shape_fits: dict         # log-log slopes of the two envelopes, see _shape_fits

    def ratios(self):
        return ([e / max(l, 1e-300) for e, l in zip(self.empirical, self.lower)],
                [u / max(e, 1e-300) for u, e in zip(self.upper, self.empirical)])

    def to_json(self) -> dict:
        lo_ratio, hi_ratio = self.ratios()
        return dict(asdict(self), ratio_empirical_over_lower=lo_ratio,
                    ratio_upper_over_empirical=hi_ratio)


def _axis_moment_max(kernel, dists, p: float) -> list:
    """Per axis, the largest ``|g_k|_p`` under the sampling law over the factor indices in use.

    ``kernel`` is anything with ``d``, per-axis ``factors`` and ``lam`` keyed
    by multi-indices: a degenerate or a parametric kernel.
    """
    return [max(kernel.factors[axis].moment(k, p, dists[axis])
                for k in sorted({kvec[axis] for kvec in kernel.lam}))
            for axis in range(kernel.d)]


def _shape_fits(kernel: DegenerateKernel, dists) -> dict:
    """Log-log slopes of the sandwich envelopes against p/ln(p) on [4, 16].

    Both envelopes are quadrature-backed, so the fit window is independent
    of what the Monte Carlo sandwich could estimate.
    """
    p = np.array([4.0, 6.0, 8.0, 12.0, 16.0])
    lower = [dp_quasinorm(kernel, pv, dists) for pv in p]
    upper = [rosenthal_K(pv) ** kernel.d * lo for pv, lo in zip(p, lower)]
    shape = np.log(p / np.log(p))
    return {
        "p_grid": p.tolist(),
        "lower_slope": float(np.polyfit(shape, np.log(lower), 1)[0]),
        "upper_slope": float(np.polyfit(shape, np.log(upper), 1)[0]),
        "expected_lower_slope": float(kernel.d),
        "expected_upper_slope": float(2 * kernel.d),
    }


def verify_moment_sandwich(kernel: DegenerateKernel, dists, L_list, p_grid,
                           N: int, rng: RngSpec, workers: int = 1) -> SandwichReport:
    """Two-sided moment check for rank-one kernels ``w prod g``.

    Lower: ``D_p = |w| prod |g|_p`` under the sampling laws, exact at |L| = 1
    by independence.  Upper: ``K(p)**d * D_p``, the Klesov bound, uniform in L.
    Empirical: the max over the supplied index sets of the simulated moment.
    Pass means lower <= empirical + 3 SE and empirical <= upper + 3 SE
    pointwise on the p-grid; an empty p-grid checks nothing, so its verdict
    is "hypotheses not met".  The report also carries the envelopes' shape
    fits, whose expected slopes are d (lower) and 2d (upper).
    """
    if len(kernel.lam) != 1:
        raise ValueError("the exact lower route needs a rank-one kernel")
    dists = list(dists)
    sims = simulate_family(kernel, L_list, dists, N, rng.child(0), workers)
    lower, upper, emp, emp_se = [], [], [], []
    for p in p_grid:
        lower.append(dp_quasinorm(kernel, p, dists))
        upper.append(rosenthal_K(p) ** kernel.d * lower[-1])
        ests = [empirical_moment(s, p) for s in sims]
        best = max(range(len(ests)), key=lambda i: ests[i][0])
        emp.append(ests[best][0])
        emp_se.append(ests[best][1])
    ok = all(l <= e + 3 * se and e <= u + 3 * se
             for l, e, se, u in zip(lower, emp, emp_se, upper))
    return SandwichReport(tuple(p_grid), tuple(lower), tuple(emp),
                          tuple(emp_se), tuple(upper), _verdict(len(lower) > 0, ok),
                          _shape_fits(kernel, dists))


# ---------------------------------------------------------------------------
# tail domination
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TailDominationReport:
    """Pointwise comparison of empirical tails against the composite bound."""

    y_grid: tuple
    bounds: tuple            # the tail bound at each y_grid point
    rows: tuple              # per index set: L_size, probed_points, violations, worst_ratio
    estimability_floor: float
    violations: int
    min_margin: float        # min over probed points of bound / empirical tail
    verdict: str             # pass | fail | hypotheses not met (no level probed)

    def to_json(self) -> dict:
        out = asdict(self)
        del out["bounds"]
        return out


def natural_composite(kernel: DegenerateKernel, dists, p_grid) -> PsiFunction:
    """Composite generating function built from the kernel's factor moments.

    Per axis, the natural function is the max over used factor indices of
    ``|g_k|_p`` under the simulation law; the composite multiplies the axis
    functions and the d-th power of the Rosenthal function.
    """
    p_grid = np.asarray(p_grid, dtype=float)
    if not p_grid.size or p_grid[0] < 2.0:
        raise ValueError("composite bounds live on a nonempty p-grid with p >= 2")
    table = np.array([_axis_moment_max(kernel, dists, p) for p in p_grid])
    factors = [tabulated_psi(p_grid, table[:, axis]) for axis in range(kernel.d)]
    return rosenthal_scaled(product_of(factors), kernel.d)


def verify_tail_domination(kernel: DegenerateKernel, dists, L_list,
                           psi_composite: PsiFunction, N: int, rng: RngSpec,
                           workers: int = 1) -> TailDominationReport:
    """Check the composite exponential tail bound against simulated tails.

    The bound's norm is ``sum |lambda|`` (the l1 weight of the kernel, which
    majorizes the GLS norm of every S_L).  The levels are 40 geometric steps
    from the bound's validity threshold to the largest simulated |value|; a
    level is probed wherever the empirical tail is at least 10/N, the
    estimability floor.  With no level probed the verdict is "hypotheses not met".
    """
    norm = kernel.lambda_l1
    tb = TailBound(gls_norm=norm, psi=psi_composite)
    floor = 10.0 / N
    L_list = list(L_list)
    sims = list(zip(L_list, simulate_family(kernel, L_list, dists, N, rng.child(0), workers)))
    y_max = max(float(max(-s.values[0], s.values[-1])) for _, s in sims)
    y_lo = tb.validity_threshold
    if y_max <= y_lo:
        y_grid = np.array([y_lo])
    else:
        y_grid = np.geomspace(y_lo, y_max, 40)
    bounds = tb(y_grid)
    rows = []
    violations = 0
    min_margin = math.inf
    for L, sim in sims:
        tails = np.array([empirical_tail(sim, y) for y in y_grid])
        probed = tails >= floor
        bad = int(np.sum(probed & (tails > bounds)))
        violations += bad
        if np.any(probed):
            min_margin = min(min_margin, float(np.min(bounds[probed] / tails[probed])))
        rows.append({
            "L_size": L.size,
            "probed_points": int(np.sum(probed)),
            "violations": bad,
            "worst_ratio": float(np.max(tails / np.maximum(bounds, 1e-300))),
        })
    return TailDominationReport(
        y_grid=tuple(float(y) for y in y_grid),
        bounds=tuple(float(b) for b in bounds),
        rows=tuple(rows),
        estimability_floor=floor,
        violations=violations,
        min_margin=min_margin,
        verdict=_verdict(any(row["probed_points"] for row in rows), violations == 0))
