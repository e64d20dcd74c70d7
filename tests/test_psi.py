"""Generating functions: evaluation, GLS norms, conjugates, tail bounds."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gammaln, logsumexp

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from multisum import (MomentCurve, SupportError, TailBound, bounded_support,
                      exp_power, extremal,
                      gls_norm, natural_psi, power_log, product_of, psi_from_json,
                      psi_to_json, rosenthal_scaled, tabulated_psi, tail_bound_eval,
                      young_fenchel)
from multisum import psi as psi_module
from multisum.parametric import _w_transform

E = math.e


def gaussian_abs_moment(p):
    # independent oracle: direct integration of |x|^p against the normal density
    val, _ = quad(lambda t: abs(t) ** p * math.exp(-t * t / 2) / math.sqrt(2 * math.pi),
                  -np.inf, np.inf)
    return val ** (1.0 / p)


def poisson_compensated_moment(p, kmax=20000):
    # oracle: log-domain series over the Poisson(1) pmf
    k = np.arange(0, kmax)
    vals = np.abs(k - 1.0)
    logw = -1.0 - gammaln(k + 1.0)
    nz = vals > 0
    return float(np.exp(logsumexp(logw[nz] + p * np.log(vals[nz])) / p))


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def test_power_log_closed_form():
    assert power_log(2, 0)(4.0) == pytest.approx(2.0, rel=1e-14)
    assert power_log(1, 0)(7.0) == pytest.approx(7.0, rel=1e-14)
    # at p = 1 the shifted log equals 1, so the value is exactly 1 for any r
    assert power_log(3, 2.5)(1.0) == pytest.approx(1.0, rel=1e-14)


def test_extremal_is_one_on_support():
    psi = extremal(3)
    for p in [1.0, 2.0, 3.0]:
        assert psi(p) == 1.0
    with pytest.raises(SupportError):
        psi(3.0001)


def test_exp_power_value():
    assert exp_power(1, 1)(2.0) == pytest.approx(math.exp(2.0), rel=1e-14)


def test_support_errors_name_the_support():
    with pytest.raises(SupportError, match="power_log"):
        power_log(2, 0)(0.5)
    with pytest.raises(SupportError):
        bounded_support(4, 1.0)(4.0)


@pytest.mark.parametrize("build, params, bad", [
    (power_log, {"m": math.nan}, "m"),
    (power_log, {"m": 2.0, "r": math.inf}, "r"),
    (extremal, {"r": True}, "r"),
    (bounded_support, {"b": 3.0, "gamma": 1.0, "r": math.nan}, "r"),
    (exp_power, {"beta": 1.0, "C": -math.inf}, "C"),
], ids=["power_log-nan-m", "power_log-inf-r", "extremal-bool-r", "bounded_support-nan-r",
        "exp_power-inf-C"])
def test_constructors_refuse_non_finite_and_bool_params(build, params, bad):
    # NaN once passed every range check (NaN <= 0 is false) and True ran as 1.0
    with pytest.raises(ValueError, match=f"'{build.__name__}' param '{bad}'"):
        build(**params)


def test_bounded_support_normalized_at_one():
    psi = bounded_support(6, 2.0, r=1.0)
    assert psi(1.0) == pytest.approx(1.0, rel=1e-12)
    assert psi(5.9) > psi(3.0) > 1.0


# ---------------------------------------------------------------------------
# GLS norms and natural functions
# ---------------------------------------------------------------------------


def test_gls_norm_of_own_psi_is_one():
    psi = power_log(2, 0)
    grid = np.geomspace(1, 16, 20)
    curve = MomentCurve(grid, psi(grid))
    assert gls_norm(curve, psi) == pytest.approx(1.0, rel=1e-14)


def test_gls_norm_extremal_reduction():
    grid = np.array([1.0, 2.0, 3.0, 4.0])
    vals = np.array([gaussian_abs_moment(p) for p in grid])
    curve = MomentCurve(grid, vals)
    norm = gls_norm(curve, extremal(4))
    assert norm == pytest.approx(3 ** 0.25, rel=1e-10)   # E xi^4 = 3 oracle
    assert norm == vals[-1]                              # exactly the p = r value


def test_gls_norm_grid_refinement_stable():
    psi = power_log(2, 0)
    norms = []
    for n in (200, 400):
        grid = np.geomspace(1, 16, n)
        vals = np.array([gaussian_abs_moment(p) for p in grid])
        norms.append(gls_norm(MomentCurve(grid, vals), psi))
    assert norms[0] == pytest.approx(norms[1], rel=0.01)
    assert math.isfinite(norms[1]) and norms[1] > 0


def test_empty_or_bad_curves_rejected():
    with pytest.raises(ValueError):
        MomentCurve(np.array([]), np.array([]))
    with pytest.raises(ValueError):
        MomentCurve(np.array([1.0, 1.0]), np.array([1.0, 1.0]))
    with pytest.raises(ValueError):   # Lyapunov violation
        MomentCurve(np.array([2.0, 4.0]), np.array([2.0, 1.0]))


def test_natural_psi_norm_one_and_pointwise():
    grid = np.geomspace(2, 32, 12)
    vals = np.array([gaussian_abs_moment(p) for p in grid])
    curve = MomentCurve(grid, vals)
    nat = natural_psi(curve)
    assert gls_norm(curve, nat) == pytest.approx(1.0, rel=1e-12)
    for p, v in zip(grid, vals):
        assert nat(p) == pytest.approx(v, rel=1e-12)


def test_natural_psi_poisson_growth_ratio():
    # the compensated Poisson moment curve grows like p / ln p:
    # psi(2p)/psi(p) -> 2, within 10 percent (relative) by p = 4096
    p = 4096.0
    grid = np.array([p, 2 * p])
    vals = np.array([poisson_compensated_moment(q) for q in grid])
    nat = natural_psi(MomentCurve(grid, vals))
    ratio = nat(2 * p) / nat(p)
    assert abs(ratio - 2.0) <= 0.1 * 2.0


# ---------------------------------------------------------------------------
# Young-Fenchel conjugate
# ---------------------------------------------------------------------------


def test_conjugate_extremal_linear():
    assert young_fenchel(extremal(3), 1.0) == pytest.approx(3.0, rel=1e-9)
    assert young_fenchel(extremal(5), 2.0) == pytest.approx(10.0, rel=1e-9)


def test_conjugate_power_log_closed_form():
    # stationarity p* = exp(m x - 1) gives v*(x) = exp(m x - 1) / m
    for m in (1.0, 2.0, 4.0):
        psi = power_log(m, 0)
        for x in np.linspace(1.0, 5.0, 9):
            expected = math.exp(m * x - 1.0) / m
            assert young_fenchel(psi, x) == pytest.approx(expected, rel=1e-3)


def test_conjugate_matches_dense_grid_oracle():
    psi = power_log(2, 0)
    x = 2.0
    p = np.geomspace(1, 1e6, 400_000)
    oracle = np.max(x * p - p * np.log(psi(p)))
    assert young_fenchel(psi, x) == pytest.approx(float(oracle), rel=1e-6)
    assert young_fenchel(psi, x) >= oracle - 1e-9   # grid search is a lower bound


def test_conjugate_monotone_convex():
    xs = np.linspace(1.0, 5.0, 41)
    for psi in (power_log(2, 0), power_log(1, 1.0), exp_power(0.5, 1.0),
                bounded_support(8, 1.0)):
        vals = np.array([young_fenchel(psi, x) for x in xs])
        assert np.all(np.diff(vals) >= -1e-9)
        second = np.diff(vals, 2)
        assert np.all(second >= -1e-9 * np.maximum(1.0, np.abs(vals[1:-1])))


def test_conjugate_grid_density_stable(monkeypatch):
    for psi in (power_log(2, 0), power_log(4, 0), exp_power(1, 1),
                bounded_support(8, 1.0), extremal(6)):
        for x in (1.0, 3.0, 5.0):
            monkeypatch.setattr(psi_module, "_GRID_POINTS", 512)
            a = young_fenchel(psi, x)
            monkeypatch.setattr(psi_module, "_GRID_POINTS", 1024)
            b = young_fenchel(psi, x)
            assert a == pytest.approx(b, rel=5e-3)


CLOSED_FORM = settings(max_examples=150, deadline=None, derandomize=True)


@CLOSED_FORM
@given(st.floats(0.5, 8.0), st.floats(1.0, 5.0))
def test_conjugate_power_log_closed_form_exact(m, x):
    # p* = exp(m x - 1) lies in the support [1, inf) when m x >= 1
    assume(m * x >= 1.0)
    assert young_fenchel(power_log(m, 0), x) == pytest.approx(
        math.exp(m * x - 1.0) / m, rel=1e-12)


@CLOSED_FORM
@given(st.floats(0.5, 8.0), st.floats(1.0, 5.0))
def test_w_transform_power_log_closed_form_exact(m, x):
    # inf_y (x y - ln(y) / m) sits at y* = 1 / (m x), inside (0, 1] when m x >= 1
    assume(m * x >= 1.0)
    w = _w_transform(power_log(m, 0), np.array([x]))[0]
    assert w == pytest.approx((1.0 + math.log(m * x)) / m, rel=1e-12)


def test_conjugate_divergence_marker():
    # nearly flat generating function: the maximizer sits astronomically far
    # out, beyond the hard grid cap, and is reported as divergent
    assert math.isinf(young_fenchel(power_log(1e6, 0), 1.0))


# ---------------------------------------------------------------------------
# array conjugates against the one-x-at-a-time reference
# ---------------------------------------------------------------------------

# The scalar search as it was before conjugates took arrays, kept verbatim as
# the reference: every array result must equal it bit for bit.


def _objective(psi, x: float, p: np.ndarray) -> np.ndarray:
    return x * p - p * psi._log_eval_raw(p)


def reference_golden_max(fun, lo: float, hi: float) -> float:
    """Maximum of a unimodal scalar ``fun`` on ``[lo, hi]`` by golden-section search."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fun(c), fun(d)
    for _ in range(90):
        if b - a < 1e-14 * max(1.0, abs(a)):
            break
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fun(d)
    return max(fc, fd, fun(0.5 * (a + b)))


def reference_young_fenchel(psi, x: float, grid_points: int = 512) -> float:
    x = float(x)
    lo = psi.p_min
    if math.isfinite(psi.support_upper):
        hi = psi.support_upper if psi.closed_top else psi.support_upper * (1 - 1e-12)
        if hi <= lo:
            hi = psi.support_upper
        grid = np.geomspace(lo, hi, grid_points)
        obj = _objective(psi, x, grid)
        k = int(np.nanargmax(obj))
    else:
        cap = 1.0e4
        while True:
            grid = np.geomspace(lo, cap, grid_points)
            obj = _objective(psi, x, grid)
            k = int(np.nanargmax(obj))
            at_edge = k >= grid_points - 8
            if not at_edge:
                break
            if cap >= 1.0e18:
                # increasing over the whole last decade: divergent conjugate
                decade = grid >= cap / 10.0
                dv = np.diff(obj[decade])
                if np.all(dv >= 0):
                    return math.inf
                break
            cap = min(cap * 100.0, 1.0e18)
    a = grid[max(k - 1, 0)]
    b = grid[min(k + 1, len(grid) - 1)]
    fun = lambda p: float(_objective(psi, x, np.asarray([p]))[0])
    best = reference_golden_max(fun, a, b)
    return float(max(best, obj[k]))


def reference_tail_bound_eval(tb, y: float) -> float:
    y = float(y)
    if y < 0:
        raise ValueError("tail levels are nonnegative")
    if y < tb.validity_threshold:
        return 1.0
    v_star = reference_young_fenchel(tb.psi, math.log(y / tb.gls_norm))
    if math.isinf(v_star):
        return 0.0
    return min(1.0, math.exp(-v_star))


def reference_w_transform(tau, xs: np.ndarray) -> np.ndarray:
    y_hi = 1.0 / tau.p_min
    if math.isfinite(tau.support_upper):
        y_lo = 1.0 / tau.support_upper + 1e-9
    else:
        y_lo = 1e-9
    grid = np.geomspace(y_lo, y_hi, 600)
    z = tau._log_eval_raw(1.0 / grid)
    out = np.empty(xs.shape)
    for i, x in enumerate(xs):
        vals = x * grid + z
        k = int(np.argmin(vals))
        a, b = grid[max(k - 1, 0)], grid[min(k + 1, grid.size - 1)]
        # golden-section refinement: the infimum is minus the maximum of -f
        fun = lambda y: -(x * y + float(tau._log_eval_raw(np.asarray([1.0 / y]))[0]))
        out[i] = min(vals[k], -reference_golden_max(fun, a, b))
    return out


def _tabulated(draw):
    # nodes 1, 2, ...: the support reaches p = 2, where the Rosenthal factor starts
    p = np.cumsum(draw(st.lists(st.floats(0.25, 6.0), min_size=1, max_size=8)))
    p_grid = np.concatenate([[1.0, 2.0], 2.0 + p])
    logs = np.cumsum(draw(st.lists(st.floats(0.0, 1.5), min_size=p_grid.size,
                                   max_size=p_grid.size)))
    return tabulated_psi(p_grid, np.exp(logs))


@st.composite
def psi_functions(draw):
    family = draw(st.sampled_from(["power_log", "exp_power", "bounded_support", "extremal",
                                   "tabulated", "product_of", "rosenthal_scaled"]))
    if family == "power_log":
        # m up to 1e7: maximizers exp(m x - 1) past the initial cap and past the hard one
        return power_log(10.0 ** draw(st.floats(-0.3, 7.0)), draw(st.floats(0.0, 2.0)))
    if family == "exp_power":
        return exp_power(draw(st.floats(0.2, 2.0)), draw(st.floats(0.1, 3.0)))
    if family == "bounded_support":
        return bounded_support(draw(st.floats(1.5, 20.0)), draw(st.floats(-0.9, 3.0)),
                               draw(st.floats(0.0, 2.0)))
    if family == "extremal":
        return extremal(draw(st.floats(1.0, 20.0)))
    if family == "tabulated":
        return _tabulated(draw)
    pair = product_of([power_log(draw(st.floats(0.5, 4.0)), draw(st.floats(0.0, 1.0))),
                       _tabulated(draw)])
    if family == "product_of":
        return pair
    return rosenthal_scaled(pair, draw(st.integers(1, 3)))


ARRAY_VS_REFERENCE = settings(max_examples=60, deadline=None, derandomize=True)
LEVELS = st.lists(st.floats(-1.0, 12.0), min_size=1, max_size=10)


@ARRAY_VS_REFERENCE
@given(psi_functions(), LEVELS)
def test_array_conjugate_equals_scalar_reference(psi, xs):
    got = young_fenchel(psi, np.array(xs))
    np.testing.assert_array_equal(got, [reference_young_fenchel(psi, x) for x in xs])
    scalar = young_fenchel(psi, xs[0])
    assert type(scalar) is float and scalar == got[0]


@ARRAY_VS_REFERENCE
@given(psi_functions(), st.floats(0.1, 3.0),
       st.lists(st.floats(0.0, 300.0), min_size=1, max_size=10))
def test_array_tail_bound_equals_scalar_reference(psi, norm, ys):
    tb = TailBound(norm, psi)
    ys = ys + [0.5 * tb.validity_threshold]   # below the threshold: clamped to 1
    got = tail_bound_eval(tb, np.array(ys))
    np.testing.assert_array_equal(got, [reference_tail_bound_eval(tb, y) for y in ys])
    assert tb(ys[0]) == got[0]
    with pytest.raises(ValueError):
        tail_bound_eval(tb, np.array(ys + [-1.0]))


@ARRAY_VS_REFERENCE
@given(psi_functions(), st.lists(st.floats(0.0, 20.0), min_size=1, max_size=10))
def test_array_w_transform_equals_scalar_reference(tau, xs):
    xs = np.array(xs)
    np.testing.assert_array_equal(_w_transform(tau, xs), reference_w_transform(tau, xs))


def test_array_conjugate_blocks_and_shape(monkeypatch):
    # long x arrays are searched in blocks of _X_BLOCK; blocks and shape change no value
    psi = rosenthal_scaled(power_log(3.0, 0.5), 1)
    xs = np.linspace(-1.0, 12.0, 50)
    whole = young_fenchel(psi, xs)
    monkeypatch.setattr(psi_module, "_X_BLOCK", 7)
    np.testing.assert_array_equal(young_fenchel(psi, xs.reshape(5, 10)), whole.reshape(5, 10))
    assert young_fenchel(psi, []).shape == (0,)


def test_array_conjugate_extends_caps_per_element():
    # one x settles on the first grid, one needs the 1e6 cap, one diverges
    psi = power_log(5.0, 0)
    xs = np.array([1.0, 2.6, 10.0])
    got = young_fenchel(psi, xs)
    assert math.isinf(got[2]) and np.all(np.isfinite(got[:2]))
    np.testing.assert_array_equal(got, [reference_young_fenchel(psi, x) for x in xs])


# ---------------------------------------------------------------------------
# tail bounds
# ---------------------------------------------------------------------------


def test_tail_bound_threshold_and_clamp():
    tb = TailBound(1.0, power_log(2, 0))
    y0 = tb.validity_threshold
    assert y0 == pytest.approx(E)
    assert tail_bound_eval(tb, 0.5 * y0) == 1.0
    assert tail_bound_eval(tb, y0) == pytest.approx(
        math.exp(-young_fenchel(tb.psi, 1.0)), rel=1e-9)
    with pytest.raises(ValueError):
        tail_bound_eval(tb, -1.0)


def test_tail_bound_subgaussian_value():
    tb = TailBound(1.0, power_log(2, 0))
    assert tail_bound_eval(tb, 3.0) == pytest.approx(math.exp(-9 / (2 * E)), rel=5e-3)


def test_tail_bound_power_log_shape():
    # exp(-y^m / (m e)) for the pure power family with unit norm
    for m in (1.0, 2.0):
        tb = TailBound(1.0, power_log(m, 0))
        for y in np.geomspace(E, 40.0, 8):
            assert tail_bound_eval(tb, y) == pytest.approx(
                math.exp(-y ** m / (m * E)), rel=5e-3)


def test_tail_bound_exp_power_shape():
    # v(p) = C p^(1+beta) conjugates to C2 x^(1+1/beta); check against the
    # stationarity closed form and the log(1+y) shape fit
    beta, c = 1.0, 1.0
    tb = TailBound(1.0, exp_power(beta, c))
    c2 = c ** (-1 / beta) * (1 + beta) ** (-1 / beta) * beta / (1 + beta)
    ys = np.geomspace(math.exp(2), math.exp(8), 10)
    neglog = np.array([-math.log(tail_bound_eval(tb, y)) for y in ys])
    expected = c2 * np.log(ys) ** (1 + 1 / beta)
    assert np.allclose(neglog, expected, rtol=5e-3)
    slope = np.polyfit(np.log(np.log1p(ys[3:])), np.log(neglog[3:]), 1)[0]
    assert slope == pytest.approx(1 + 1 / beta, rel=0.05)


def test_tail_bound_nonincreasing_in_unit_range():
    tb = TailBound(2.0, power_log(2, 0))
    ys = np.linspace(0.0, 30.0, 200)
    vals = [tail_bound_eval(tb, y) for y in ys]
    assert all(0 < v <= 1 for v in vals)
    assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))


def test_round_trip_moment_refit_within_factor_four():
    # rebuild a moment curve from the tail bound via p * int y^(p-1) T(y) dy;
    # the refit norm must stay within constants of the original (factor 4 budget)
    psi = power_log(2, 0)
    tb = TailBound(1.0, psi)
    p_grid = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
    vals = []
    for p in p_grid:
        body, _ = quad(lambda y: p * y ** (p - 1) * tail_bound_eval(tb, y),
                       0, 200.0, limit=400)
        vals.append(body ** (1.0 / p))
    refit = gls_norm(MomentCurve(p_grid, np.maximum.accumulate(vals)), psi)
    assert 0.25 <= refit <= 4.0


# ---------------------------------------------------------------------------
# composition
# ---------------------------------------------------------------------------


def test_compose_identity_at_power_zero():
    psi = extremal(3)
    comp = product_of([psi])
    assert comp(2.0) == 1.0
    assert comp.support_upper == 3.0


def test_compose_growth_exponent_matches_formula():
    # composite K(p)^d * prod p^(1/m_k): log-log slope 1/m0 with
    # m0 = 1 / (d + sum 1/m_k); fit far out so the log corrections decay
    m = (2.0, 2.0)
    d = 2
    comp = rosenthal_scaled(product_of([power_log(mk, 0) for mk in m]), d)
    inv_m0 = d + sum(1.0 / mk for mk in m)
    p = np.geomspace(math.exp(12), math.exp(40), 60)
    slope = np.polyfit(np.log(p), np.log(comp(p)), 1)[0]
    assert 1.0 / slope == pytest.approx(1.0 / inv_m0, rel=0.05)


def test_compose_bounded_support_blowup_exponent():
    # all factors share the minimal support edge: blow-up exponent is
    # sum (theta_k + 1) / b0
    b0 = 8.0
    thetas = (1.0, 2.0)
    comp = rosenthal_scaled(product_of([bounded_support(b0, th) for th in thetas]), 2)
    theta_total = sum((th + 1.0) / b0 for th in thetas)
    gaps = np.geomspace(1e-6, 1e-3, 30)
    p = b0 - gaps
    slope = np.polyfit(-np.log(gaps), np.log(comp(p)), 1)[0]
    assert slope == pytest.approx(theta_total, rel=0.02)


def test_compose_empty_intersection_raises():
    with pytest.raises(SupportError):
        rosenthal_scaled(product_of([extremal(1.5)]), 1)


def test_compose_restricts_to_p_at_least_two():
    comp = rosenthal_scaled(product_of([power_log(2, 0)]), 1)
    assert comp.p_min == 2.0
    with pytest.raises(SupportError):
        comp(1.5)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


TABLE = tabulated_psi([1.0, 2.0, 4.0, 8.0], [1.0, 1.5, 2.0, 3.0])


@pytest.mark.parametrize("psi", [
    power_log(2, 0.5),
    extremal(4),
    bounded_support(6, 1.5, r=1.0),
    exp_power(0.5, 2.0),
    rosenthal_scaled(product_of([power_log(2, 0), extremal(8)]), 2),
    TABLE,
    product_of([power_log(3, 1.0), TABLE]),
    rosenthal_scaled(exp_power(0.5, 0.2), 3),
    rosenthal_scaled(product_of([power_log(2, 0.5), TABLE,
                                 rosenthal_scaled(bounded_support(7, 0.5), 1)]), 2),
])
def test_json_round_trip(psi):
    clone = psi_from_json(psi_to_json(psi))
    assert psi_to_json(clone) == psi_to_json(psi)
    grid = np.linspace(max(2.0, clone.p_min), min(clone.support_upper, 5.0), 7)
    if clone.closed_top:
        probe = grid
    else:
        probe = grid[:-1]
    assert np.allclose(clone(probe), psi(probe), rtol=1e-12)


def test_tabulated_round_trip():
    grid = np.array([2.0, 4.0, 8.0])
    vals = np.array([1.0, 1.5, 2.5])
    psi = tabulated_psi(grid, vals)
    clone = psi_from_json(psi_to_json(psi))
    # log-linear interpolation between nodes
    assert clone(4.0) == pytest.approx(1.5, rel=1e-12)
    mid = clone(math.sqrt(2.0 * 4.0))
    assert mid == pytest.approx(math.sqrt(1.0 * 1.5), rel=1e-12)
    # constant extension below the grid, closed top at the last node
    assert clone(1.0) == pytest.approx(1.0)
    assert clone(8.0) == pytest.approx(2.5)
    with pytest.raises(SupportError):
        clone(8.5)
