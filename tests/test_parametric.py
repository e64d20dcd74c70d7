"""Parametric fields: weight functionals, coverings, entropy integrals, field sims."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from multisum import (AxisDistribution, EmpiricalDist, ks_distance, DegenerateKernel, EntropyProfile, FactorFamily,
                      ParametricKernel, RngSpec, check_theorem_8,
                      covering_profile, entropy_integral_exp,
                      entropy_integral_power, extremal,
                      lshape_family, make_rect, power_log, rho_lambda,
                      sigma_lambda, simulate_Q_L, simulate_S_L, verify_nclt)
from multisum.parametric import (_exact_cover_count, _greedy_radii,
                                 parametric_kernel_from_json,
                                 parametric_kernel_to_json, sample_Q_infty)
from multisum import verify

GAUSS2 = [AxisDistribution("standard_normal")] * 2


def line_grid_pk(nv=11, orthonormal=True):
    """lambda(v, (1,1)) = v on an equispaced [0, 1] grid: rho = |v - w|."""
    v = np.linspace(0.0, 1.0, nv)
    return ParametricKernel(v[:, None], {(1, 1): v.copy()},
                            [FactorFamily("hermite")] * 2, orthonormal=orthonormal)


# ---------------------------------------------------------------------------
# weight functionals
# ---------------------------------------------------------------------------


def test_sigma_lambda_examples():
    pk = line_grid_pk(3)
    assert sigma_lambda(pk) == 1.0
    const = ParametricKernel(np.zeros((4, 1)),
                             {(1, 1): np.full(4, 0.6), (2, 2): np.full(4, 0.4)},
                             [FactorFamily("hermite")] * 2)
    assert sigma_lambda(const) == pytest.approx(1.0, rel=1e-14)


def test_sigma_lambda_matches_scan_oracle():
    rng = np.random.default_rng(7)
    lam = {(1, 1): rng.normal(size=6), (2, 1): rng.normal(size=6),
           (1, 2): rng.normal(size=6)}
    pk = ParametricKernel(np.arange(6)[:, None], lam, [FactorFamily("hermite")] * 2)
    oracle = max(sum(abs(w[v]) for w in lam.values()) for v in range(6))
    assert sigma_lambda(pk) == pytest.approx(oracle, rel=1e-14)


def test_rho_lambda_basics_and_triangle():
    pk = line_grid_pk(3)   # grid 0, 0.5, 1
    assert rho_lambda(pk, 1, 1) == 0.0
    assert rho_lambda(pk, 0, 2) == pytest.approx(1.0, rel=1e-14)
    with pytest.raises(ValueError):
        rho_lambda(pk, 0, 7)
    rng = np.random.default_rng(11)
    lam = {(1, 1): rng.normal(size=9), (2, 2): rng.normal(size=9)}
    pk2 = ParametricKernel(np.arange(9)[:, None], lam, [FactorFamily("hermite")] * 2)
    for a, b, c in itertools.islice(itertools.permutations(range(9), 3), 100):
        assert rho_lambda(pk2, a, c) <= (rho_lambda(pk2, a, b)
                                         + rho_lambda(pk2, b, c) + 1e-12)


# ---------------------------------------------------------------------------
# covering numbers
# ---------------------------------------------------------------------------


def brute_force_min_cover(dist, eps):
    """Oracle: smallest center subset whose eps-balls cover everything."""
    n = dist.shape[0]
    cover = dist <= eps
    for k in range(1, n + 1):
        for combo in itertools.combinations(range(n), k):
            if np.any(cover[list(combo)], axis=0).all():
                return k
    return n


def test_single_point_profile():
    pk = line_grid_pk(1)
    prof = covering_profile(pk, np.geomspace(1.0, 1e-3, 40))
    assert np.all(prof.counts == 1.0)


def test_eleven_point_grid_exact_covers():
    pk = line_grid_pk(11)
    dist = pk.rho_matrix()
    eps_grid = np.array([1.0, 0.5, 0.3, 0.25, 0.2, 0.15, 0.1, 0.05, 0.04])
    prof = covering_profile(pk, eps_grid)
    assert prof.exact
    for e, n in zip(prof.eps, prof.counts):
        assert n == brute_force_min_cover(dist, float(e))
    # closed balls of radius 0.25 reach 2 grid steps: three centers needed
    at = {float(e): c for e, c in zip(prof.eps, prof.counts)}
    assert at[0.25] == 3.0
    assert at[0.5] == 1.0 or at[0.5] == 2.0


def test_greedy_within_factor_two_of_exact():
    rng = np.random.default_rng(13)
    for _ in range(5):
        nv = int(rng.integers(5, 15))
        lam = {(1, 1): rng.uniform(0, 1, nv), (2, 2): rng.uniform(0, 1, nv)}
        pk = ParametricKernel(np.arange(nv)[:, None], lam, [FactorFamily("hermite")] * 2)
        dist = pk.rho_matrix()
        radii = _greedy_radii(dist)
        for eps in (0.8, 0.4, 0.2, 0.1):
            greedy_n = int(np.argmax(radii <= eps)) + 1 if np.any(radii <= eps) else nv
            exact_n = brute_force_min_cover(dist, eps)
            assert exact_n <= greedy_n <= 2 * exact_n


@st.composite
def metrics_and_radii(draw):
    """An l1 metric on up to 10 points (ties likely) and a radius from 0 to past the diameter."""
    coord = st.one_of(st.integers(0, 5), st.floats(0.0, 1.0))
    pts = np.array(draw(st.lists(st.tuples(coord, coord, coord), min_size=1, max_size=10)),
                   dtype=float)
    dist = np.abs(pts[:, None, :] - pts[None, :, :]).sum(axis=-1)
    diam = float(dist.max())
    eps = draw(st.one_of(st.just(0.0), st.just(diam), st.sampled_from(sorted(dist.flat)),
                         st.floats(0.0, 1.5).map(lambda f: f * diam + f)))
    return dist, eps


@settings(max_examples=200, deadline=None, derandomize=True)
@given(metrics_and_radii())
def test_exact_cover_count_matches_brute_force(case):
    dist, eps = case
    n = dist.shape[0]
    assert _exact_cover_count(dist, eps, n) == brute_force_min_cover(dist, eps)


def test_exact_cover_scales_to_twenty_points():
    # the exhaustive search over center subsets took minutes on this profile
    pk = line_grid_pk(20)
    eps = np.geomspace(1.0, 1e-3, 64)
    prof = covering_profile(pk, eps)
    radii = _greedy_radii(pk.rho_matrix())
    greedy = [int(np.argmax(radii <= e)) + 1 if np.any(radii <= e) else 20 for e in prof.eps]
    assert prof.exact
    assert np.all(prof.counts <= greedy)
    assert prof.counts[0] == 1.0 and prof.counts[-1] == 20.0


def test_holder_slope_recovery():
    # Lipschitz weights on [0,1]: covering numbers grow like 1/eps, so the
    # fitted log N against log(1/eps) slope is about l / alpha = 1; the grid
    # must be fine enough that ball widths span many grid steps
    pk = line_grid_pk(401)
    eps_grid = np.geomspace(0.1, 0.01, 20)
    prof = covering_profile(pk, eps_grid)
    mask = (prof.counts >= 3) & (prof.counts <= 100)
    slope = np.polyfit(np.log(1.0 / prof.eps[mask]), np.log(prof.counts[mask]), 1)[0]
    assert slope == pytest.approx(1.0, rel=0.15)


def test_profile_validation():
    with pytest.raises(ValueError):
        EntropyProfile(np.array([0.5, 0.9]), np.array([2.0, 1.0]))   # eps ascending
    with pytest.raises(ValueError):
        EntropyProfile(np.array([0.9, 0.5]), np.array([2.0, 1.0]))   # N decreasing
    prof = EntropyProfile(np.array([1.0, 0.5]), np.array([1.0, 3.0]))
    assert prof.entropy[1] == pytest.approx(math.log(3.0))


# ---------------------------------------------------------------------------
# entropy integrals
# ---------------------------------------------------------------------------


def test_power_integral_constant_profile():
    eps = np.geomspace(1.0, 1e-5, 64)
    prof = EntropyProfile(eps, np.ones(64))
    res = entropy_integral_power(prof, 2.0)
    assert res.value == pytest.approx(1.0, rel=1e-9)


def test_power_integral_sqrt_two():
    eps = np.geomspace(1.0, 1e-6, 96)
    prof = EntropyProfile(eps, 1.0 / (2.0 * eps))
    res = entropy_integral_power(prof, 2.0)
    assert res.value == pytest.approx(math.sqrt(2.0), rel=0.03)


def test_power_integral_divergence_marker():
    eps = np.geomspace(1.0, 1e-6, 64)
    prof = EntropyProfile(eps, eps ** -2.5)
    res = entropy_integral_power(prof, 2.0)
    assert res.diverged
    assert res.tail_exponent == pytest.approx(1.25, rel=0.05)
    assert not entropy_integral_power(prof, 4.0).diverged


def test_power_integral_needs_dense_profile():
    eps = np.geomspace(1.0, 1e-3, 8)
    prof = EntropyProfile(eps, np.ones(8))
    with pytest.raises(ValueError):
        entropy_integral_power(prof, 2.0)


def test_exp_integral_flat_entropy_is_one():
    eps = np.geomspace(1.0, 1e-5, 64)
    prof = EntropyProfile(eps, np.ones(64))
    res = entropy_integral_exp(prof, extremal(4))
    assert res.value == pytest.approx(1.0, rel=1e-9)


def test_exp_integral_power_log_oracle():
    # tau(p) = sqrt(p): w(x) = x for x < 1/2, else 1/2 + ln(2x)/2; check the
    # generalized integral against direct quadrature of the closed form
    eps = np.geomspace(1.0, 1e-6, 128)
    prof = EntropyProfile(eps, 1.0 / eps)          # H = ln(1/eps)
    res = entropy_integral_exp(prof, power_log(2, 0))

    def w(x):
        return x if x < 0.5 else 0.5 + 0.5 * math.log(2 * x)
    oracle, _ = quad(lambda e: math.exp(w(math.log(1 / e))) if e < 1 else 1.0,
                     0, 1, limit=200)
    assert res.value == pytest.approx(oracle, rel=0.02)


def test_exp_integral_constant_entropy_matches_scan():
    eps = np.geomspace(1.0, 1e-4, 64)
    c = 3.0
    prof = EntropyProfile(eps, np.full(64, math.exp(c)))
    res = entropy_integral_exp(prof, power_log(2, 0))
    ys = np.geomspace(1e-9, 1.0, 200_000)
    scan = float(np.min(c * ys - 0.5 * np.log(ys)))   # x y + ln tau(1/y)
    assert res.value == pytest.approx(math.exp(scan), rel=1e-3)


def test_exp_integral_monotone_in_tau():
    eps = np.geomspace(1.0, 1e-4, 64)
    prof = EntropyProfile(eps, 1.0 / eps)
    small = entropy_integral_exp(prof, power_log(4, 0))   # pointwise smaller tau
    large = entropy_integral_exp(prof, power_log(1, 0))
    assert small.value <= large.value


# ---------------------------------------------------------------------------
# field simulation
# ---------------------------------------------------------------------------


def test_singleton_grid_reduces_to_scalar_sim():
    v = np.array([[0.7]])
    pk = ParametricKernel(v, {(1, 1): np.array([0.8]), (2, 2): np.array([0.2])},
                          [FactorFamily("hermite")] * 2, orthonormal=True)
    for L in (make_rect([4, 5]), lshape_family([6])[0]):
        per_v, sup = simulate_Q_L(pk, L, GAUSS2, 800, RngSpec(61))
        scalar = simulate_S_L(pk.slice_kernel(0), L, GAUSS2, 800, RngSpec(61))
        assert np.array_equal(per_v[0].values, scalar.values)       # bit-identical
        assert np.array_equal(sup.values, np.sort(np.abs(scalar.values)))


def test_constant_weights_sup_is_absolute_value():
    pk = ParametricKernel(np.arange(3)[:, None],
                          {(1, 1): np.full(3, 1.0)}, [FactorFamily("hermite")] * 2,
                          orthonormal=True)
    L = make_rect([3, 3])
    per_v, sup = simulate_Q_L(pk, L, GAUSS2, 500, RngSpec(67))
    for v in range(3):
        assert np.array_equal(per_v[v].values, per_v[0].values)
    assert np.array_equal(sup.values, np.sort(np.abs(per_v[0].values)))


def test_field_needs_one_axis_law_per_axis():
    # a short list of laws is refused, not zipped down to fewer axes than the kernel has
    pk = ParametricKernel(np.zeros((1, 1)), {(1, 1): np.array([1.0])},
                          [FactorFamily("hermite")] * 2, orthonormal=True)
    with pytest.raises(ValueError, match="one axis distribution per kernel axis"):
        simulate_Q_L(pk, make_rect([4, 4]), GAUSS2[:1], 10, RngSpec(1))
    with pytest.raises(ValueError, match="one axis distribution per kernel axis"):
        verify_nclt(pk.slice_kernel(0), GAUSS2[:1], [make_rect([4, 4])], 10, RngSpec(1))


def test_two_point_limit_covariance():
    lam = {(1, 1): np.array([1.0, 0.6]), (2, 2): np.array([0.0, 0.8])}
    pk = ParametricKernel(np.array([[0.0], [1.0]]), lam,
                          [FactorFamily("hermite")] * 2, orthonormal=True)
    mat = sample_Q_infty(pk, 100_000, RngSpec(71))
    prods = mat[0] * mat[1]
    expected = sum(w[0] * w[1] for w in lam.values())
    se = prods.std(ddof=1) / math.sqrt(prods.size)
    assert abs(prods.mean() - expected) <= 3 * se


def test_check_theorem8_power_level_holder():
    pk = line_grid_pk(9)
    report = check_theorem_8(pk, ("power", 2.0), [make_rect([4, 4]), make_rect([12, 12])],
                             GAUSS2, 4000, RngSpec(73), limit_n=20_000)
    assert report.hypotheses_met
    assert math.isfinite(report.hypotheses["entropy_integral"])
    assert report.verdict == "pass"
    assert report.sup_moment["passed"]


def test_check_theorem8_singleton_matches_rect_verifier():
    v = np.array([[0.0]])
    pk = ParametricKernel(v, {(1, 1): np.array([1.0])}, [FactorFamily("hermite")] * 2,
                          orthonormal=True)
    rep8 = check_theorem_8(pk, ("power", 2.0), [make_rect([4, 4]), make_rect([16, 16])],
                           GAUSS2, 3000, RngSpec(79), limit_n=20_000)
    rect = verify_nclt(pk.slice_kernel(0), GAUSS2, [make_rect([4, 4]), make_rect([16, 16])], 3000,
                       RngSpec(79), limit_n=20_000)
    ks8 = [s["max_ks"] for s in rep8.stages]
    ksr = [row["ks"] for row in rect.stages]
    assert ks8 == ksr         # one KS routine: nclt is the one-point field
    assert rep8.verdict == rect.verdict == "pass"


def test_parametric_json_round_trip():
    pk = line_grid_pk(4)
    clone = parametric_kernel_from_json(parametric_kernel_to_json(pk))
    assert clone.n_points == 4
    assert sigma_lambda(clone) == sigma_lambda(pk)
    assert rho_lambda(clone, 0, 3) == pytest.approx(rho_lambda(pk, 0, 3), rel=1e-14)


def test_parametric_json_rejects_bad_point_rows():
    obj = parametric_kernel_to_json(line_grid_pk(4))
    for bad in (-1, 4, 1.0):
        rows = [dict(row) for row in obj["lambda"]]
        rows[-1]["v_index"] = bad
        with pytest.raises(ValueError, match="v_index"):
            parametric_kernel_from_json(dict(obj, **{"lambda": rows}))
    repeated = dict(obj, **{"lambda": obj["lambda"] + obj["lambda"][:1]})
    with pytest.raises(ValueError, match="repeated"):
        parametric_kernel_from_json(repeated)


@pytest.mark.parametrize("lam", [
    {(0, 1): [1.0, 1.0], (2, 1): [0.0, 0.0]},
    {(1, 1): [1.0, 1.0], (1, 1, 1): [1.0, 1.0]},
    {(1.5, 1): [1.0, 1.0]},
], ids=["index-zero", "mixed-length", "fractional"])
def test_parametric_keys_follow_the_degenerate_rule(lam):
    # a zero index would make simulate_Q_L read factor row -1, which is g_2
    hermite = [FactorFamily("hermite")] * 2
    with pytest.raises(ValueError):
        ParametricKernel(np.arange(2)[:, None], lam, hermite)
    with pytest.raises(ValueError):
        DegenerateKernel(2, {k: 1.0 for k in lam}, hermite)


def test_check_theorem8_requires_orthonormal_factors():
    with pytest.raises(ValueError, match="orthonormal"):
        check_theorem_8(line_grid_pk(5, orthonormal=False), ("power", 2.0),
                        [make_rect([4, 4])], GAUSS2, 100, RngSpec(1))


def test_power_integral_nonincreasing_in_p():
    eps = np.geomspace(1.0, 1e-5, 64)
    prof = EntropyProfile(eps, 1.0 / eps ** 0.8)
    vals = [entropy_integral_power(prof, p).value for p in (2.0, 3.0, 5.0, 9.0)]
    assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))


def test_check_theorem8_exponential_level():
    # tau built from the kernel's own moment growth: sigma finite on a finite
    # grid and the generalized integral converges, so the hypotheses hold
    pk = line_grid_pk(7)
    tau = power_log(2, 0)
    report = check_theorem_8(pk, ("exponential", tau),
                             [make_rect([4, 4]), make_rect([10, 10])],
                             GAUSS2, 3000, RngSpec(83), limit_n=20_000)
    assert report.level == "exponential"
    assert report.hypotheses_met
    assert math.isfinite(report.hypotheses["entropy_integral"])
    assert report.hypotheses["sigma_lambda"] == 1.0
    assert report.verdict == "pass"


def test_pointwise_ks_is_one_ks_distance_per_grid_point():
    # the field check's distances are ks_distance at each point of the sampled
    # field against the sampled limit, on the streams the check draws from
    pk = line_grid_pk(nv=3)
    rng = RngSpec(5)
    field, _ = simulate_Q_L(pk, make_rect([4, 4]), GAUSS2, 300, rng.child(0))
    limit = [EmpiricalDist(row)
             for row in sample_Q_infty(pk, 500, rng.child(verify._LIMIT_STREAM))]
    ks = verify._chaos_limit_ks(pk, GAUSS2, [make_rect([4, 4])], 300, rng, 500, 0.05, 1)[0]
    assert ks == [[ks_distance(q, lim) for q, lim in zip(field, limit)]]
    with pytest.raises(ValueError):
        [ks_distance(q, lim) for q, lim in zip(field, limit[:2], strict=True)]
