"""Limit-law verification: KS pipeline, moment sandwich, tail domination."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import ks_2samp

from multisum import (AxisDistribution, DegenerateKernel, EmpiricalDist,
                      FactorFamily, RngSpec, ks_critical, ks_distance,
                      lshape_family, make_rect, natural_composite,
                      sample_S_infty, simulate_family, simulate_S_L,
                      squares_minus_corner_family, staircase_set,
                      verify_moment_sandwich, verify_nclt,
                      verify_tail_domination)
from multisum.cli import main
from multisum.mc import _KS_BLOCK as _B

GAUSS2 = [AxisDistribution("standard_normal")] * 2


def gauss_rank1(d=2):
    return DegenerateKernel(d, {tuple([1] * d): 1.0}, [FactorFamily("hermite")] * d,
                            orthonormal=True)


# ---------------------------------------------------------------------------
# KS distance
# ---------------------------------------------------------------------------


def test_ks_identical_and_disjoint():
    a = EmpiricalDist(np.arange(10.0))
    assert ks_distance(a, a) == 0.0
    b = EmpiricalDist(np.arange(20.0, 30.0))
    assert ks_distance(a, b) == 1.0


def test_ks_symmetry_and_scipy_oracle():
    rng = np.random.default_rng(3)
    a = EmpiricalDist(rng.normal(size=400))
    b = EmpiricalDist(rng.normal(0.3, 1.2, size=700))
    d1 = ks_distance(a, b)
    assert d1 == ks_distance(b, a)
    assert d1 == pytest.approx(ks_2samp(a.values, b.values).statistic, abs=1e-12)


def ks_reference(a, b):
    """Oracle: both empirical CDFs evaluated at every point of both samples."""
    pts = np.concatenate([a.values, b.values])
    fa = np.searchsorted(a.values, pts, side="right") / a.n
    fb = np.searchsorted(b.values, pts, side="right") / b.n
    return float(np.max(np.abs(fa - fb)))


def _rounded_normals(seed, n, decimals, shift):
    return np.round(np.random.default_rng(seed).normal(shift, 1.0, n), decimals)


ks_samples = st.one_of(
    st.lists(st.integers(-4, 4), min_size=1, max_size=300),       # tie-heavy integers
    st.builds(_rounded_normals, st.integers(0, 2**32 - 1), st.integers(1, 300),
              st.integers(0, 2), st.sampled_from([0.0, 0.3])),
    st.builds(_rounded_normals, st.integers(0, 2**32 - 1), st.integers(300, 3000),   # many blocks
              st.integers(1, 3), st.sampled_from([0.0, 0.05])),
    st.lists(st.sampled_from([-np.inf, -1.0, 0.0, 0.5, 2.0, np.inf, np.nan]),  # ties, ±inf, NaN
             min_size=1, max_size=40),
).map(lambda v: EmpiricalDist(np.asarray(v, dtype=float)))


_STEPS = np.arange(4.0 * _B)       # four blocks of distinct steps


def _pair(x, y):
    return EmpiricalDist(x), EmpiricalDist(y)


def _field_size_pair(shift):
    """20 000 against 50 000 normals, the size of one `field` check: most blocks are skipped."""
    rng = np.random.default_rng(7)
    return _pair(rng.normal(shift, 1.0, 20_000), rng.normal(0.0, 1.0, 50_000))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(ks_samples, ks_samples)
@example(*_field_size_pair(0.0))
@example(*_field_size_pair(0.01))
@example(*_field_size_pair(0.1))
@example(*_pair(_STEPS, np.arange(1000.0, 1300.0)))      # smaller sample wholly below: 1 at its top
@example(*_pair(_STEPS + 1000.0, np.arange(300.0)))      # wholly above: 1 before the first step
@example(*_pair(_STEPS, np.repeat([-1.0, 100.0], [60, 40])))   # sup below[0]/m = 0.6
@example(*_pair(_STEPS, np.full(100, _B - 0.5)))         # sup 0.75 just before block 2's first step
@example(*_pair(np.concatenate([np.arange(_B - 1.0), np.full(5, _B - 1.0), np.arange(_B, 3.0 * _B)]),
                np.concatenate([np.repeat([_B - 1.0, 2 * _B - 1.0, 2.0 * _B], 7),
                                np.arange(0.0, 3 * _B, 0.25)])))  # ties over block edges
@example(EmpiricalDist(np.array([-np.inf, 0.0, np.inf])),             # infinite steps
         EmpiricalDist(np.array([-np.inf, -1.0, 0.5, np.inf, np.inf])))
@example(EmpiricalDist(np.array([0.0, 2.0])),                         # tie at y's top
         EmpiricalDist(np.array([1.0, 2.0, 2.0])))
@example(EmpiricalDist(np.array([0.0, np.nan])),                      # NaN step, sorted last
         EmpiricalDist(np.array([1.0, np.nan, np.nan])))
@example(EmpiricalDist(np.array([0.1, np.nan, np.nan, 0.3])),         # NaN in one sample only
         EmpiricalDist(np.array([0.1, 0.2, 0.3, 0.4, np.nan])))
@example(EmpiricalDist(np.array([0.1, np.nan])), EmpiricalDist(np.array([0.1, 0.2])))
@example(*_pair(_rounded_normals(1, _B - 1, 1, 0.0), _rounded_normals(2, 3 * _B, 1, 0.3)))
@example(*_pair(_rounded_normals(3, _B, 1, 0.0), _rounded_normals(4, 3 * _B, 1, 0.3)))
@example(*_pair(_rounded_normals(5, _B + 1, 1, 0.0), _rounded_normals(6, 3 * _B, 1, 0.3)))
@example(*_pair(_rounded_normals(7, 2 * _B + 1, 1, 0.0), _rounded_normals(8, 5 * _B, 1, 0.3)))
@example(*_pair(np.concatenate([np.arange(3.0), np.full(3 * _B + 5, 3.0), np.arange(4.0, 24.0)]),
                np.concatenate([np.full(4, 3.0), np.arange(3.5, 60.0, 0.5)])))  # run over whole blocks
@example(*_pair(np.concatenate([np.arange(2 * _B + 3.0), np.full(7, 100.0)]),
                np.concatenate([[100.0], np.arange(50.0, 150.0, 0.5)])))  # run to n - 1, partial block
@example(*_pair(np.full(2 * _B + 8, 1.0), np.arange(0.9, 3.0, 0.01)))  # all equal: sup at its end
@example(*_pair(_rounded_normals(9, 5 * _B + 3, 1, 0.0), _rounded_normals(10, 5 * _B + 3, 1, 0.2)))
@example(*_pair(np.arange(2.5 * _B), np.repeat([_B - 0.5, _B + 0.5], [95, 5])))  # sup before x[_B + 1]
def test_ks_distance_equals_reference_bit_for_bit(a, b):
    if np.isnan(a.values).any() or np.isnan(b.values).any():
        for x, y in ((a, b), (b, a)):
            with pytest.raises(ValueError, match="NaN"):
                ks_distance(x, y)
        return
    assert ks_distance(a, b) == ks_reference(a, b)
    assert ks_distance(b, a) == ks_reference(b, a)


@pytest.mark.parametrize("shift", [0.0, 0.01, 0.1])
def test_ks_distance_forms_no_sample_sized_array(shift):
    # the peak of one field-size call stays below one float array of the smaller sample
    a, b = _field_size_pair(shift)
    tracemalloc.start()
    try:
        ks_distance(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * a.n


def _searched_keys(monkeypatch, a, b):
    """The number of keys ``ks_distance(a, b)`` passes to ``np.searchsorted``."""
    keys, searchsorted = [], np.searchsorted
    with monkeypatch.context() as patch:
        patch.setattr(np, "searchsorted", lambda arr, v, *args, **kw: keys.append(np.size(v))
                      or searchsorted(arr, v, *args, **kw))
        ks_distance(a, b)
    return sum(keys)


# keys searched on the field-size pairs by blocks of 16 distinct values of the smaller
# sample; blocks of 16 positions search no more
_FIELD_SIZE_KEYS = {0.0: 1426, 0.01: 1794, 0.1: 1826}


@pytest.mark.parametrize("shift", sorted(_FIELD_SIZE_KEYS))
def test_ks_distance_searches_few_keys_on_a_continuous_pair(monkeypatch, shift):
    assert _searched_keys(monkeypatch, *_field_size_pair(shift)) <= _FIELD_SIZE_KEYS[shift]


@pytest.mark.parametrize("draw", [
    lambda rng, n: rng.poisson(0.5, n), lambda rng, n: rng.poisson(3.0, n),
    lambda rng, n: rng.poisson(20.0, n), lambda rng, n: rng.integers(0, 2, n),
], ids=["poisson-0.5", "poisson-3", "poisson-20", "two-valued"])
def test_ks_distance_searches_about_the_runs_on_a_tie_heavy_pair(monkeypatch, draw):
    # against its normal approximation: one search per distinct block lead, plus a run
    # start and a run end per value in the kept blocks, never one per block or position
    rng = np.random.default_rng(11)
    x = draw(rng, 20_000).astype(float)
    a, b = _pair(x, rng.normal(x.mean(), x.std(), 50_000))
    assert _searched_keys(monkeypatch, a, b) <= 3 * np.unique(x).size


def test_ks_two_normal_batches_small():
    # distribution-free critical value: 1.63 * sqrt(2/N) at the 99 percent level
    n = 100_000
    a = sample_S_infty({(1,): 1.0}, 1, n, RngSpec(5))
    b = sample_S_infty({(1,): 1.0}, 1, n, RngSpec(6))
    assert ks_distance(a, b) <= 0.012
    assert ks_critical(n, n) == pytest.approx(1.628 * math.sqrt(2 / n), rel=1e-3)


# ---------------------------------------------------------------------------
# rectangular limit checks
# ---------------------------------------------------------------------------


def test_rect_nclt_gaussian_rank1_passes():
    report = verify_nclt(gauss_rank1(), GAUSS2, [make_rect([4, 4]), make_rect([16, 16])], 5000,
                         RngSpec(42), limit_n=20_000)
    assert report.verdict == "pass"
    assert report.stages[-1]["ks"] <= 0.05
    assert all(row["kappa_minus"] == 0 for row in report.stages)


def test_rect_nclt_requires_orthonormal_and_nondegenerate():
    k = DegenerateKernel(2, {(1, 1): 1.0}, [FactorFamily("hermite")] * 2, orthonormal=False)
    with pytest.raises(ValueError):
        verify_nclt(k, GAUSS2, [make_rect([4, 4])], 100, RngSpec(1))
    k0 = DegenerateKernel(2, {(1, 1): 0.0}, [FactorFamily("hermite")] * 2, orthonormal=True)
    with pytest.raises(ValueError):
        verify_nclt(k0, GAUSS2, [make_rect([4, 4])], 100, RngSpec(1))


def test_rademacher_single_cell_far_from_chaos_limit():
    k = DegenerateKernel(2, {(1, 1): 1.0}, [FactorFamily("rademacher_sign")] * 2,
                         orthonormal=True)
    dists = [AxisDistribution("rademacher")] * 2
    report = verify_nclt(k, dists, [make_rect([1, 1])], 5000, RngSpec(9),
                         limit_n=20_000)
    # a four-point law against a continuous one: KS stays large
    assert report.stages[0]["ks"] > 0.1
    assert report.verdict == "fail"


def test_d1_reduction_is_classical_clt():
    k = gauss_rank1(d=1)
    dists = [AxisDistribution("standard_normal")]
    report = verify_nclt(k, dists, [make_rect([2]), make_rect([8])], 5000,
                         RngSpec(17), limit_n=20_000)
    # each stage is exactly standard normal, so only noise remains
    assert report.verdict == "pass"
    for row in report.stages:
        assert row["ks"] <= 3 * ks_critical(5000, 20_000)


# ---------------------------------------------------------------------------
# irregular-domain checks
# ---------------------------------------------------------------------------


def test_irregular_squares_minus_corner_passes():
    fam = squares_minus_corner_family([6, 12, 24])
    report = verify_nclt(gauss_rank1(), GAUSS2, fam, 5000, RngSpec(23),
                         limit_n=20_000)
    assert report.hypotheses_met
    assert report.verdict == "pass"


def test_irregular_lshape_flagged():
    fam = lshape_family([6, 12, 24], fraction=0.5)
    report = verify_nclt(gauss_rank1(), GAUSS2, fam, 2000, RngSpec(29),
                         limit_n=10_000)
    assert report.verdict == "hypotheses not met"
    assert not report.hypotheses_met
    assert len(report.stages) == 3        # KS still reported


def test_report_csv_layout(tmp_path):
    # the stage table of an nclt report is written by `multisum verify`
    cfg = {"N": 500, "seed": 1, "distributions": ["standard_normal"] * 2,
           "index_sets": {"family": "squares", "sizes": [4]},
           "kernel": {"d": 2, "factors": [{"kind": "hermite", "params": {}}] * 2,
                      "lambda": [{"k": [1, 1], "w": 1.0}], "orthonormal": True},
           "verify": {"which": "nclt", "limit_n": 2000}}
    path = tmp_path / "rect.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    main(["verify", "--config", str(path), "--out", str(out)])
    manifest = json.loads((out / "manifest.json").read_text())
    lines = (out / manifest["files"]["stages"]).read_text().strip().split("\n")
    assert lines[0] == "stage,L_size,kappa_minus,kappa_plus,ks,verdict"
    assert lines[1].startswith("0,16,")


# ---------------------------------------------------------------------------
# moment sandwich
# ---------------------------------------------------------------------------


def test_sandwich_single_cell_product():
    report = verify_moment_sandwich(gauss_rank1(), GAUSS2, [make_rect([1, 1])],
                                    [2.0, 3.0, 4.0], 40_000, RngSpec(37))
    assert report.verdict == "pass"
    for p, lo, emp, se in zip(report.p_grid, report.lower, report.empirical,
                              report.empirical_se):
        assert abs(emp - lo) <= 3 * se    # independence product, exact at |L| = 1


def test_sandwich_p2_orthonormal_all_one():
    sets = [make_rect([1, 1]), make_rect([4, 4]), staircase_set([3, 3, 2])]
    report = verify_moment_sandwich(gauss_rank1(), GAUSS2, sets, [2.0],
                                    30_000, RngSpec(41))
    assert report.lower[0] == pytest.approx(1.0, rel=1e-10)
    assert report.upper[0] == pytest.approx(1.0, rel=1e-10)
    assert abs(report.empirical[0] - 1.0) <= 3 * report.empirical_se[0]
    assert report.verdict == "pass"


def test_sandwich_rejects_higher_rank():
    k = DegenerateKernel(2, {(1, 1): 0.5, (2, 2): 0.5}, [FactorFamily("hermite")] * 2,
                         orthonormal=True)
    with pytest.raises(ValueError):
        verify_moment_sandwich(k, GAUSS2, [make_rect([1, 1])], [2.0], 100,
                               RngSpec(1))


def test_sandwich_poisson_shape():
    # rank-one compensated Poisson product: the p / ln p power shape describes
    # both envelopes on [4, 16] within 10 percent pointwise (free log-log fit);
    # the fitted exponent itself only settles to d once p is large
    k = DegenerateKernel(2, {(1, 1): 1.0}, [FactorFamily("poisson_charlier")] * 2,
                         orthonormal=True)
    dists = [AxisDistribution("compensated_poisson")] * 2
    p_grid = [4.0, 6.0, 8.0, 12.0, 16.0]
    report = verify_moment_sandwich(k, dists, [make_rect([1, 1])], p_grid,
                                    50_000, RngSpec(43))
    shape = np.log(np.asarray(p_grid) / np.log(p_grid))
    for vals in (report.lower, report.upper):
        coef = np.polyfit(shape, np.log(vals), 1)
        fit = np.exp(np.polyval(coef, shape))
        assert np.max(np.abs(fit / np.asarray(vals) - 1.0)) <= 0.10
    # asymptotic exponent oracle: quadrature moments far out approach d = 2
    fam = FactorFamily("poisson_charlier")
    p_far = np.geomspace(8.0, 256.0, 9)
    lower_far = np.array([fam.moment(1, p) for p in p_far]) ** 2
    slope_far = np.polyfit(np.log(p_far / np.log(p_far)), np.log(lower_far), 1)[0]
    assert slope_far == pytest.approx(2.0, rel=0.10)


# ---------------------------------------------------------------------------
# tail domination
# ---------------------------------------------------------------------------


def test_tail_domination_gaussian_rank1():
    kernel = gauss_rank1()
    composite = natural_composite(kernel, GAUSS2, np.geomspace(2, 64, 25))
    sets = [make_rect([1, 1]), make_rect([4, 4]), staircase_set([4, 3, 2])]
    report = verify_tail_domination(kernel, GAUSS2, sets, composite,
                                    30_000, RngSpec(47))
    assert report.verdict == "pass"
    assert report.min_margin >= 1.0


def test_tail_levels_reach_the_largest_absolute_value():
    # -h_2 is at most 1/sqrt(2) per cell, so the sums' largest |value| lies in the left tail;
    # a grid that stopped at the largest value held only the validity threshold
    kernel = DegenerateKernel(1, {(2,): -1.0}, [FactorFamily("hermite")], orthonormal=True)
    dists = [AxisDistribution("standard_normal")]
    composite = natural_composite(kernel, dists, np.geomspace(2, 64, 25))
    sets, rng = [make_rect([1]), make_rect([4])], RngSpec(5)
    report = verify_tail_domination(kernel, dists, sets, composite, 20_000, rng)
    sims = [s.values for s in simulate_family(kernel, sets, dists, 20_000, rng.child(0))]
    assert max(s[-1] for s in sims) < report.y_grid[0] < max(-s[0] for s in sims)
    assert report.y_grid[-1] == max(-s[0] for s in sims)
    assert len(report.y_grid) == 40
    assert all(row["probed_points"] > 1 for row in report.rows)


def test_tail_bound_trivial_below_threshold():
    from multisum import TailBound, tail_bound_eval, power_log
    tb = TailBound(1.0, power_log(2, 0))
    assert tail_bound_eval(tb, 1.0) == 1.0   # below e * norm: dominates anything


def test_tail_domination_log_weibull_two_sided():
    # identity factors under symmetric log-Weibull axes; the composite bound
    # keeps the ln(1+y)^(1+1/beta) shape and must dominate, while the single
    # cell's own tail has the same shape from below (two-sided envelope)
    beta = 1.0
    kernel = DegenerateKernel(2, {(1, 1): 1.0}, [FactorFamily("hermite")] * 2)
    dists = [AxisDistribution("log_weibull", beta=beta)] * 2
    composite = natural_composite(kernel, dists, np.geomspace(2, 24, 17))
    sets = [make_rect([1, 1]), make_rect([3, 3])]
    report = verify_tail_domination(kernel, dists, sets, composite,
                                    30_000, RngSpec(53))
    assert report.verdict == "pass"
    # lower envelope at |L| = 1: the empirical tail must cross above
    # exp(-C6 ln(1+y)^(1+1/beta)) for a large C6 somewhere on the grid
    sim = EmpiricalDist(np.abs(
        dists[0].transform(RngSpec(53).uniform_block(1, 0, 0, 30_000, 2))[:, 0] *
        dists[1].transform(RngSpec(53).uniform_block(1, 1, 0, 30_000, 2))[:, 0]))
    c6 = 8.0
    crossed = False
    for y in np.geomspace(3.0, 50.0, 12):
        emp = float(np.mean(sim.values >= y))
        if emp >= math.exp(-c6 * math.log1p(y) ** (1 + 1 / beta)) and emp >= 1e-3:
            crossed = True
    assert crossed


def test_natural_composite_requires_p_at_least_two():
    with pytest.raises(ValueError):
        natural_composite(gauss_rank1(), GAUSS2, [1.5, 2.0, 4.0])


# ---------------------------------------------------------------------------
# cross-cutting invariants
# ---------------------------------------------------------------------------


def test_scale_equivariance_of_sums_and_ks():
    base_k = gauss_rank1()
    scaled_k = DegenerateKernel(2, {(1, 1): 2.0}, [FactorFamily("hermite")] * 2,
                                orthonormal=True)
    L = make_rect([5, 5])
    a = simulate_S_L(base_k, L, GAUSS2, 2000, RngSpec(83))
    b = simulate_S_L(scaled_k, L, GAUSS2, 2000, RngSpec(83))
    assert np.array_equal(b.values, 2.0 * a.values)
    lim_a = sample_S_infty(base_k.lam, 2, 2000, RngSpec(84))
    lim_b = sample_S_infty(scaled_k.lam, 2, 2000, RngSpec(84))
    assert np.array_equal(lim_b.values, 2.0 * lim_a.values)
    # both sides scale together: the KS statistic is unchanged
    assert ks_distance(a, lim_a) == pytest.approx(ks_distance(b, lim_b), abs=1e-15)


def test_domination_chain_empirical_w_trivial():
    from multisum import empirical_moment, theorem_W_bound, trivial_bound
    kernel = gauss_rank1()
    L = make_rect([10, 10])
    p = 4.0
    dist = simulate_S_L(kernel, L, GAUSS2, 30_000, RngSpec(89))
    emp, se = empirical_moment(dist, p)
    w_rep = theorem_W_bound(kernel, p, L_size=L.size, M_max=4)
    triv = trivial_bound(kernel.moment(p), p, L.size)
    assert emp <= w_rep.bound_value + 3 * se
    assert w_rep.bound_value <= triv + 1e-12


def test_variances_agree_between_sum_and_limit():
    kernel = DegenerateKernel(2, {(1, 1): 0.6, (2, 2): 0.8},
                              [FactorFamily("hermite")] * 2, orthonormal=True)
    sim = simulate_S_L(kernel, make_rect([16, 16]), GAUSS2, 30_000, RngSpec(97))
    lim = sample_S_infty(kernel.lam, 2, 30_000, RngSpec(98))
    tol = 3 * (sim.variance_se() + lim.variance_se())
    assert abs(sim.variance() - lim.variance()) <= tol


def test_sandwich_ratio_band_proposition_91():
    # the empirical-over-lower ratio lives in [1 - noise, K(p)^d]
    from multisum import rosenthal_K
    sets = [make_rect([1, 1]), make_rect([3, 3]), make_rect([7, 2])]
    report = verify_moment_sandwich(gauss_rank1(), GAUSS2, sets, [2.0, 4.0],
                                    40_000, RngSpec(101))
    lo_ratio, _ = report.ratios()
    for p, r in zip(report.p_grid, lo_ratio):
        assert r <= rosenthal_K(p) ** 2 + 0.05
        assert r >= 1.0 - 0.05
