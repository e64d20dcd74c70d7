"""Monte Carlo engine: stream determinism, factorized sums, estimators."""

import hashlib
import itertools
import json
import math

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from multisum import (AxisDistribution, DegenerateKernel, EmpiricalDist,
                      FactorFamily, ParametricKernel, RngSpec, compute_S_L,
                      empirical_moment, empirical_tail, explicit_set,
                      kernel_to_json, load_empirical, lshape_family, make_rect,
                      sample_S_infty, simulate_Q_L,
                      simulate_family, simulate_S_L, staircase_set)
from multisum import mc
from multisum.parametric import sample_Q_infty
from test_box_contraction import naive_S_L, shaped_sets
from test_parametric import point_kernel

GAUSS = [AxisDistribution("standard_normal")] * 2


def hermite_kernel(lam, d=2, orthonormal=True):
    return DegenerateKernel(d, lam, [FactorFamily("hermite")] * d, orthonormal=orthonormal)


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("workers", [1, 4, 16])
def test_worker_count_invariance(workers):
    k = hermite_kernel({(1, 1): 1.0, (2, 2): 0.5})
    for L in (make_rect([5, 7]), lshape_family([6])[0]):
        base = simulate_S_L(k, L, GAUSS, 3000, RngSpec(99), workers=1)
        split = simulate_S_L(k, L, GAUSS, 3000, RngSpec(99), workers=workers)
        assert np.array_equal(base.values, split.values)


# one law of each kind; log-Weibull takes two uniforms per variate
AXIS_LAWS = [AxisDistribution("standard_normal"), AxisDistribution("rademacher"),
             AxisDistribution("centered_exponential"), AxisDistribution("compensated_poisson"),
             AxisDistribution("log_weibull", beta=0.7)]


@st.composite
def field_runs(draw):
    """A random 2-D set, a field kernel over <= 3 points, axis laws, N and a seed.

    The set always holds its top corner, whose coordinates are not multiples
    of 4, so no axis' column count is a multiple of 4.
    """
    corner = draw(st.tuples(*[st.sampled_from([1, 2, 3, 5, 6, 7])] * 2))
    cells = draw(st.sets(st.tuples(st.integers(1, corner[0]), st.integers(1, corner[1])),
                         max_size=12)) | {corner}
    nv = draw(st.integers(1, 3))
    kvec = st.tuples(st.integers(1, 3), st.integers(1, 3))
    weights = st.lists(st.floats(-2.0, 2.0, allow_nan=False), min_size=nv, max_size=nv)
    lam = draw(st.dictionaries(kvec, weights, min_size=1, max_size=3))
    pk = ParametricKernel(np.arange(nv)[:, None], {k: np.array(w) for k, w in lam.items()},
                          [FactorFamily("hermite"), FactorFamily("poisson_charlier")],
                          orthonormal=False)
    dists = [draw(st.sampled_from(AXIS_LAWS)) for _ in range(2)]
    return (pk, explicit_set(sorted(cells)), dists, draw(st.integers(1, 40)),
            draw(st.integers(0, 999)))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(field_runs(), st.integers(1, 120))
def test_worker_and_block_size_invariance(run, budget):
    pk, L, dists, N, seed = run
    base_S = simulate_S_L(point_kernel(pk, 0), L, dists, N, RngSpec(seed)).values
    base_Q, base_sup = simulate_Q_L(pk, L, dists, N, RngSpec(seed))
    base_Q = np.stack([d.values for d in base_Q])
    kvecs, weights = mc._terms(pk.lam)
    base_cores, = mc._sum_cores(pk.factors, kvecs, [L], dists, N, RngSpec(seed), 1)
    root = math.sqrt(L.size)
    # every grid point's row, weighed from the cores, is its simulated row
    for w, row in zip(weights, base_Q, strict=True):
        assert np.array_equal(np.sort(mc._weigh(base_cores, w, np.empty(N)) / root), row)
    # a budget of a few floats forces blocks of one or a few replications; then
    # a cache-sized budget and the default
    for size in (budget, 1 << 17, mc._BLOCK_BUDGET):
        with mock.patch.object(mc, "_BLOCK_BUDGET", size):
            for workers in (1, 2, 3):
                S = simulate_S_L(point_kernel(pk, 0), L, dists, N, RngSpec(seed), workers)
                Q, sup = simulate_Q_L(pk, L, dists, N, RngSpec(seed), workers)
                assert np.array_equal(S.values, base_S)
                assert np.array_equal(np.stack([d.values for d in Q]), base_Q)
                assert np.array_equal(sup.values, base_sup.values)
                cores, = mc._sum_cores(pk.factors, kvecs, [L], dists, N, RngSpec(seed), workers)
                assert np.array_equal(cores, base_cores)


@pytest.mark.parametrize("budget", [5, 1 << 17], ids=["one_rep_blocks", "cache_sized"])
def test_limit_field_worker_and_block_size_invariance(budget):
    pk = ParametricKernel(np.arange(3)[:, None],
                          {(1, 1): np.array([1.0, 0.5, -0.3]),
                           (2, 3): np.array([0.0, 0.8, 0.6])},
                          [FactorFamily("hermite")] * 2, orthonormal=True)
    base = sample_Q_infty(pk, 300, RngSpec(17))
    assert base.shape == (3, 300)
    assert base.flags.c_contiguous         # so each grid point's row is contiguous
    kvecs, weights = mc._terms(pk.lam)
    base_cores = mc._limit_cores(kvecs, 2, 300, RngSpec(17), 1)
    assert base_cores.shape == (2, 300) and base_cores.flags.c_contiguous
    for w, row in zip(weights, base, strict=True):
        assert np.array_equal(mc._weigh(base_cores, w, np.empty(300)), row)
    with mock.patch.object(mc, "_BLOCK_BUDGET", budget):
        for workers in (1, 2, 3):
            assert np.array_equal(sample_Q_infty(pk, 300, RngSpec(17), workers), base)
            assert np.array_equal(mc._limit_cores(kvecs, 2, 300, RngSpec(17), workers),
                                  base_cores)


def _block_cap(kernel, L):
    """Replications per block that ``simulate_S_L`` (or ``simulate_Q_L``) chooses over ``L``."""
    simulate = simulate_Q_L if isinstance(kernel, ParametricKernel) else simulate_S_L
    with mock.patch.object(mc, "_run_blocks", wraps=mc._run_blocks) as spy:
        simulate(kernel, L, GAUSS, 3, RngSpec(1))
    return spy.call_args.args[0][1]


def test_block_size_rule():
    sim_box = hermite_kernel({(k, k): 1.0 / k for k in range(1, 5)})
    # one box: a block's widest row, 256 uniforms a replication, fits the cache share
    assert _block_cap(sim_box, make_rect([256, 256])) == mc._CACHE_FLOATS // 256
    # many boxes: one NumPy call per term, box and axis of the contraction and per
    # factor row and distinct side, so the block stays at the float budget.  Per
    # replication it holds, per axis, 64 columns x (1 uniform + 4) and 64 sides x 4
    # rows, then four cores: 1156 floats.
    checker = explicit_set([(i, j) for i in range(1, 65) for j in range(1, 65)
                            if (i + j) % 2 == 0])
    assert _block_cap(sim_box, checker) == mc._BLOCK_BUDGET // 1156
    # 256 columns of distinct heights: 256 x 5 + 256 x 4 floats per axis, four cores
    stair = staircase_set([37 * i % 257 for i in range(1, 257)])
    assert _block_cap(sim_box, stair) == mc._BLOCK_BUDGET // 4612
    # a 200-point field contracts its two cores as one point does, and weighing its
    # 200 rows is not counted as calls: on a 64^2 box its block is the cache share
    # (64 x 5 + 2 floats per axis and 2 cores per replication; 2 x 2 + 2 x 2 calls)
    t = np.linspace(0.0, 1.0, 200)
    field = ParametricKernel(t[:, None], {(1, 1): 0.2 + 0.8 * t, (2, 2): 0.5 * t * t},
                             [FactorFamily("hermite")] * 2)
    assert _block_cap(field, make_rect([64, 64])) == mc._CACHE_FLOATS // 64
    assert _block_cap(field, make_rect([64, 64])) == \
        _block_cap(point_kernel(field, 0), make_rect([64, 64]))
    assert -(-mc._FLOATS_PER_CALL * 8 // 646) < mc._CACHE_FLOATS // 64 < mc._BLOCK_BUDGET // 646
    # a budget of a few floats still forces one-replication blocks
    for L in (make_rect([256, 256]), checker, stair):
        with mock.patch.object(mc, "_BLOCK_BUDGET", 5):
            assert _block_cap(sim_box, L) == 1


def test_single_replication_reproducible():
    k = hermite_kernel({(1, 1): 1.0})
    a = simulate_S_L(k, make_rect([3, 3]), GAUSS, 1, RngSpec(7))
    b = simulate_S_L(k, make_rect([3, 3]), GAUSS, 1, RngSpec(7))
    assert a.values[0] == b.values[0]
    c = simulate_S_L(k, make_rect([3, 3]), GAUSS, 1, RngSpec(8))
    assert a.values[0] != c.values[0]


def test_same_coordinates_same_variates_across_batch_sizes():
    rng = RngSpec(1234)
    small = rng.uniform_block(1, 0, rep_start=2, rep_count=3, ncols=5)
    big = rng.uniform_block(1, 0, rep_start=0, rep_count=10, ncols=5)
    assert np.array_equal(big[2:5], small)


def test_s_infty_worker_invariance():
    lam = {(1, 1): 0.6, (2, 1): 0.8}
    a = sample_S_infty(lam, 2, 2000, RngSpec(5), workers=1)
    b = sample_S_infty(lam, 2, 2000, RngSpec(5), workers=16)
    assert np.array_equal(a.values, b.values)


# ---------------------------------------------------------------------------
# factorized vs naive summation
# ---------------------------------------------------------------------------


def test_fast_path_equals_naive_on_random_instances():
    rng = np.random.default_rng(41)
    for trial in range(200):
        n1, n2 = int(rng.integers(1, 11)), int(rng.integers(1, 11))
        L = make_rect([n1, n2])
        keys = {(int(rng.integers(1, 4)), int(rng.integers(1, 4)))
                for _ in range(int(rng.integers(1, 4)))}
        lam = {k: float(rng.normal()) for k in keys}
        kernel = hermite_kernel(lam)
        samples = [rng.normal(size=n1), rng.normal(size=n2)]
        fast = compute_S_L(kernel, L, samples)
        slow = naive_S_L(kernel, L, samples)
        assert fast == pytest.approx(slow, rel=1e-12, abs=1e-12)


def test_single_cell_product():
    k = hermite_kernel({(1, 1): 1.0})
    val = compute_S_L(k, make_rect([1, 1]), [np.array([2.0]), np.array([3.0])])
    assert val == pytest.approx(6.0, rel=1e-14)


def test_zero_kernel_sums_to_zero():
    k = hermite_kernel({(1, 1): 0.0})
    L = staircase_set([3, 2])
    val = compute_S_L(k, L, [np.ones(2), np.ones(3)])
    assert val == 0.0


def test_samples_must_cover_the_set():
    k = hermite_kernel({(1, 1): 1.0})
    with pytest.raises(ValueError):
        compute_S_L(k, make_rect([4, 4]), [np.ones(3), np.ones(4)])


# ---------------------------------------------------------------------------
# exact variance identity
# ---------------------------------------------------------------------------


def enumerate_variance_rademacher(cells, lam):
    """Oracle: Var S_L for the sign kernel lam * x * y by full enumeration."""
    rows = sorted({i for i, _ in cells})
    cols = sorted({j for _, j in cells})
    total_sq = 0.0
    total = 0.0
    count = 0
    for eps in itertools.product((-1.0, 1.0), repeat=len(rows)):
        rv = dict(zip(rows, eps))
        for dl in itertools.product((-1.0, 1.0), repeat=len(cols)):
            cv = dict(zip(cols, dl))
            s = lam * sum(rv[i] * cv[j] for i, j in cells) / math.sqrt(len(cells))
            total += s
            total_sq += s * s
            count += 1
    mean = total / count
    return total_sq / count - mean * mean


@pytest.mark.parametrize("cells", [
    [(1, 1)],
    [(1, 1), (2, 2), (3, 3)],
    [(1, 1), (1, 2), (2, 1), (2, 2)],
    [(1, 1), (1, 2), (1, 3), (2, 1), (3, 1)],
    [(i, j) for i in range(1, 4) for j in range(1, 4)],
])
def test_exact_variance_by_enumeration(cells):
    lam = 0.75
    var = enumerate_variance_rademacher(cells, lam)
    assert var == pytest.approx(lam ** 2, rel=1e-12)


def test_variance_matches_weight_mass_mc():
    k = hermite_kernel({(1, 1): 0.8, (2, 2): 0.6})
    dist = simulate_S_L(k, staircase_set([4, 4, 2]), GAUSS, 20_000, RngSpec(3))
    assert abs(dist.variance() - k.sigma_sq) <= 3 * dist.variance_se()


@st.composite
def diagonal_hermite_runs(draw):
    """Diagonal Hermite weights of degree 1-2 on a random box or staircase, and a seed.

    At degree 3 the kurtosis of ``h_3(x) h_3(y)`` is in the thousands, and the
    delta-method standard error of a 8000-sample variance is itself unreliable.
    """
    lam = {(k, k): draw(st.floats(0.2, 1.5)) * draw(st.sampled_from([-1.0, 1.0]))
           for k in draw(st.sets(st.integers(1, 2), min_size=1, max_size=2))}
    if draw(st.booleans()):
        L = make_rect([draw(st.integers(1, 8)), draw(st.integers(1, 8))])
    else:
        L = staircase_set(draw(st.lists(st.integers(1, 8), min_size=1, max_size=6)))
    return hermite_kernel(lam), L, draw(st.integers(0, 999))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(diagonal_hermite_runs())
def test_variance_is_weight_mass_on_random_sets(run):
    # orthonormal factors: Var(S_L) = sum lambda^2 for every index set
    k, L, seed = run
    dist = simulate_S_L(k, L, GAUSS, 8000, RngSpec(seed))
    assert abs(dist.variance() - k.sigma_sq) <= 4 * dist.variance_se()


# ---------------------------------------------------------------------------
# chaos limit sampler
# ---------------------------------------------------------------------------


def test_s_infty_unit_product_variance():
    dist = sample_S_infty({(1, 1): 1.0}, 2, 50_000, RngSpec(11))
    assert abs(dist.variance() - 1.0) <= 3 * dist.variance_se()


def test_s_infty_scaling_linearity():
    base = sample_S_infty({(1, 1): 1.0}, 2, 500, RngSpec(2))
    doubled = sample_S_infty({(1, 1): 2.0}, 2, 500, RngSpec(2))
    assert np.array_equal(doubled.values, 2.0 * base.values)


def test_s_infty_diagonal_variance():
    lam = {(1, 1): 0.5, (2, 2): 0.5, (3, 3): 0.5}
    sigma_sq = sum(w * w for w in lam.values())
    dist = sample_S_infty(lam, 2, 100_000, RngSpec(21))
    assert abs(dist.variance() - sigma_sq) <= 3 * dist.variance_se()


def test_product_normal_fourth_moment():
    k = hermite_kernel({(1, 1): 1.0})
    dist = simulate_S_L(k, make_rect([1, 1]), GAUSS, 100_000, RngSpec(31))
    est, se = empirical_moment(dist, 4.0)
    assert abs(est ** 4 - 9.0) <= 3 * (4 * est ** 3 * se)   # E xi^4 E eta^4 = 9


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------


def test_empirical_moment_constant_sample():
    d = EmpiricalDist(np.full(50, -2.5))
    est, se = empirical_moment(d, 3.0)
    assert est == pytest.approx(2.5, rel=1e-14)
    assert se == 0.0


def test_empirical_moment_symmetric_signs():
    d = EmpiricalDist(np.array([-1.0, 1.0] * 25))
    est, se = empirical_moment(d, 1.0)
    assert est == 1.0 and se == 0.0


def test_empirical_moment_standard_normal():
    rng = RngSpec(77)
    u = rng.uniform_block(1, 0, 0, 50_000, 1).ravel()
    vals = norm.ppf(u)
    d = EmpiricalDist(vals)
    est, se = empirical_moment(d, 2.0)
    assert abs(est - 1.0) <= 3 * se
    with pytest.raises(ValueError):
        empirical_moment(d, 0.5)


def test_empirical_tail_basics():
    d = EmpiricalDist(np.array([-2.0, -1.0, 0.5, 1.0, 3.0]))
    assert empirical_tail(d, 10.0) == 0.0
    assert empirical_tail(d, 0.0) == pytest.approx(3 / 5)   # max of the two halves
    assert empirical_tail(d, 1.0) == pytest.approx(2 / 5)
    with pytest.raises(ValueError):
        empirical_tail(d, -0.5)


def test_empirical_tail_standard_normal():
    rng = RngSpec(78)
    vals = norm.ppf(rng.uniform_block(1, 0, 0, 100_000, 1).ravel())
    d = EmpiricalDist(vals)
    p_true = float(norm.sf(2.0))
    se = math.sqrt(p_true * (1 - p_true) / d.n)
    assert abs(empirical_tail(d, 2.0) - p_true) <= 3 * se


# ---------------------------------------------------------------------------
# axis distributions
# ---------------------------------------------------------------------------


def test_log_weibull_tail_formula():
    lw = AxisDistribution("log_weibull", beta=1.0)
    vals = lw.transform(RngSpec(9).uniform_block(1, 0, 0, 200_000, 2)).ravel()
    for y in (0.5, 2.0, 5.0):
        p_true = math.exp(-math.log1p(y) ** 2)
        se = math.sqrt(p_true * (1 - p_true) / vals.size)
        assert abs(np.mean(np.abs(vals) >= y) - p_true) <= 4 * se
    assert abs(vals.mean()) < 0.02          # symmetric, hence centered


def test_compensated_poisson_pmf():
    d = AxisDistribution("compensated_poisson")
    vals = d.transform(RngSpec(10).uniform_block(1, 0, 0, 200_000, 1)).ravel()
    for k in (0, 1, 2, 5):
        p_true = math.exp(-1.0) / math.factorial(k)
        se = math.sqrt(p_true * (1 - p_true) / vals.size)
        assert abs(np.mean(vals == k - 1) - p_true) <= 4 * se


def test_centered_exponential_mean_zero():
    d = AxisDistribution("centered_exponential")
    vals = d.transform(RngSpec(12).uniform_block(1, 0, 0, 100_000, 1)).ravel()
    assert abs(vals.mean()) < 3 / math.sqrt(vals.size) + 0.01
    assert vals.min() >= -1.0


# sha256 of sample_block(RngSpec(2024), axis 1, replications 5..44, 7 columns), per
# law, as the allocating transform wrote them before sampling ran in place
SAMPLE_BLOCK_SHA256 = {
    "standard_normal": "a26e27e07ff8dfe836fb7b5857e0302fcb57a61e8a2c87ececa59ab4829cbdbc",
    "rademacher": "92827537d0ae08a0f6d0973eecad7bc0137355c40c6ca6a191880a71adbebb1f",
    "centered_exponential": "c32213dfa947d81fc6ed2f5be94202d37545d3fbf4d4dc39183787ec37484b2f",
    "compensated_poisson": "6e41f7c30e96eeb709389648c456c3152855d0f5a91a2c63faba6562dc6daa63",
    "log_weibull": "05ab7653e3fb06543206ae32a526d85d7b0b335873956bc778a8e9080b7d6c1e",
}


@pytest.mark.parametrize("law", AXIS_LAWS, ids=lambda law: law.kind)
def test_sample_block_bytes_pinned(law):
    rng = RngSpec(2024)
    fresh = law.sample_block(rng, 1, 5, 40, 7)
    # through a reused buffer with spare rows and stale contents
    buffer = np.full((45, mc._stride(7 * law.uniforms_per_coord)), np.nan)
    reused = law.sample_block(rng, 1, 5, 40, 7, out=buffer)
    assert np.shares_memory(reused, buffer)
    for x in (fresh, reused):
        assert x.shape == (40, 7)
        assert hashlib.sha256(x.tobytes()).hexdigest() == SAMPLE_BLOCK_SHA256[law.kind]
    # without out, transform leaves its uniforms alone
    u = rng.uniform_block(1, 1, 5, 40, 7 * law.uniforms_per_coord)
    kept = u.copy()
    assert np.array_equal(law.transform(u), fresh)
    assert np.array_equal(u, kept)
    with pytest.raises(ValueError, match="columns"):
        law.sample_block(rng, 1, 5, 40, 7, out=np.empty((45, 7 * law.uniforms_per_coord)))


def test_quadrature_identity_moments_match_closed_forms():
    # these two laws integrate numerically, through the scipy.integrate loaded on first use
    exp = AxisDistribution("centered_exponential")
    assert exp.identity_moment(1.0) == pytest.approx(2.0 / math.e, rel=1e-10)
    assert exp.identity_moment(2.0) == pytest.approx(1.0, rel=1e-10)
    assert exp.identity_moment(3.0) == pytest.approx((12.0 / math.e - 2.0) ** (1.0 / 3.0),
                                                     rel=1e-10)
    # beta = 1: E xi^2 = 2 int_0^inf (e^u - 1) e^(u - u^2) du in u = ln(1 + y)
    second = math.sqrt(math.pi) * (math.e * (1.0 + math.erf(1.0))
                                   - math.e ** 0.25 * (1.0 + math.erf(0.5)))
    lw = AxisDistribution("log_weibull", beta=1.0)
    assert lw.identity_moment(2.0) ** 2 == pytest.approx(second, rel=1e-10)


@pytest.mark.parametrize("p", [2.0, 3.0, 4.5, 8.0])
def test_identity_moment_closed_forms_reach_other_families(p):
    # k = 1 of any analytic family is the identity, so under a foreign law its moment
    # is that law's identity moment: E|Z|^p = 2^(p/2) Gamma((p+1)/2) / sqrt(pi)
    normal = FactorFamily("rademacher_sign").moment(1, p, AxisDistribution("standard_normal"))
    exact = (2.0 ** (p / 2.0) * math.gamma((p + 1.0) / 2.0) / math.sqrt(math.pi)) ** (1.0 / p)
    assert normal == pytest.approx(exact, rel=1e-14)
    # the compensated Poisson identity is the first Charlier polynomial, on the same nodes
    poisson = FactorFamily("hermite").moment(1, p, AxisDistribution("compensated_poisson"))
    assert poisson == FactorFamily("poisson_charlier").moment(1, p)


def test_unknown_axis_distribution_rejected():
    with pytest.raises(ValueError):
        AxisDistribution("uniform")
    with pytest.raises(ValueError):
        AxisDistribution("log_weibull")    # missing beta


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


def test_save_load_round_trip(tmp_path):
    k = hermite_kernel({(1, 1): 1.0})
    dist = simulate_S_L(k, make_rect([2, 2]), GAUSS, 100, RngSpec(1))
    path = tmp_path / "dist.bin"
    path.write_bytes(mc.empirical_bytes(dist))
    clone = load_empirical(path)
    assert np.array_equal(clone.values, dist.values)
    assert clone.provenance == dist.provenance


def test_load_empirical_rejects_bad_files(tmp_path):
    dist = EmpiricalDist(np.arange(3.0), "x", seed=1)
    header, values = mc.empirical_bytes(dist).split(b"\n", 1)
    path = tmp_path / "dist.bin"
    for bad in (header.replace(b"empirical-dist-v1", b"empirical-dist-v0") + b"\n" + values,
                header + b"\n" + values[:-8]):
        path.write_bytes(bad)
        with pytest.raises(ValueError, match="corrupt"):
            load_empirical(path)
    path.write_bytes(header.replace(b'"n": 3', b'"n": 0') + b"\n")
    with pytest.raises(ValueError, match="at least one replication"):
        load_empirical(path)


def test_provenance_distinguishes_inputs():
    k = hermite_kernel({(1, 1): 1.0})
    a = simulate_S_L(k, make_rect([2, 2]), GAUSS, 10, RngSpec(1))
    b = simulate_S_L(k, make_rect([2, 3]), GAUSS, 10, RngSpec(1))
    assert a.provenance != b.provenance


def test_provenance_names_the_columns_a_family_draws():
    # a set's values depend on its family's columns of each stream, so its digest names
    # them; alone, or in a family no wider than itself, it keeps its one-set digest
    k = hermite_kernel({(1, 1): 1.0, (2, 1): 0.5})
    box, lshape = make_rect([3, 5]), lshape_family([6])[0]
    alone = simulate_S_L(k, box, GAUSS, 10, RngSpec(1))
    assert alone.provenance == "6084ad459bae90e4"        # the digest before families
    assert simulate_S_L(k, lshape, GAUSS, 10, RngSpec(1)).provenance == "d5cd2105fa1cef9e"
    narrow = simulate_family(k, [box, make_rect([2, 4])], GAUSS, 10, RngSpec(1))
    wide = simulate_family(k, [box, lshape], GAUSS, 10, RngSpec(1))
    tall = simulate_family(k, [box, make_rect([1, 9])], GAUSS, 10, RngSpec(1))
    assert mc.empirical_bytes(narrow[0]) == mc.empirical_bytes(alone)
    assert mc.empirical_bytes(wide[1]) == mc.empirical_bytes(simulate_S_L(k, lshape, GAUSS, 10,
                                                                           RngSpec(1)))
    assert wide[0].provenance == mc._provenance("S_L", k, box, GAUSS, 10, 1, [6, 6])
    assert tall[0].provenance == mc._provenance("S_L", k, box, GAUSS, 10, 1, [3, 9])
    assert len({alone.provenance, wide[0].provenance, tall[0].provenance}) == 3
    assert not np.array_equal(wide[0].values, tall[0].values)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(1, 3).flatmap(shaped_sets), st.integers(1, 10 ** 6))
def test_provenance_hashes_the_whole_json_dump(L, n):
    kernel = hermite_kernel({(1,) * L.d: 1.0}, d=L.d)
    dists = [AxisDistribution("standard_normal")] * L.d
    payload = {"kind": "S_L", "kernel": kernel_to_json(kernel), "L": L.to_json(),
               "dists": [d.to_json() for d in dists], "N": n, "seed": 7}
    whole = hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]
    assert mc._provenance("S_L", kernel, L, dists, n, 7) == whole


@pytest.mark.parametrize("N", [0, -3])
def test_every_sampler_needs_a_replication(N):
    kernel = hermite_kernel({(1, 2): 1.0})
    pk = ParametricKernel(np.zeros((2, 1)), {(1, 2): [1.0, 0.5]}, kernel.factors, True)
    L = make_rect([3, 3])
    for run in (lambda: simulate_S_L(kernel, L, GAUSS, N, RngSpec(1)),
                lambda: sample_S_infty(kernel.lam, 2, N, RngSpec(1)),
                lambda: simulate_Q_L(pk, L, GAUSS, N, RngSpec(1)),
                lambda: sample_Q_infty(pk, N, RngSpec(1))):
        with pytest.raises(ValueError, match="at least one replication"):
            run()
