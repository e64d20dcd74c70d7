"""Monte Carlo engine: stream determinism, factorized sums, estimators."""

import hashlib
import itertools
import json
import math
import tracemalloc

from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import kstwo, norm

from multisum import (AxisDistribution, DegenerateKernel, EmpiricalDist,
                      FactorFamily, ParametricKernel, RngSpec, compute_S_L,
                      empirical_moment, empirical_tail, explicit_set,
                      kernel_to_json, load_empirical, lshape_family, make_rect,
                      sample_S_infty, simulate_Q_L,
                      simulate_family, simulate_S_L, staircase_set, tabulated_family)
from multisum import mc
from multisum.parametric import sample_Q_infty
from test_box_contraction import naive_S_L, shaped_sets
from test_parametric import point_kernel

GAUSS = [AxisDistribution("standard_normal")] * 2


def hermite_kernel(lam, d=2):
    return DegenerateKernel(d, lam, [FactorFamily("hermite")] * d)


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

    The set always holds its top corner, which fixes each axis' column count.
    """
    corner = draw(st.tuples(*[st.integers(1, 7)] * 2))
    cells = draw(st.sets(st.tuples(st.integers(1, corner[0]), st.integers(1, corner[1])),
                         max_size=12)) | {corner}
    nv = draw(st.integers(1, 3))
    kvec = st.tuples(st.integers(1, 3), st.integers(1, 3))
    weights = st.lists(st.floats(-2.0, 2.0, allow_nan=False), min_size=nv, max_size=nv)
    lam = draw(st.dictionaries(kvec, weights, min_size=1, max_size=3))
    pk = ParametricKernel(np.arange(nv)[:, None], {k: np.array(w) for k, w in lam.items()},
                          [FactorFamily("hermite"), FactorFamily("poisson_charlier")])
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
                          [FactorFamily("hermite")] * 2)
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


# sha256 of the library field functions on one seeded two-term field over an L-shape of side
# 5 (N = 200, seed 41): sample_S_infty's sorted values and provenance at the middle point,
# sample_Q_infty's (|V|, N) array and simulate_Q_L's sorted per-point values and sup-field
LIBRARY_FIELD_SHA256 = {
    "sample_S_infty": "4c8330243b87a08593584d9885d724653c6f00270543fb834a9b0b000d213e7a",
    "sample_Q_infty": "515f13799d28c5a549551100e947c418456578c82158f68b927357c95d791609",
    "simulate_Q_L": "73ad94f8c0e04e02b7a94d6358afe9edf3044f6209b97fb6dae4ae350a7d7243",
}


@pytest.mark.parametrize("budget", [64, mc._BLOCK_BUDGET], ids=["few_rep_blocks", "default"])
@pytest.mark.parametrize("workers", [1, 3])
def test_library_field_bytes_pinned(budget, workers):
    pk = ParametricKernel(np.arange(3)[:, None],
                          {(1, 1): np.array([1.0, 0.5, -0.3]),
                           (2, 1): np.array([0.0, 0.8, 0.6])},
                          [FactorFamily("hermite"), FactorFamily("poisson_charlier")])
    dists = [AxisDistribution("standard_normal"), AxisDistribution("compensated_poisson")]
    rng = RngSpec(41)
    with mock.patch.object(mc, "_BLOCK_BUDGET", budget):
        per_v, sup = simulate_Q_L(pk, lshape_family([5])[0], dists, 200, rng, workers)
        S = sample_S_infty({k: float(w[1]) for k, w in pk.lam.items()}, 2, 200, rng, workers)
        Q = sample_Q_infty(pk, 200, rng, workers)
    parts = {"sample_S_infty": [S.values, np.frombuffer(S.provenance.encode(), np.uint8)],
             "sample_Q_infty": [Q],
             "simulate_Q_L": [d.values for d in per_v] + [sup.values]}
    for name, arrays in parts.items():
        digest = hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest()
        assert digest == LIBRARY_FIELD_SHA256[name], name


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
    # (64 x 5 + 3 floats per axis and 2 cores per replication; 2 x 3 + 2 x 2 calls).
    # Its k = 3 term puts both axes on the per-cell path
    t = np.linspace(0.0, 1.0, 200)
    field = ParametricKernel(t[:, None], {(1, 1): 0.2 + 0.8 * t, (3, 3): 0.5 * t * t},
                             [FactorFamily("hermite")] * 2)
    assert _block_cap(field, make_rect([64, 64])) == mc._CACHE_FLOATS // 64
    assert _block_cap(field, make_rect([64, 64])) == \
        _block_cap(point_kernel(field, 0), make_rect([64, 64]))
    assert -(-mc._FLOATS_PER_CALL * 10 // 648) < mc._CACHE_FLOATS // 64 < mc._BLOCK_BUDGET // 648
    # with (2, 2) instead both axes are segmented Hermite k <= 2: one segment each, whose
    # normal, chi-square, three row buffers, temporary and 2 side sums make 8 floats per
    # axis, and 2 cores: 18 floats per replication
    segments = ParametricKernel(t[:, None], {(1, 1): 0.2 + 0.8 * t, (2, 2): 0.5 * t * t},
                                [FactorFamily("hermite")] * 2)
    with mock.patch.object(mc, "_BLOCK_BUDGET", 18 * 100):
        assert _block_cap(segments, make_rect([64, 64])) == 100
    # kmax 12 sums powers to x**6: five power rows past x, so five flat buffers instead of
    # three.  Per axis 64 columns x (1 uniform + 1 + 5) and 12 side sums, then 12 cores
    rank12 = hermite_kernel({(k, k): 1.0 / k for k in range(1, 13)})
    with mock.patch.object(mc, "_BLOCK_BUDGET", 932 * 10):
        assert _block_cap(rank12, make_rect([64, 64])) == 10
    # a budget of a few floats still forces one-replication blocks
    for L in (make_rect([256, 256]), checker, stair):
        with mock.patch.object(mc, "_BLOCK_BUDGET", 5):
            assert _block_cap(sim_box, L) == 1


def test_charlier_rows_run_in_the_row_buffers():
    # rank-4 diagonal kernels on a 256 x 256 box under one law (so one sampling cost): the
    # Charlier rows once made three block-sized arrays of their own and peaked 1 MB above
    # the Hermite rows (4.25 against 3.19 MB traced)
    peaks = {}
    for kind in ("poisson_charlier", "hermite"):
        kernel = DegenerateKernel(2, {(k, k): 1.0 / k for k in range(1, 5)},
                                  [FactorFamily(kind)] * 2)
        laws = [AxisDistribution("compensated_poisson")] * 2
        tracemalloc.start()
        try:
            simulate_S_L(kernel, make_rect([256, 256]), laws, 2000, RngSpec(1))
            peaks[kind] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks["poisson_charlier"] <= peaks["hermite"] + (64 << 10)


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


def _per_law(cases, ids):
    """pytest params of every law of ``AXIS_LAWS`` per case; the normal law keeps the bare ids."""
    return [pytest.param(law, *case, id=name if law.kind == "standard_normal"
                         else f"{law.kind}-{name}")
            for law in AXIS_LAWS for case, name in zip(cases, ids)]


@pytest.mark.parametrize("law, ncols", _per_law([(1,), (7,), (256,), (70_000,)],
                                                ["1", "7", "256", "70000"]))
def test_normal_range_reads_equal_rows_of_a_read_from_zero(law, ncols):
    # every law reads pages; a page holds the fewest replications of at least 2**16 values
    # (65 536, 9 363, 256 and 1 for a law of one value per variate, log-Weibull draws two)
    width = ncols * law.uniforms_per_coord
    R = mc._Pages(5, mc.TAG_AXIS, 0, width, np.random.Generator.random).reps
    assert R == -(-mc._PAGE_VALUES // width)
    total = 2 * R + 3
    rng = RngSpec(5)
    whole = law.reader(rng, 0, ncols)(0, total)
    for a, b in [(0, 1), (R - 1, R + 1), (1, total), (R, 2 * R), (R + 2, total), (2 * R + 2, total)]:
        assert np.array_equal(law.reader(rng, 0, ncols)(a, b - a), whole[a:b])
    # one reader through consecutive blocks, as a worker chunk reads, from a start inside a page
    read, start = law.reader(rng, 0, ncols), R // 2
    buffer = np.empty((3, width))
    for rep in range(start, total, 3):
        count = min(3, total - rep)
        assert np.array_equal(read(rep, count, buffer), whole[rep:rep + count])
    # the other axes and the beta stream are other streams (a page of values, so that two
    # streams of a two-valued law do not agree by chance)
    assert not np.array_equal(law.reader(rng, 1, ncols)(0, R), whole[:R])
    assert not np.array_equal(law.reader(rng, 0, ncols, mc.TAG_BETA)(0, R), whole[:R])


@pytest.mark.parametrize("law, ncols, count", _per_law([(256, 64), (4, 8)],
                                                       ["wide-buffer", "small-buffer"]))
def test_normal_read_inside_a_page_allocates_no_page_prefix(law, ncols, count):
    # half a page (2**15 floats, 256 KiB) lies before the read; it is drawn through the read's
    # own buffer, or through a scratch of _SKIP_FLOATS where the buffer is smaller
    rng = RngSpec(9)
    width = ncols * law.uniforms_per_coord
    start = -(-mc._PAGE_VALUES // width) // 2
    want = law.reader(rng, 0, ncols)(0, start + count)[start:]
    read = law.reader(rng, 0, ncols)
    buffer = np.empty((count, width))
    tracemalloc.start()
    try:
        got = read(start, count, buffer)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, want)
    scratch = 0 if buffer.size >= mc._SKIP_FLOATS else mc._SKIP_FLOATS * 8
    # the Poisson inverse CDF holds an int64 index per value read (searchsorted takes no out)
    index = count * ncols * 8 if law.kind == "compensated_poisson" else 0
    assert peak < scratch + index + 2 ** 13


@pytest.mark.parametrize("ncols", [1, 7, 256])
def test_chi_square_reads_drop_whole_rows_of_a_page(ncols):
    # a chi-square page's shape varies by column, so a read from inside a page drops whole
    # rows of its prefix; range reads and block reads equal the rows of a read from zero
    dof = (np.arange(ncols) % 5).astype(float)       # 0 degrees gives 0 and draws no bits

    def stream():
        return mc._Pages(5, mc.TAG_CHI2, 0, ncols, mc._chi2(dof))

    R = stream().reps
    assert R == -(-mc._PAGE_VALUES // ncols)
    total = 2 * R + 3
    whole = stream().read(0, total)
    assert np.all(whole[:, dof == 0] == 0.0) and np.all(whole[:, dof > 0] > 0.0)
    for a, b in [(0, 1), (R - 1, R + 1), (1, total), (R, 2 * R), (R + 2, total),
                 (2 * R + 2, total)]:
        assert np.array_equal(stream().read(a, b - a), whole[a:b])
    read, buffer = stream().read, np.empty((3, ncols))
    for rep in range(R // 2, total, 3):
        count = min(3, total - rep)
        assert np.array_equal(read(rep, count, buffer), whole[rep:rep + count])


def test_paged_normals_pass_a_ks_gate():
    # 1.05 M normals over 17 pages of 9 363 replications, from a start inside a page
    normal = AxisDistribution("standard_normal")
    x = normal.reader(RngSpec(31), 0, 7)(4_000, 150_000).ravel()
    x.sort()
    n = x.size
    cdf = norm.cdf(x)
    ks = max(np.max(np.arange(1, n + 1) / n - cdf), np.max(cdf - np.arange(n) / n))
    assert ks < kstwo.ppf(0.99, n)


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


def test_set_and_samples_must_match_the_kernel_dimension():
    k = hermite_kernel({(1, 1): 1.0})
    # unchecked, a 3-d set sums two of its axes and divides by sqrt(8); a 1-d one fails on an index
    with pytest.raises(ValueError, match="index set has dimension 3, the kernel 2"):
        compute_S_L(k, make_rect([2, 2, 2]), [np.ones(2)] * 2)
    with pytest.raises(ValueError, match="index set has dimension 1, the kernel 2"):
        compute_S_L(k, make_rect([2]), [np.ones(2)] * 2)
    # unchecked, four sample arrays for two axes give 2.0, and one fails on an index
    for count in (1, 4):
        with pytest.raises(ValueError, match=f"one sample array per kernel axis, 2; got {count}"):
            compute_S_L(k, make_rect([2, 2]), [np.ones(2)] * count)


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

    At degree 3 the kurtosis of ``h_3(x) h_3(y)`` is in the thousands, so the
    law of a 8000-sample variance is far from normal and a gate of 4 standard
    errors is no 4-sigma gate.
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
# exact moments of S_L
# ---------------------------------------------------------------------------


def oracle_rule(law: str):
    """A small rule of ``law``, exact for products of four factors of degree up to 2.

    Six Gauss-Hermite nodes (degree 11), eight Gauss-Laguerre nodes (degree 15), the
    two signs, and the Poisson pmf at counts below 30 (the rest weighs under 1e-32).
    """
    if law == "standard_normal":
        x, w = np.polynomial.hermite_e.hermegauss(6)
        return x, w / math.sqrt(2.0 * math.pi)
    if law == "centered_exponential":
        t, w = np.polynomial.laguerre.laggauss(8)
        return t - 1.0, w
    if law == "rademacher":
        return np.array([-1.0, 1.0]), np.array([0.5, 0.5])
    return np.arange(30) - 1.0, np.array([math.exp(-1) / math.factorial(n) for n in range(30)])


def quadrature_moments(kernel, cells, laws=("standard_normal",) * 4):
    """Oracle: (E S_L^2, E S_L^4), axis s by ``oracle_rule(laws[s])`` per distinct coordinate."""
    cells = [tuple(c) for c in cells]
    variables = sorted({(s, c[s]) for c in cells for s in range(kernel.d)})
    slot = {v: i for i, v in enumerate(variables)}
    rules = [oracle_rule(laws[s]) for s, _ in variables]
    points, weight = [], 1.0
    for i, (x, w) in enumerate(rules):
        shape = [1] * len(rules)
        shape[i] = -1
        points.append(x.reshape(shape))
        weight = weight * w.reshape(shape)
    total = 0.0
    for cell in cells:
        for kvec, lam in kernel.lam.items():
            term = lam
            for s in range(kernel.d):
                term = term * kernel.factors[s].evaluate(kvec[s], points[slot[(s, cell[s])]])
            total = total + term
    S = total / math.sqrt(len(cells))
    return float(np.sum(weight * S ** 2)), float(np.sum(weight * S ** 4))


SUM_MOMENT_CASES = [
    (2, {(1, 2): 0.7, (2, 1): -0.4, (2, 2): 0.3}, [(1, 1), (1, 2), (2, 1)]),
    (3, {(1, 1, 1): 0.6, (2, 1, 1): 0.5, (1, 1, 2): -0.4},
     [(1, 1, 1), (1, 2, 1), (2, 1, 2), (2, 2, 1), (2, 2, 2)]),
    (2, {(1, 1): 0.75, (2, 1): 0.2},
     [(i, j) for i in range(1, 4) for j in range(1, 4) if (i, j) != (3, 3)]),
    (1, {(1,): 0.5, (2,): 0.9}, [(1,), (2,), (4,)]),
]


@pytest.mark.parametrize("d, lam, cells", SUM_MOMENT_CASES)
def test_sum_moments_match_a_tensor_quadrature(d, lam, cells):
    # every coordinate its own variable: the oracle expands nothing and counts no tuple
    kernel = hermite_kernel(lam, d)
    dists = [AxisDistribution("standard_normal")] * d
    var, fourth = mc._sum_moments(kernel, explicit_set(cells), dists)
    want_var, want_fourth = quadrature_moments(kernel, cells)
    assert var == pytest.approx(want_var, rel=1e-10)
    assert fourth == pytest.approx(want_fourth, rel=1e-10)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["hermite", "poisson_charlier", "exponential_poly"]),
       st.dictionaries(st.tuples(st.integers(1, 5), st.integers(1, 5)),
                       st.floats(-3.0, 3.0, allow_nan=False), min_size=1, max_size=12))
def test_sum_moments_variance_is_sigma_sq_bit_for_bit_on_base_laws(kind, lam):
    # G = I exactly: the off-diagonal products add exact zeros to sum(lambda**2)
    kernel = DegenerateKernel(2, lam, [FactorFamily(kind)] * 2)
    dists = [AxisDistribution(FactorFamily(kind).canonical_base)] * 2
    assert mc._sum_moments(kernel, make_rect([2, 3]), dists)[0] == kernel.sigma_sq


SIGN, CHARLIER, LAGUERRE, HERMITE = (FactorFamily(kind) for kind in (
    "rademacher_sign", "poisson_charlier", "exponential_poly", "hermite"))
LAW_MOMENT_CASES = {
    "charlier-poisson": ([CHARLIER] * 2, {(1, 1): 0.7, (2, 1): -0.4, (2, 2): 0.3},
                         ["compensated_poisson"] * 2),
    "sign-rademacher": ([SIGN] * 2, {(1, 1): 0.8}, ["rademacher"] * 2),
    "charlier-poisson-sign-rademacher": ([CHARLIER, SIGN], {(1, 1): 0.8, (2, 1): 0.5},
                                         ["compensated_poisson", "rademacher"]),
    "laguerre-exponential": ([LAGUERRE] * 2, {(1, 1): 0.6, (2, 1): 0.5, (2, 2): -0.3},
                             ["centered_exponential"] * 2),
    # centred but not orthonormal: G = [[1, 2**-0.5], [2**-0.5, 1.5]] on Poisson axes,
    # and h_2 = 0 on the signs
    "hermite-poisson": ([HERMITE] * 2, {(1, 1): 0.6, (2, 1): 0.5}, ["compensated_poisson"] * 2),
    "hermite-rademacher": ([HERMITE] * 2, {(1, 1): 0.6, (2, 1): 0.5}, ["rademacher"] * 2),
}


@pytest.mark.parametrize("cells", [[(1, 1), (1, 2), (2, 1), (2, 2)], [(1, 1), (1, 2), (2, 1)]],
                         ids=["box", "lshape"])
@pytest.mark.parametrize("case", LAW_MOMENT_CASES)
def test_law_moments_match_a_tensor_quadrature_on_every_law(case, cells):
    # one law table per axis, under the law that samples it, in place of [k_a = k_b]
    factors, lam, laws = LAW_MOMENT_CASES[case]
    kernel = DegenerateKernel(2, lam, factors)
    dists = [AxisDistribution(law) for law in laws]
    dist = simulate_S_L(kernel, explicit_set(cells), dists, 50, RngSpec(4))
    var, fourth = dist.law_moments()
    want_var, want_fourth = quadrature_moments(kernel, cells, laws)
    assert var == pytest.approx(want_var, rel=1e-10)
    assert fourth == pytest.approx(want_fourth, rel=1e-10)


def test_sum_moments_decline_without_a_centred_table():
    # a non-centred factor (E h_3 = 6**-0.5 under Poisson), a factor past the identity on a
    # law with no rule and a tabulated factor keep the plug-in standard error
    poisson = [AxisDistribution("compensated_poisson")] * 2
    cases = [(hermite_kernel({(3, 1): 1.0}), poisson),
             (hermite_kernel({(2, 2): 1.0}), [AxisDistribution("log_weibull", beta=1.0)] * 2),
             (DegenerateKernel(2, {(1, 1): 1.0}, [tabulated_family(
                 [-1.0, 1.0], [[-1.0, 1.0]], [0.5, 0.5]), SIGN]),
              [AxisDistribution("rademacher")] * 2)]
    for kernel, dists in cases:
        assert mc._sum_moments(kernel, make_rect([3, 3]), dists) is None
        dist = simulate_S_L(kernel, make_rect([3, 3]), dists, 500, RngSpec(5))
        x = dist.values - dist.values.mean()
        plug_in = math.sqrt((np.mean(x ** 4) - np.mean(x ** 2) ** 2) / dist.n)
        assert dist.law_moments() is None
        assert dist.variance_se() == pytest.approx(plug_in, rel=1e-12)


def test_many_box_set_skips_the_moment_grid():
    # 1000 diagonal cells cut each axis into 1000 segments: the grid would hold 1e9
    # floats, so the rule declines before building it and the plug-in error is used
    L = explicit_set([(i, i, i) for i in range(1, 1001)])
    kernel = hermite_kernel({(1, 1, 1): 1.0}, 3)
    dists = [AxisDistribution("standard_normal")] * 3
    mc._sum_moments(kernel, make_rect([1, 1, 1]), dists)    # loads the rule's module
    tracemalloc.start()
    try:
        assert mc._sum_moments(kernel, L, dists) is None
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
    finally:
        tracemalloc.stop()
    dist = simulate_S_L(kernel, L, dists, 64, RngSpec(3))
    x = dist.values - dist.values.mean()
    plug_in = math.sqrt((np.mean(x ** 4) - np.mean(x ** 2) ** 2) / dist.n)
    assert dist.variance_se() == pytest.approx(plug_in, rel=1e-12)


def test_simulated_variance_se_is_exact():
    # one cell of h_1(x) h_1(y): Var = 1 and E (xy)^4 = 9
    dist = simulate_S_L(hermite_kernel({(1, 1): 1.0}), make_rect([1, 1]), GAUSS, 400,
                        RngSpec(8))
    assert dist.law_moments() == pytest.approx((1.0, 9.0), rel=1e-12)
    n = dist.n
    assert dist.variance_se() == pytest.approx(math.sqrt(9.0 / n - (n - 3) / (n * (n - 1))),
                                               rel=1e-12)
    # on growing boxes it nears the chaos limit's 0.6 b1 c1 + 0.8 b2 c2, iid normals
    k = hermite_kernel({(1, 1): 0.6, (2, 2): 0.8})
    limit = 9 * (0.6 ** 4 + 0.8 ** 4) + 6 * 0.6 ** 2 * 0.8 ** 2
    gaps = [abs(mc._sum_moments(k, make_rect([n, n]), GAUSS)[1] - limit) for n in (50, 400)]
    assert gaps[1] < gaps[0] / 4 and gaps[1] < 0.02 * limit


def test_log_weibull_identity_variance_se_is_exact():
    # x y over a 1 x 2 box, x and y iid log-Weibull: S = x (y1 + y2) / sqrt 2, so
    # Var S = m2**2 and E S**4 = m4 (2 m4 + 6 m2**2) / 4 from m2 = E x**2, m4 = E x**4
    law = AxisDistribution("log_weibull", beta=0.5)
    m2, m4 = law.identity_moment(2) ** 2, law.identity_moment(4) ** 4
    dist = simulate_S_L(hermite_kernel({(1, 1): 1.0}), make_rect([1, 2]), [law] * 2, 400,
                        RngSpec(8))
    var, fourth = dist.law_moments()
    assert var == pytest.approx(m2 * m2, rel=1e-12)
    assert fourth == pytest.approx(m4 * (2 * m4 + 6 * m2 * m2) / 4, rel=1e-12)
    n = dist.n
    assert dist.variance_se() == pytest.approx(
        math.sqrt(fourth / n - var * var * (n - 3) / (n * (n - 1))), rel=1e-12)


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


@st.composite
def quantile_cases(draw):
    """A sample (from n = 1, tie-heavy or not, maybe NaN-topped) and quantile levels."""
    finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
    value = draw(st.sampled_from([finite, st.sampled_from([-1.5, 0.0, 2.0, 7.25])]))
    values = draw(st.lists(value, min_size=1, max_size=60))
    if draw(st.booleans()):
        values[-1] = math.nan
    qs = draw(st.lists(st.floats(0.0, 1.0), max_size=12)) + [0.0, 1.0, 0.5]
    return np.array(values), np.array(draw(st.permutations(qs)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(quantile_cases())
def test_quantile_is_numpys_bit_for_bit(case):
    values, qs = case
    dist = EmpiricalDist(values)
    with np.errstate(invalid="ignore"):
        assert dist.quantile(qs).tobytes() == np.quantile(dist.values, qs).tobytes()
        for q in qs[:3]:
            got, want = dist.quantile(float(q)), np.quantile(dist.values, float(q))
            assert type(got) is type(want) and np.asarray(got).tobytes() == \
                np.asarray(want).tobytes()
    with pytest.raises(ValueError):
        dist.quantile([0.5, 1.5])


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


# sha256 of one read of a fresh reader(RngSpec(2024), axis 1, 7 columns), replications 5..44, per
# law: the normal law by the ziggurat of its pages, every other one the inverse CDF of
# its pages' uniforms
SAMPLE_BLOCK_SHA256 = {
    "standard_normal": "59841315bb61048f1e96070b2958f5893f6748ec1aad96dc5ae3db1790c90764",
    "rademacher": "d59b7d902e7c39e2926816ea3ef530d5931847fc5abb52342887b94099f1e39f",
    "centered_exponential": "b7e05136da9a65e1c1027091b5fa3284a5afb770f3c39d3ba538173fcd7716bc",
    "compensated_poisson": "f5c68a99856261e846e061e39802351723c1737fe28288163fc3189a20227336",
    "log_weibull": "a191005a1ae919b454d5ca0cdd643d1a95388697084c16b69acf808b2e35b77f",
}


@pytest.mark.parametrize("law", AXIS_LAWS, ids=lambda law: law.kind)
def test_sample_block_bytes_pinned(law):
    rng = RngSpec(2024)
    fresh = law.reader(rng, 1, 7)(5, 40)
    # through a reused buffer with spare rows and stale contents
    buffer = np.full((45, 7 * law.uniforms_per_coord), np.nan)
    reused = law.reader(rng, 1, 7)(5, 40, buffer)
    assert np.shares_memory(reused, buffer)
    for x in (fresh, reused):
        assert x.shape == (40, 7)
        assert hashlib.sha256(x.tobytes()).hexdigest() == SAMPLE_BLOCK_SHA256[law.kind]
    u = rng.uniform_block(1, 1, 5, 40, 7 * law.uniforms_per_coord)
    kept = u.copy()
    if law.kind == "standard_normal":
        # no inverse CDF is kept beside the ziggurat
        with pytest.raises(ValueError, match="ziggurat"):
            law.transform(u)
    else:
        # without out, transform leaves its uniforms alone
        assert np.array_equal(law.transform(u), fresh)
    assert np.array_equal(u, kept)
    # a buffer padded to a multiple of 4 columns, as Philox counter streams once took, is refused
    padded = 4 * -(-7 * law.uniforms_per_coord // 4)
    with pytest.raises(ValueError, match="columns"):
        law.reader(rng, 1, 7)(5, 40, np.empty((45, padded)))


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


def test_normal_identity_moment_matches_mpmath():
    # |Z|_p = sqrt(2) (Gamma((p + 1)/2) / sqrt(pi))**(1/p), by math.lgamma
    law = AxisDistribution("standard_normal")
    worst = 0.0
    with mpmath.workprec(120):
        for p in np.linspace(1.0, 60.0, 237):
            mp = mpmath.mpf(float(p))
            exact = mpmath.sqrt(2) * (mpmath.gamma((mp + 1) / 2) / mpmath.sqrt(mpmath.pi)) \
                ** (1 / mp)
            worst = max(worst, float(abs(law.identity_moment(float(p)) - exact) / exact))
    assert worst <= 2e-15


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
    # them; alone, or in a family no wider than itself, it keeps its one-set digest.  Both
    # axes of this kernel take k = 3, so both are sampled cell by cell
    k = hermite_kernel({(1, 3): 1.0, (3, 1): 0.5})
    box, lshape = make_rect([3, 5]), lshape_family([6])[0]
    alone = simulate_S_L(k, box, GAUSS, 10, RngSpec(1))
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


def test_provenance_names_the_cuts_of_a_segmented_axis():
    # axis 1 takes only k = 1 on normal variables, so it draws one normal per segment of
    # its family's box edges; a set's digest names the cuts when they are not its own.
    # Axis 0 takes k = 3, so it is sampled cell by cell
    k = hermite_kernel({(1, 1): 1.0, (3, 1): 0.5})
    box, lshape = make_rect([3, 5]), lshape_family([6])[0]
    alone = simulate_S_L(k, box, GAUSS, 10, RngSpec(1))
    assert alone.provenance == "494a472c4d3ae1f5"        # the digest before families
    assert simulate_S_L(k, lshape, GAUSS, 10, RngSpec(1)).provenance == "6d5cb43fbf6f9713"
    assert mc._layouts(k.factors, list(k.lam), [box, lshape], GAUSS) == [6, [1, 4, 6, 7]]
    same = simulate_family(k, [box, make_rect([2, 5])], GAUSS, 10, RngSpec(1))
    cut = simulate_family(k, [box, make_rect([2, 4])], GAUSS, 10, RngSpec(1))
    wide = simulate_family(k, [box, lshape], GAUSS, 10, RngSpec(1))
    assert mc.empirical_bytes(same[0]) == mc.empirical_bytes(alone)
    assert cut[0].provenance == mc._provenance("S_L", k, box, GAUSS, 10, 1, [3, [1, 5, 6]])
    assert not np.array_equal(cut[0].values, alone.values)
    # in ``wide`` the L-shape is the widest set on axis 0, but the box cuts its axis 1
    for L, dist in zip([box, lshape], wide):
        assert dist.provenance == mc._provenance("S_L", k, L, GAUSS, 10, 1, [6, [1, 4, 6, 7]])
    assert not np.array_equal(wide[1].values, simulate_S_L(k, lshape, GAUSS, 10,
                                                           RngSpec(1)).values)
    assert len({alone.provenance, cut[0].provenance, wide[0].provenance}) == 3


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
    pk = ParametricKernel(np.zeros((2, 1)), {(1, 2): [1.0, 0.5]}, kernel.factors)
    L = make_rect([3, 3])
    for run in (lambda: simulate_S_L(kernel, L, GAUSS, N, RngSpec(1)),
                lambda: sample_S_infty(kernel.lam, 2, N, RngSpec(1)),
                lambda: simulate_Q_L(pk, L, GAUSS, N, RngSpec(1)),
                lambda: sample_Q_infty(pk, N, RngSpec(1))):
        with pytest.raises(ValueError, match="at least one replication"):
            run()
