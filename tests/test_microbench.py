"""Micro-benchmarks: KS distance, exact and greedy covering, the inscribed-rectangle search,
Young-Fenchel conjugates, one block each of sim-box's and nclt-lshape's streamed sums
and one tensor quadrature."""

import hashlib
import math

import numpy as np
import pytest

pytest.importorskip("pytest_benchmark")

from multisum import (AxisDistribution, DegenerateKernel, EmpiricalDist, FactorFamily,
                      ParametricKernel, RngSpec, covering_profile, ks_distance,
                      lshape_family, make_rect, power_log, product_of, rect_pair,
                      rosenthal_scaled, staircase_set, tabulated_psi, young_fenchel)
from multisum import mc
from test_psi import reference_young_fenchel
from test_quadrature import reference_moment
from test_verify import ks_reference

# values the exhaustive-search and concatenate-and-search versions also give
KS_20K_50K = 0.013400000000000079
COUNTS_12 = [1] * 3 + [2] * 5 + [3] * 2 + [4] * 3 + [6, 7, 8, 10, 11] + [12] * 46
COUNTS_2000 = ([3] * 5 + [5] * 4 + [9] * 5 + [17] * 5 + [33] * 4 + [35] + [65] * 4 + [117]
               + [129] * 4 + [231] + [257] * 3
               + [287, 443, 505, 513, 544, 648, 743, 798, 1028, 1296, 1497, 1680, 1855]
               + [2000] * 14)
# sha256 of the 51 sums below; the whole-table path (whole power tables and their row dots,
# ``test_box_contraction.table_sum_field``) gives the same bytes
SIM_BOX_BLOCK = "6e4b42651e2bda2be41e62daf756b6bb8eefc99a222a1033fd0c1c03873bbf27"
# sha256 of the three L-shapes' 16 384 sums below, set after set; NumPy's own slice sum of
# each side's run of segments gives the same bytes
NCLT_LSHAPE_BLOCK = "96f9f5dfa1c6b53c07ae8c6b0445a4a05a58890273efb228d421971f9d24c10f"
# sha256 of every analytic kind's rows at its base rule's nodes, kind after kind, and of one
# 256-replication block of Charlier rows on compensated-Poisson page draws.  Zeros are
# hashed as +0.0: where a row vanishes, the Charlier recurrence run on n = x + 1 with a sign
# per row left -0.0, and every other float agrees bit for bit with the recurrence on x
RULE_ROWS = "4d81ab3a69955c26a05adee91fb6da550a3e8386c6077088b225f7dc116886ce"
CHARLIER_BLOCK = "22d5001fb4ee19359f5cf3b4cee44dc4c1d4512dcbe0b96d3eacc20665114a2f"


def test_ks_distance_20k_vs_50k(benchmark):
    rng = np.random.default_rng(20)
    a = EmpiricalDist(rng.normal(size=20_000))
    b = EmpiricalDist(rng.normal(0.01, 1.0, size=50_000))
    assert benchmark.pedantic(ks_distance, args=(a, b), rounds=5) == KS_20K_50K


def test_ks_distance_20k_vs_50k_tie_heavy(benchmark):
    # Poisson(3) counts, a dozen distinct values, against their normal approximation
    rng = np.random.default_rng(20)
    a = EmpiricalDist(rng.poisson(3.0, size=20_000).astype(float))
    b = EmpiricalDist(rng.normal(3.0, math.sqrt(3.0), size=50_000))
    assert benchmark.pedantic(ks_distance, args=(a, b), rounds=5) == ks_reference(a, b)


def test_covering_profile_12_points(benchmark):
    # the field workload's exponential-level kernel: 0.2 + 0.8 t and 0.5 t^2 over t in [0, 1]
    t = np.linspace(0.0, 1.0, 12)
    pk = ParametricKernel(t[:, None], {(1, 1): 0.2 + 0.8 * t, (2, 2): 0.5 * t * t},
                          [FactorFamily("hermite")] * 2)
    eps = np.geomspace(1.0, 1e-4, 64)
    prof = benchmark.pedantic(covering_profile, args=(pk, eps), rounds=5)
    assert prof.exact
    assert prof.counts.tolist() == COUNTS_12


def test_covering_profile_2000_points(benchmark):
    # the field workload's power-level kernel at 2000 points, at scale 1.7: greedy covering,
    # one distance row per center; the whole-matrix greedy gave these counts
    t = np.linspace(0.0, 1.0, 2000)
    pk = ParametricKernel(t[:, None], {(1, 1): 0.2 + 0.8 * t, (2, 2): 0.5 * t * t},
                          [FactorFamily("hermite")] * 2)
    eps = np.geomspace(1.0, 1e-4, 64)
    prof = benchmark.pedantic(covering_profile, args=(pk, eps, 1.7), rounds=3)
    assert not prof.exact
    assert prof.counts.tolist() == COUNTS_2000


@pytest.mark.parametrize("shape, corners", [
    ("lshape_256", ((1, 1), (128, 256))),
    # heights 37 i mod 257 for i = 1..256 are all distinct: the most cuts per column
    ("distinct_staircase_256", ((64, 1), (131, 20))),
])
def test_rect_pair(benchmark, shape, corners):
    if shape == "lshape_256":
        L = lshape_family([256])[0]
    else:
        L = staircase_set([37 * i % 257 for i in range(1, 257)])
    inner = benchmark.pedantic(rect_pair, args=(L,), rounds=5).l_minus
    assert (inner.lo, inner.hi) == corners


def test_conjugate_grid_600(benchmark):
    # the bounds workload's psi: K(p)^2 * power_log(2, 0.5) * tabulated p^a on p = 2..64,
    # conjugated at its 200 x points and at ln y for its 400 tail levels y in [e, 100 e]
    p_tab = np.arange(2.0, 65.0)
    psi = rosenthal_scaled(product_of([power_log(2, 0.5), tabulated_psi(p_tab, p_tab ** 0.5)]),
                           2)
    xs = np.concatenate([np.linspace(1.0, 10.0, 200),
                         np.log(np.geomspace(math.e, 100.0 * math.e, 400))])
    got = benchmark.pedantic(young_fenchel, args=(psi, xs), rounds=5)
    assert got.tolist() == [reference_young_fenchel(psi, x) for x in xs]


def test_sum_field_sim_box_block(benchmark):
    # the sim-box kernel, lambda(k, k) = 1/k for k <= 4 on a 256 x 256 box; 51
    # replications make one block (the cache rule allows 256 on 256 columns)
    lam = {(k, k): 1.0 / k for k in range(1, 5)}
    args = ([FactorFamily("hermite")] * 2, lam, [make_rect([256, 256])],
            [AxisDistribution("standard_normal")] * 2, 51, RngSpec(1), 1)
    vals, = benchmark.pedantic(mc._sum_field, args=args, rounds=5)
    assert hashlib.sha256(vals.tobytes()).hexdigest() == SIM_BOX_BLOCK


def test_sum_field_nclt_lshape_block(benchmark):
    # the nclt-lshape stages, lambda(1, 1) = 1 on the L-shapes 32, 64 and 128: both axes are
    # cut into 4 segments, and every side sums a run of 1 to 4; 16 384 replications make
    # one block (the cache rule's cap on 4 columns)
    sets = lshape_family([32, 64, 128])
    args = ([FactorFamily("hermite")] * 2, {(1, 1): 1.0}, sets,
            [AxisDistribution("standard_normal")] * 2, 16384, RngSpec(1), 1)
    vals = benchmark.pedantic(mc._sum_field, args=args, rounds=5)
    assert len(vals) == len(sets)
    assert hashlib.sha256(np.concatenate(vals).tobytes()).hexdigest() == NCLT_LSHAPE_BLOCK


def test_rows_at_the_rule_nodes():
    kmax = {"hermite": 12, "rademacher_sign": 1, "poisson_charlier": 12, "exponential_poly": 12}
    rows = [FactorFamily(kind).evaluate_block(m, FactorFamily(kind).rule[0]) + 0.0
            for kind, m in kmax.items()]
    assert hashlib.sha256(b"".join(r.tobytes() for r in rows)).hexdigest() == RULE_ROWS


def test_charlier_rows_block(benchmark):
    # the sim-box block's shape, 256 replications of 256 cells, on Poisson axes at kmax 4
    x = AxisDistribution("compensated_poisson").reader(RngSpec(1), 0, 256)(0, 256)
    rows = benchmark.pedantic(FactorFamily("poisson_charlier").evaluate_block, args=(4, x),
                              rounds=5)
    assert hashlib.sha256((rows + 0.0).tobytes()).hexdigest() == CHARLIER_BLOCK


def test_moment_bounds_kernel(benchmark):
    # the bounds workload's kernel: d = 3 Poisson-Charlier, lambda(k, k, k) = 2**-k
    # for k <= 8, on 140**3 nodes
    lam = {(k,) * 3: 2.0 ** -k for k in range(1, 9)}
    kernel = DegenerateKernel(3, lam, [FactorFamily("poisson_charlier")] * 3)
    got = benchmark.pedantic(kernel.moment, args=(8.0,), rounds=5)
    assert got == pytest.approx(reference_moment(kernel, 8.0), rel=1e-13)
