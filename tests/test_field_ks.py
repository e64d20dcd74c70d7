"""The field KS check walks the grid point by point from per-term cores.

``materialised_chaos_limit_ks`` below is the check as whole fields: every
stage's (|V|, N) field and the (|V|, limit_n) limit field, built from whole
factor tables, each row copied into a sorted ``EmpiricalDist``.  It is kept
here as the reference that ``verify._chaos_limit_ks`` must reproduce float
for float.
"""

import time
import tracemalloc

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from multisum import (AxisDistribution, EmpiricalDist, FactorFamily, ParametricKernel,
                      RngSpec, ks_critical, ks_distance, make_rect)
from multisum import mc, verify
from test_box_contraction import per_cell, shaped_sets, table_sum_field


def table_limit_field(lam, nv, d, N, rng):
    """(nv, N) chaos-limit values from all N replications' betas at once."""
    normal = AxisDistribution("standard_normal")
    betas = [normal.reader(rng, axis, k, mc.TAG_BETA)(0, N).T
             for axis, k in enumerate(mc._kmax(lam, d))]
    out = np.zeros((nv, N))
    for kvec, w in lam.items():
        core = betas[0][kvec[0] - 1]
        for axis in range(1, d):
            core = core * betas[axis][kvec[axis] - 1]
        out += np.asarray(w, dtype=float).reshape(-1, 1) * core
    return out


def materialised_chaos_limit_ks(pk, dists, sets, N, rng, limit_n, final_ks):
    """``verify._chaos_limit_ks`` from whole fields, every row copied and sorted.

    Every stage reads the family's one stream ``rng.child(0)``, each axis at
    the family's widest side.
    """
    limit = [EmpiricalDist(row) for row in
             table_limit_field(pk.lam, pk.n_points, pk.d, limit_n, rng.child(verify._LIMIT_STREAM))]
    ks = []
    columns = [max(L.axis_max(axis) for L in sets) for axis in range(pk.d)]
    for L in sets:
        field = table_sum_field(pk.factors, pk.lam, pk.n_points, L, dists, N, rng.child(0),
                                columns)
        ks.append([ks_distance(EmpiricalDist(row), lim) for row, lim in zip(field, limit)])
        sup = np.abs(field).max(axis=0)
    crit = ks_critical(N, limit_n)
    return ks, verify._ks_verdict([max(row) for row in ks], crit, final_ks), 2.0 * crit, sup


@st.composite
def field_checks(draw):
    """A Hermite field of 1-6 points and 1-4 terms, one or two sets, sizes, seed, workers.

    Every axis is sampled cell by cell (``per_cell``), as the materialised fields are.
    """
    d = draw(st.integers(1, 2))
    nv = draw(st.integers(1, 6))
    nterms = draw(st.integers(1, 4))
    kvecs = draw(st.lists(st.tuples(*[st.integers(1, 4)] * d), min_size=nterms,
                          max_size=nterms, unique=True))
    weight = st.one_of(st.just(0.0), st.floats(-2.0, 2.0, allow_nan=False))
    lam = {k: np.array(draw(st.lists(weight, min_size=nv, max_size=nv))) for k in kvecs}
    factors = [FactorFamily("hermite")] * d
    lam = per_cell(factors, [AxisDistribution("standard_normal")] * d, lam)
    pk = ParametricKernel(np.arange(nv)[:, None], lam, factors)
    sets = draw(st.lists(shaped_sets(d), min_size=1, max_size=2))
    return (pk, sets, draw(st.integers(1, 40)), draw(st.integers(1, 60)),
            draw(st.integers(0, 999)), draw(st.sampled_from([1, 3])),
            draw(st.sampled_from([0.05, 0.5])))


# a per-cell field of three points (a k = 3 term on each axis), scored with more stage
# replications than limit draws and with as many
_EXAMPLE_FIELD = ParametricKernel(np.arange(3)[:, None],
                                  {(3, 1): np.array([0.6, 0.0, -1.2]),
                                   (1, 3): np.array([0.8, 0.5, 0.0]),
                                   (2, 2): np.array([0.0, -0.4, 0.9])},
                                  [FactorFamily("hermite")] * 2)
_EXAMPLE_STAGES = [make_rect([3, 4]), make_rect([6, 5])]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(field_checks())
@example((_EXAMPLE_FIELD, _EXAMPLE_STAGES, 40, 17, 5, 3, 0.5))
@example((_EXAMPLE_FIELD, _EXAMPLE_STAGES, 30, 30, 8, 1, 0.05))
def test_point_major_check_equals_the_materialised_fields(check):
    pk, sets, N, limit_n, seed, workers, final_ks = check
    dists = [AxisDistribution("standard_normal")] * pk.d
    ks, verdict, budget, sup = verify._chaos_limit_ks(pk, dists, sets, N, RngSpec(seed),
                                                      limit_n, final_ks, workers)
    ref_ks, ref_verdict, ref_budget, ref_sup = materialised_chaos_limit_ks(
        pk, dists, sets, N, RngSpec(seed), limit_n, final_ks)
    assert ks == ref_ks
    assert verdict == ref_verdict
    assert budget == ref_budget
    assert np.array_equal(sup.values, np.sort(ref_sup))


def _field_kernel(nv):
    """The benchmark's field: ``0.2 + 0.8 t`` on (1, 1) and ``0.5 t^2`` on (2, 2), t in [0, 1]."""
    t = np.linspace(0.0, 1.0, nv)
    return ParametricKernel(t[:, None], {(1, 1): 0.2 + 0.8 * t, (2, 2): 0.5 * t * t},
                            [FactorFamily("hermite")] * 2)


def test_check_memory_does_not_grow_with_the_grid():
    # whole fields would hold |V| x (N + limit_n) floats: 16 times more at 400
    # points than at 25; the point-major check holds the T cores and a few rows
    dists = [AxisDistribution("standard_normal")] * 2
    start = time.perf_counter()
    peaks = {}
    for nv in (25, 400):
        tracemalloc.start()
        try:
            verify._chaos_limit_ks(_field_kernel(nv), dists, [make_rect([8, 8])], 4_000,
                                   RngSpec(3), 10_000, 0.05, 1)
            peaks[nv] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[400] <= 1.25 * peaks[25]
    assert time.perf_counter() - start < 2.0
