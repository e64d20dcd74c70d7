"""Property tests: box decompositions of random sets and the contraction built on them."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import eval_laguerre, gammaln

from multisum import (AxisDistribution, DegenerateKernel, FactorFamily, RngSpec,
                      compute_S_L, explicit_set, make_rect,
                      simulate_family, simulate_S_L, staircase_set, tabulated_family)
from multisum import mc
from multisum.index_sets import _box_cells

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)


def _axis_tables(kernel, axis_samples):
    """Per axis, the factor table ``g_1..g_kmax`` over that axis' samples."""
    return [fam.evaluate_block(max(kvec[axis] for kvec in kernel.lam), x)
            for axis, (fam, x) in enumerate(zip(kernel.factors, axis_samples))]


def naive_S_L(kernel, L, axis_samples) -> float:
    """Reference direct summation over all cells, ignoring box structure."""
    for axis in range(kernel.d):
        if L.axis_max(axis) > len(axis_samples[axis]):
            raise ValueError(f"axis {axis} samples do not cover the index set")
    if not kernel.lam:
        return 0.0
    tables = _axis_tables(kernel, axis_samples)
    cells = L.cells
    total = 0.0
    for kvec, w in kernel.lam.items():
        prod = np.ones(cells.shape[0])
        for axis, k in enumerate(kvec):
            prod = prod * tables[axis][k - 1][cells[:, axis] - 1]
        total += w * float(prod.sum())
    return total / math.sqrt(L.size)


@st.composite
def index_sets(draw):
    d = draw(st.integers(1, 3))
    side = {1: 12, 2: 7, 3: 4}[d]
    cell = st.tuples(*[st.integers(1, side)] * d)
    return explicit_set(sorted(draw(st.sets(cell, min_size=1, max_size=40))))


@st.composite
def instances(draw):
    """A random set, a Hermite kernel of rank <= 3 per axis, and covering samples."""
    L = draw(index_sets())
    kvec = st.tuples(*[st.integers(1, 3)] * L.d)
    weight = st.floats(-2.0, 2.0, allow_nan=False)
    lam = draw(st.dictionaries(kvec, weight, min_size=1, max_size=4))
    kernel = DegenerateKernel(L.d, lam, [FactorFamily("hermite")] * L.d)
    samples = [np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n + 2)))
               for n in (L.axis_max(axis) for axis in range(L.d))]
    return kernel, L, samples


@SETTINGS
@given(index_sets())
def test_boxes_partition_the_set(L):
    covered = _box_cells(L)
    assert len(covered) == L.size                  # no cell counted twice ...
    assert set(map(tuple, covered)) == set(map(tuple, L.cells))   # ... and none missed


def absolute_term_sum(kernel, L, axis_samples) -> float:
    """``naive_S_L`` with every term and factor value taken absolute: a bound on its magnitude.

    It floors a tolerance where the terms cancel.
    """
    tables = _axis_tables(kernel, axis_samples)
    return sum(abs(w) * np.prod([np.abs(tables[s][k - 1][L.cells[:, s] - 1])
                                 for s, k in enumerate(kvec)], axis=0).sum()
               for kvec, w in kernel.lam.items()) / math.sqrt(L.size)


@SETTINGS
@given(instances())
def test_box_contraction_matches_naive(instance):
    kernel, L, samples = instance
    fast = compute_S_L(kernel, L, samples)
    slow = naive_S_L(kernel, L, samples)
    assert abs(fast - slow) <= 1e-12 * absolute_term_sum(kernel, L, samples)


# ---------------------------------------------------------------------------
# the table path: whole factor tables per axis, then slice sums of the tables.
# The streamed path (rows slice-summed as they are made) must reproduce it bit
# for bit, so it is kept here as the reference.
# ---------------------------------------------------------------------------


def _hermite_table(kmax, x):
    out = np.empty((kmax + 1, x.size))
    out[0] = 1.0
    if kmax >= 1:
        out[1] = x
    for k in range(1, kmax):
        out[k + 1] = x * out[k] - k * out[k - 1]
    norm = np.exp(-0.5 * gammaln(np.arange(kmax + 1) + 1.0))
    return out * norm[:, None]


def _charlier_table(kmax, x):
    n = x + 1.0
    out = np.empty((kmax + 1, x.size))
    out[0] = 1.0
    if kmax >= 1:
        out[1] = 1.0 - n
    for k in range(1, kmax):
        out[k + 1] = (k + 1.0 - n) * out[k] - k * out[k - 1]
    signs = (-1.0) ** np.arange(kmax + 1)
    norm = signs * np.exp(-0.5 * gammaln(np.arange(kmax + 1) + 1.0))
    return out * norm[:, None]


def _sign_table(kmax, x):
    if kmax > 1:
        raise ValueError("the sign family has a single member (k = 1)")
    return np.stack([np.ones_like(x), x])[:kmax + 1]


def _laguerre_table(kmax, x):
    return np.stack([(-1.0) ** k * eval_laguerre(k, x + 1.0) for k in range(kmax + 1)])


TABLES = {"hermite": _hermite_table, "poisson_charlier": _charlier_table,
          "rademacher_sign": _sign_table, "exponential_poly": _laguerre_table}


def table(fam, kmax, x):
    """Factors 1..kmax at the points x, shape (kmax, len(x))."""
    if fam.kind != "tabulated":
        return TABLES[fam.kind](kmax, x)[1:]
    if kmax > fam.table.shape[0]:
        raise ValueError(f"tabulated family has {fam.table.shape[0]} members")
    return np.stack([np.interp(x, fam.nodes, row) for row in fam.table[:kmax]])


def table_contract(tables, L, lam, nv):
    """The weighted field from whole tables; ``lam`` maps multi-indices to ``nv`` weights."""
    sums = [[t[:, :, a - 1:b].sum(axis=2) for t, a, b in zip(tables, lo, hi)]
            for lo, hi in zip(L.lo, L.hi)]
    out = np.zeros((nv, tables[0].shape[1]))
    for kvec, w in lam.items():
        wv = np.asarray(w, dtype=float).reshape(-1, 1)
        core = None
        for box_sums in sums:
            term = box_sums[0][kvec[0] - 1]
            for axis in range(1, len(kvec)):
                term = term * box_sums[axis][kvec[axis] - 1]
            core = term if core is None else core + term
        out += wv * core
    return out


def table_sum_field(factors, lam, nv, L, dists, N, rng, columns=None):
    """(nv, N) normalized sums over L from whole tables, all replications in one block.

    Each axis draws ``columns[axis]`` variates per replication (a family's
    widest side, see ``mc._columns``), or ``L.axis_max`` when absent.
    """
    kmax = mc._kmax(lam, L.d)
    tables = []
    for axis, (fam, dist) in enumerate(zip(factors, dists)):
        ncols = L.axis_max(axis) if columns is None else columns[axis]
        x = dist.sample_block(rng, axis, 0, N, ncols)
        tables.append(table(fam, kmax[axis], x.ravel()).reshape(kmax[axis], N, ncols))
    return table_contract(tables, L, lam, nv) / math.sqrt(L.size)


@st.composite
def factor_axes(draw):
    """A factor family, the axis law it is sampled under, and its largest index."""
    kind = draw(st.sampled_from(["hermite", "poisson_charlier", "exponential_poly",
                                 "rademacher_sign", "tabulated"]))
    if kind == "rademacher_sign":
        return FactorFamily(kind), AxisDistribution("rademacher"), 1
    if kind != "tabulated":
        return FactorFamily(kind), AxisDistribution(FactorFamily(kind).canonical_base), \
            draw(st.integers(1, 6))
    members = draw(st.integers(1, 4))
    nodes = np.linspace(-3.0, 3.0, draw(st.integers(2, 9)))
    rows = draw(st.lists(st.floats(-2.0, 2.0), min_size=members * nodes.size,
                         max_size=members * nodes.size))
    fam = tabulated_family(nodes, np.reshape(rows, (members, nodes.size)),
                           np.full(nodes.size, 1.0 / nodes.size))
    law = draw(st.sampled_from([AxisDistribution("standard_normal"),
                                AxisDistribution("log_weibull", beta=1.5)]))
    return fam, law, members


@st.composite
def shaped_sets(draw, d):
    """A random rectangle, staircase (d = 2) or explicit set of dimension d."""
    kind = draw(st.sampled_from(["rect", "explicit"] + (["staircase"] if d == 2 else [])))
    # long sides reach NumPy's unrolled and pairwise summation, short ones its plain loop
    long_side = {1: 300, 2: 40, 3: 9}[d]
    if kind == "rect":
        return make_rect(draw(st.lists(st.integers(1, long_side), min_size=d, max_size=d)))
    if kind == "staircase":
        return staircase_set(draw(st.lists(st.integers(0, long_side), min_size=1,
                                           max_size=12).filter(any)))
    side = {1: 12, 2: 7, 3: 4}[d]
    cell = st.tuples(*[st.integers(1, side)] * d)
    return explicit_set(sorted(draw(st.sets(cell, min_size=1, max_size=30))))


@st.composite
def field_instances(draw):
    d = draw(st.integers(1, 3))
    axes = [draw(factor_axes()) for _ in range(d)]
    L = draw(shaped_sets(d))
    nv = draw(st.sampled_from([1, 3]))
    kvec = st.tuples(*[st.integers(1, top) for _, _, top in axes])
    weight = st.lists(st.floats(-2.0, 2.0, allow_nan=False), min_size=nv, max_size=nv)
    lam = {k: np.array(w) for k, w in
           draw(st.dictionaries(kvec, weight, min_size=1, max_size=4)).items()}
    return ([fam for fam, _, _ in axes], [law for _, law, _ in axes], lam, nv, L,
            draw(st.integers(1, 30)), draw(st.integers(0, 999)))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(field_instances())
def test_streamed_sums_equal_the_table_path(instance):
    factors, dists, lam, nv, L, N, seed = instance
    for axis, (fam, dist, kmax) in enumerate(zip(factors, dists, mc._kmax(lam, L.d))):
        x = dist.sample_block(RngSpec(seed), axis, 0, 1, 9).ravel()
        assert np.array_equal(fam.evaluate_block(kmax, x), table(fam, kmax, x))
    reference = table_sum_field(factors, lam, nv, L, dists, N, RngSpec(seed))
    streamed, = mc._sum_field(factors, lam, [L], dists, N, RngSpec(seed), 1)
    assert np.array_equal(streamed, reference)
    # the per-term cores: each grid point's row weighed from them is its table row
    kvecs, weights = mc._terms(lam)
    cores, = mc._sum_cores(factors, kvecs, [L], dists, N, RngSpec(seed), 1)
    assert cores.shape == (len(kvecs), N)
    for w, ref in zip(weights, reference, strict=True):
        assert np.array_equal(mc._weigh(cores, w, np.empty(N)) / math.sqrt(L.size), ref)


@st.composite
def families(draw):
    """A kernel over 1-3 mixed axes, a family of 1-3 shaped sets, N and a seed."""
    d = draw(st.integers(1, 3))
    axes = [draw(factor_axes()) for _ in range(d)]
    kvec = st.tuples(*[st.integers(1, top) for _, _, top in axes])
    lam = draw(st.dictionaries(kvec, st.floats(-2.0, 2.0, allow_nan=False),
                               min_size=1, max_size=4))
    kernel = DegenerateKernel(d, lam, [fam for fam, _, _ in axes])
    sets = draw(st.lists(shaped_sets(d), min_size=1, max_size=3))
    return (kernel, [law for _, law, _ in axes], sets, draw(st.integers(1, 12)),
            draw(st.integers(0, 999)))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(families())
def test_family_sums_are_cell_sums_of_the_shared_draws(family):
    kernel, dists, sets, N, seed = family
    rng = RngSpec(seed).child(0)
    field = mc._sum_field(kernel.factors, kernel.lam, sets, dists, N, rng, 1)
    assert len(field) == len(sets)
    for rows, other in zip(field, mc._sum_field(kernel.factors, kernel.lam, sets, dists, N,
                                                rng, 3), strict=True):
        assert rows.tobytes() == other.tobytes()
    # every set reads the family's one draw: per axis, its widest side of columns
    columns = [max(L.axis_max(axis) for L in sets) for axis in range(kernel.d)]
    draws = [dist.sample_block(rng, axis, 0, N, n)
             for axis, (dist, n) in enumerate(zip(dists, columns))]
    for L, rows in zip(sets, field):
        for r in range(N):
            samples = [x[r] for x in draws]
            assert abs(rows[0, r] - naive_S_L(kernel, L, samples)) <= \
                1e-12 * absolute_term_sum(kernel, L, samples)
        table = table_sum_field(kernel.factors, kernel.lam, 1, L, dists, N, rng, columns)
        assert np.array_equal(rows, table)
    # a one-set family reads what its set alone reads, output bytes included
    L = sets[0]
    one, = simulate_family(kernel, [L], dists, N, rng, 3)
    alone = simulate_S_L(kernel, L, dists, N, rng)
    assert mc.empirical_bytes(one) == mc.empirical_bytes(alone)
    assert np.array_equal(alone.values,
                          np.sort(table_sum_field(kernel.factors, kernel.lam, 1, L, dists, N,
                                                  rng)[0]))


def test_members_past_a_family_fail_before_any_row():
    x = np.zeros(3)
    with pytest.raises(ValueError, match="single member"):
        FactorFamily("rademacher_sign").rows(2, x)
    tab = tabulated_family([0.0, 1.0], [[1.0, -1.0], [0.5, 0.5]], [0.5, 0.5])
    with pytest.raises(ValueError, match="2 members"):
        tab.rows(3, x)
    sign = DegenerateKernel(1, {(2,): 1.0}, [FactorFamily("rademacher_sign")])
    with pytest.raises(ValueError, match="single member"):
        simulate_S_L(sign, make_rect([4]), [AxisDistribution("rademacher")], 5, RngSpec(1))
