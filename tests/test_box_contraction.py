"""Property tests: box decompositions of random sets and the contraction built on them."""

import hashlib
import itertools
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from multisum import (AxisDistribution, DegenerateKernel, EmpiricalDist, FactorFamily, RngSpec,
                      compute_S_L, explicit_set, ks_critical, ks_distance, lshape_family,
                      make_rect, simulate_family, simulate_S_L, staircase_set,
                      tabulated_family)
from multisum import _moments, mc
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
    """A random set, a kernel of a factor family per axis (``factor_axes``), covering samples."""
    L = draw(index_sets())
    axes = [draw(factor_axes()) for _ in range(L.d)]
    kvec = st.tuples(*[st.integers(1, top) for _, _, top in axes])
    weight = st.floats(-2.0, 2.0, allow_nan=False)
    lam = draw(st.dictionaries(kvec, weight, min_size=1, max_size=4))
    kernel = DegenerateKernel(L.d, lam, [fam for fam, _, _ in axes])
    samples = [np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n + 2)))
               for n in (L.axis_max(axis) for axis in range(L.d))]
    return kernel, L, samples


def fixed_instance(factors, lam, cells):
    """``instances()``'s triple for an explicit set, with fixed samples in [-3, 3] per axis."""
    L = explicit_set(cells)
    samples = [3.0 * np.sin(np.arange(1, L.axis_max(axis) + 3) * (axis + 1.7))
               for axis in range(L.d)]
    return DegenerateKernel(L.d, lam, factors), L, samples


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
# the power route (Hermite kmax 3), the rows route (Charlier kmax 3) and a mixed 3-d set
@example(fixed_instance([FactorFamily("hermite")] * 2, {(1, 3): 0.8, (3, 2): -1.3, (2, 1): 0.5},
                        [(1, 1), (1, 2), (2, 5), (3, 3), (4, 1), (4, 2), (7, 7)]))
@example(fixed_instance([FactorFamily("poisson_charlier")] * 2,
                        {(3, 3): 1.1, (1, 2): -0.7, (2, 1): 0.4},
                        [(1, 1), (1, 2), (2, 5), (3, 3), (4, 1), (4, 2), (7, 7)]))
@example(fixed_instance([FactorFamily("hermite"), FactorFamily("exponential_poly"),
                         FactorFamily("rademacher_sign")],
                        {(4, 2, 1): 0.6, (1, 3, 1): -1.2, (2, 1, 1): 0.9},
                        [(1, 1, 1), (1, 2, 1), (2, 2, 3), (3, 1, 4), (4, 4, 4), (4, 4, 2)]))
def test_box_contraction_matches_naive(instance):
    kernel, L, samples = instance
    fast = compute_S_L(kernel, L, samples)
    slow = naive_S_L(kernel, L, samples)
    assert abs(fast - slow) <= 1e-12 * absolute_term_sum(kernel, L, samples)


# ---------------------------------------------------------------------------
# the table path: whole factor tables per axis, then slice sums of the tables,
# or on a per-cell Hermite axis of kmax >= 2 whole power tables and their row
# dots.  The streamed path (rows slice-summed as they are made) must reproduce
# it bit for bit, so it is kept here as the reference.
# ---------------------------------------------------------------------------


def _inverse_factorials(kmax, root):
    """``1/k!`` (``1/sqrt(k!)`` when ``root``), each from one correctly rounded division."""
    inv = [1 / math.factorial(k) for k in range(kmax + 1)]
    return np.sqrt(inv) if root else np.array(inv)


def _hermite_table(kmax, x):
    out = np.empty((kmax + 1, x.size))
    out[0] = 1.0
    if kmax >= 1:
        out[1] = x
    for k in range(1, kmax):
        out[k + 1] = x * out[k] - k * out[k - 1]
    return out * _inverse_factorials(kmax, True)[:, None]


def _charlier_table(kmax, x):
    n = x + 1.0
    out = np.empty((kmax + 1, x.size))
    out[0] = 1.0
    if kmax >= 1:
        out[1] = 1.0 - n
    for k in range(1, kmax):
        out[k + 1] = (k + 1.0 - n) * out[k] - k * out[k - 1]
    signs = (-1.0) ** np.arange(kmax + 1)
    return out * (signs * _inverse_factorials(kmax, True))[:, None]


def _sign_table(kmax, x):
    if kmax > 1:
        raise ValueError("the sign family has a single member (k = 1)")
    return np.stack([np.ones_like(x), x])[:kmax + 1]


def _laguerre_table(kmax, x):
    # (-1)**k k! L_k(x + 1): Q_{k+1} = (x - 2k) Q_k - k**2 Q_{k-1}
    out = np.empty((kmax + 1, x.size))
    out[0] = 1.0
    if kmax >= 1:
        out[1] = x
    for k in range(1, kmax):
        out[k + 1] = (x - 2.0 * k) * out[k] - k * k * out[k - 1]
    return out * _inverse_factorials(kmax, False)[:, None]


TABLES = {"hermite": _hermite_table, "poisson_charlier": _charlier_table,
          "rademacher_sign": _sign_table, "exponential_poly": _laguerre_table}


def table(fam, kmax, x):
    """Factors 1..kmax at the points x, shape (kmax, len(x))."""
    if fam.kind != "tabulated":
        return TABLES[fam.kind](kmax, x)[1:]
    if kmax > fam.table.shape[0]:
        raise ValueError(f"tabulated family has {fam.table.shape[0]} members")
    return np.stack([np.interp(x, fam.nodes, row) for row in fam.table[:kmax]])


def hermite_coefficients(k):
    """``He_k = sum_j c[j] x**j`` in closed form: ``c[k - 2i] = (-1)**i k! / (i! (k - 2i)! 2**i)``.

    It shares nothing with the recurrence that ``mc`` builds its coefficients by.
    """
    c = [0] * (k + 1)
    for i in range(k // 2 + 1):
        c[k - 2 * i] = (-1) ** i * math.factorial(k) // (
            math.factorial(i) * math.factorial(k - 2 * i) * 2 ** i)
    return c


def hermite_power_sums(kmax, x):
    """``(lo, hi) -> (kmax, reps)``: the Hermite sums over columns lo..hi of x, from power sums.

    x has shape (reps, columns).  The power table holds ``x**j = x**(j - 1) *
    x`` for j <= m = ceil(kmax / 2); ``S_1`` is a slice sum, ``S_j`` the row
    dot of ``x**ceil(j/2)`` and ``x**floor(j/2)`` (the dots of runs of 8192
    columns added in order), and row k is ``(S_k + c_k,k-2 S_k-2 + ... + c_k0
    n) / sqrt(k!)``, added in that order.
    """
    powers = [x]
    for _ in range(1, (kmax + 1) // 2):
        powers.append(powers[-1] * x)
    norm = _inverse_factorials(kmax, True)

    def sums(lo, hi):
        cols = slice(lo - 1, hi)
        S = [None, x[:, cols].sum(axis=1)]
        for j in range(2, kmax + 1):
            a, b = powers[(j + 1) // 2 - 1][:, cols], powers[j // 2 - 1][:, cols]
            dot = np.vecdot(a[:, :8192], b[:, :8192])
            for at in range(8192, hi - lo + 1, 8192):
                dot = dot + np.vecdot(a[:, at:at + 8192], b[:, at:at + 8192])
            S.append(dot)
        rows = []
        for k in range(1, kmax + 1):
            c, row = hermite_coefficients(k), S[k]
            for j in range(k - 2, 0, -2):
                row = row + c[j] * S[j]
            if k % 2 == 0:
                row = row + c[0] * (hi - lo + 1.0)
            rows.append(row * norm[k] if norm[k] != 1.0 else row)
        return np.stack(rows)

    return sums


def axis_sums(fam, kmax, x):
    """``(lo, hi) -> (kmax, reps)``: an axis' factor sums over columns lo..hi of the draws x.

    A Hermite axis sums powers (``hermite_power_sums``); any other sums
    slices of its whole factor table.
    """
    if fam.kind == "hermite":
        return hermite_power_sums(kmax, x)
    return table_sums(fam, kmax, x)


def table_sums(fam, kmax, x):
    """``(lo, hi) -> (kmax, reps)``: slice sums of the whole factor table of the draws x."""
    t = table(fam, kmax, x.ravel()).reshape(kmax, *x.shape)
    return lambda lo, hi: t[:, :, lo - 1:hi].sum(axis=2)


def table_contract(axes, L, lam, nv, N):
    """The weighted field from per-axis side sums (``axis_sums``); ``lam`` holds ``nv`` weights."""
    sums = [[side(a, b) for side, a, b in zip(axes, lo, hi)]
            for lo, hi in zip(L.lo.tolist(), L.hi.tolist())]
    out = np.zeros((nv, N))
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
    widest side, see ``mc._layouts``), or ``L.axis_max`` when absent.  It is
    the reference of axes sampled cell by cell (``per_cell``).
    """
    axes = []
    for axis, (fam, dist, kmax) in enumerate(zip(factors, dists, mc._kmax(lam, L.d))):
        ncols = L.axis_max(axis) if columns is None else columns[axis]
        axes.append(axis_sums(fam, kmax, dist.reader(rng, axis, ncols)(0, N)))
    return table_contract(axes, L, lam, nv, N) / math.sqrt(L.size)


def per_cell(factors, dists, lam) -> dict:
    """``lam`` with a k = 3 term on each axis that would be segmented, so every axis is per-cell.

    ``mc._layouts`` segments an axis of analytic factors on normal variables
    whose terms all take k = 1, or k <= 2 of the Hermite family; there the
    table path, which draws a variate per cell, is no reference.  The first
    term takes k = 3 on such an axis.
    """
    keys = list(lam)
    for axis, (fam, dist) in enumerate(zip(factors, dists)):
        if (fam.kind != "tabulated" and dist.kind == "standard_normal"
                and all(k[axis] == 1 or (k[axis] == 2 and fam.kind == "hermite")
                        for k in keys)):
            keys[0] = keys[0][:axis] + (3,) + keys[0][axis + 1:]
    return dict(zip(keys, lam.values()))


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
    factors, dists = [fam for fam, _, _ in axes], [law for _, law, _ in axes]
    return (factors, dists, per_cell(factors, dists, lam), nv, L,
            draw(st.integers(1, 30)), draw(st.integers(0, 999)))


# sim-box's kernel, lambda(k, k) = 1/k for k <= 4 on normal axes: both axes sum powers.  A
# derandomized strategy draws examples according to the modules the test process has
# imported, so the Hermite power route is pinned by explicit examples on a box, a staircase
# and an explicit set
SIM_BOX_LAM = {(k, k): 1.0 / k for k in range(1, 5)}
POWER_SETS = [make_rect([37, 29]), staircase_set([6, 4, 1]),
              explicit_set([(1, 1), (1, 3), (2, 2), (5, 4), (7, 7), (7, 8)])]
POWER_INSTANCES = [([FactorFamily("hermite")] * 2, [AxisDistribution("standard_normal")] * 2,
                    {k: np.array([w]) for k, w in SIM_BOX_LAM.items()}, 1, L, 7, 31)
                   for L in POWER_SETS]
# and the rows route (``mc._row_sums``), each axis per cell: Charlier kmax 3 on compensated
# Poisson with Laguerre kmax 2 on the centred exponential; a sign axis (k = 1, Rademacher)
# with a Hermite kmax-4 power axis; a tabulated factor on a log-Weibull axis with Charlier
ROW_AXES = [
    ([FactorFamily("poisson_charlier"), FactorFamily("exponential_poly")],
     [AxisDistribution("compensated_poisson"), AxisDistribution("centered_exponential")],
     {(1, 1): 1.0, (3, 2): -0.6, (2, 1): 0.4}),
    ([FactorFamily("rademacher_sign"), FactorFamily("hermite")],
     [AxisDistribution("rademacher"), AxisDistribution("standard_normal")],
     {(1, 1): 0.9, (1, 4): 0.5, (1, 2): -0.3}),
    ([tabulated_family(np.linspace(-3.0, 3.0, 5),
                       [[-1.0, -0.5, 0.0, 0.5, 1.0], [1.2, -0.4, -1.6, -0.4, 1.2]],
                       np.full(5, 0.2)), FactorFamily("poisson_charlier")],
     [AxisDistribution("log_weibull", beta=1.5), AxisDistribution("compensated_poisson")],
     {(1, 1): 0.7, (2, 2): -1.1, (2, 1): 0.3}),
]
ROW_INSTANCES = [(factors, dists, {k: np.array([w]) for k, w in lam.items()}, 1, L, 7, 31)
                 for (factors, dists, lam), L in zip(ROW_AXES, POWER_SETS)]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(field_instances())
@example(POWER_INSTANCES[0])
@example(POWER_INSTANCES[1])
@example(POWER_INSTANCES[2])
@example(ROW_INSTANCES[0])
@example(ROW_INSTANCES[1])
@example(ROW_INSTANCES[2])
def test_streamed_sums_equal_the_table_path(instance):
    factors, dists, lam, nv, L, N, seed = instance
    for axis, (fam, dist, kmax) in enumerate(zip(factors, dists, mc._kmax(lam, L.d))):
        x = dist.reader(RngSpec(seed), axis, 9)(0, 1).ravel()
        assert mc._layouts(factors, list(lam), [L], dists)[axis] == L.axis_max(axis)
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


@pytest.mark.parametrize("rows", [1, 7, 16385])
def test_short_slice_sums_are_numpys_sums_bit_for_bit(rows):
    # a run of fewer than 8 columns is added column by column, in order from 0.0, and must
    # give NumPy's floats; a NumPy release that reorders its short sums fails here by name.
    # A log-Weibull axis sums every other column of its uniforms' buffer
    rng = np.random.default_rng(rows)
    wide = rng.standard_normal((rows, 140)) * 10.0 ** rng.integers(-6, 7, (rows, 140))
    wide[:, 3:7] = -0.0       # NumPy's sum of a run of signed zeros, from 0.0, is 0.0
    out = np.empty(rows)
    for x in (np.ascontiguousarray(wide[:, :70]), wide[:, ::2]):
        for width in [*range(1, 8), 8, 9, 64]:
            for lo in (1, 2, 4, 5):
                hi = lo + width - 1
                assert mc._slice_sum(x, lo, hi, out) is out
                assert out.tobytes() == x[:, lo - 1:hi].sum(axis=1).tobytes(), (width, lo)


@st.composite
def families(draw):
    """A kernel over 1-3 mixed axes, a family of 1-3 shaped sets, N and a seed."""
    d = draw(st.integers(1, 3))
    axes = [draw(factor_axes()) for _ in range(d)]
    kvec = st.tuples(*[st.integers(1, top) for _, _, top in axes])
    lam = draw(st.dictionaries(kvec, st.floats(-2.0, 2.0, allow_nan=False),
                               min_size=1, max_size=4))
    factors, dists = [fam for fam, _, _ in axes], [law for _, law, _ in axes]
    kernel = DegenerateKernel(d, per_cell(factors, dists, lam), factors)
    sets = draw(st.lists(shaped_sets(d), min_size=1, max_size=3))
    return kernel, dists, sets, draw(st.integers(1, 12)), draw(st.integers(0, 999))


# Explicit examples of both layouts for the family properties below: the examples a
# derandomized strategy draws depend on which modules the test process has imported.
_EXAMPLE_SETS = [make_rect([3, 4]), lshape_family([5])[0], staircase_set([6, 4, 1])]
# Hermite k <= 2 on normal axes: both axes read segment statistics
SEGMENTED_FAMILY = (DegenerateKernel(2, {(1, 1): 1.0, (2, 2): 0.5, (1, 2): -0.7},
                                     [FactorFamily("hermite")] * 2),
                    [AxisDistribution("standard_normal")] * 2, _EXAMPLE_SETS, 9, 17)
# a k = 3 term on each axis: both axes draw a variate per lattice column
PER_CELL_FAMILY = (DegenerateKernel(2, {(1, 3): 0.8, (3, 1): -0.4, (2, 2): 0.3},
                                    [FactorFamily("hermite")] * 2),
                   [AxisDistribution("standard_normal")] * 2, _EXAMPLE_SETS, 9, 17)
# sim-box's kmax-4 kernel on a box, a staircase and an explicit set: power sums on both axes
POWER_FAMILY = (DegenerateKernel(2, SIM_BOX_LAM, [FactorFamily("hermite")] * 2),
                [AxisDistribution("standard_normal")] * 2, POWER_SETS, 7, 31)
# the rows route, each kernel on the family of the three example sets
ROW_FAMILIES = [(DegenerateKernel(2, lam, factors), dists, _EXAMPLE_SETS, 9, 17)
                for factors, dists, lam in ROW_AXES]
# Side sums over runs of 1 to 9 segments or columns: on axis 1 the staircase's sides [1, h]
# cover 1 to 9 of its 9 segments, on axis 0 the box's side covers 9 (``mc._slice_sum`` adds
# a run of fewer than 8 in order, a longer one by NumPy's pairwise sum).  The staircase has 9
# boxes, so each core adds the later boxes' products through the contraction's scratch row
RUN_SETS = [staircase_set([12, 9, 8, 7, 6, 5, 4, 3, 2]), make_rect([9, 12])]
RUN_FAMILIES = [(kernel, dists, RUN_SETS, 9, 17) for kernel, dists, *_ in
                (SEGMENTED_FAMILY, PER_CELL_FAMILY, ROW_FAMILIES[0])]
# three axes of two-box sets, so a product of side sums takes a third factor in place
_BOXES_3D = [((1, 1, 1), (3, 2, 4)), ((4, 1, 1), (5, 5, 1)), ((1, 3, 2), (2, 6, 3))]
THREE_AXIS_FAMILY = (DegenerateKernel(3, {(1, 1, 1): 1.0, (2, 1, 2): -0.5, (1, 3, 1): 0.4},
                                      [FactorFamily("hermite")] * 3),
                     [AxisDistribution("standard_normal")] * 3,
                     [explicit_set(sorted({cell for lo, hi in boxes for cell in itertools.product(
                         *(range(a, b + 1) for a, b in zip(lo, hi)))}))
                      for boxes in (_BOXES_3D[:2], _BOXES_3D[1:])], 9, 17)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(families())
@example(SEGMENTED_FAMILY)
@example(PER_CELL_FAMILY)
@example(POWER_FAMILY)
@example(ROW_FAMILIES[0])
@example(ROW_FAMILIES[1])
@example(ROW_FAMILIES[2])
@example(RUN_FAMILIES[0])
@example(RUN_FAMILIES[1])
@example(RUN_FAMILIES[2])
@example(THREE_AXIS_FAMILY)
def test_family_sums_are_cell_sums_of_the_shared_draws(family):
    kernel, dists, sets, N, seed = family
    rng = RngSpec(seed).child(0)
    field = mc._sum_field(kernel.factors, kernel.lam, sets, dists, N, rng, 1)
    assert len(field) == len(sets)
    for rows, other in zip(field, mc._sum_field(kernel.factors, kernel.lam, sets, dists, N,
                                                rng, 3), strict=True):
        assert rows.tobytes() == other.tobytes()
    # every set sums its cells, or on a segmented axis its segments, of the family's one draw
    kvecs, weights = mc._terms(kernel.lam)
    for L, rows, cores in zip(sets, field, drawn_cores(kernel, sets, dists, N, rng),
                              strict=True):
        assert np.array_equal(rows[0], mc._weigh(cores, weights[0], np.empty(N))
                              / math.sqrt(L.size))
    layouts = mc._layouts(kernel.factors, kvecs, sets, dists)
    if not any(isinstance(layout, list) for layout in layouts):
        # per cell: per axis, the family's widest side of columns, each cell its own variate
        draws = [dist.reader(rng, axis, n)(0, N)
                 for axis, (dist, n) in enumerate(zip(dists, layouts))]
        for L, rows in zip(sets, field):
            for r in range(N):
                samples = [x[r] for x in draws]
                assert abs(rows[0, r] - naive_S_L(kernel, L, samples)) <= \
                    1e-12 * absolute_term_sum(kernel, L, samples)
            table = table_sum_field(kernel.factors, kernel.lam, 1, L, dists, N, rng, layouts)
            assert np.array_equal(rows, table)
    # a one-set family reads what its set alone reads, output bytes included
    L = sets[0]
    one, = simulate_family(kernel, [L], dists, N, rng, 3)
    alone = simulate_S_L(kernel, L, dists, N, rng)
    assert mc.empirical_bytes(one) == mc.empirical_bytes(alone)
    cores, = drawn_cores(kernel, [L], dists, N, rng)
    assert np.array_equal(alone.values, np.sort(mc._weigh(cores, weights[0], np.empty(N))
                                                / math.sqrt(L.size)))


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


# ---------------------------------------------------------------------------
# the segment path: an axis of normal variables whose terms all take the identity
# (k = 1) or Hermite k = 2 draws one normal, and at k = 2 one chi-square, per
# segment of its family's box-edge grid
# ---------------------------------------------------------------------------


def segmented(fam, dist, ks) -> bool:
    """Whether an axis reads segment statistics: a normal law, and k = 1, or Hermite k <= 2."""
    return (dist.kind == "standard_normal" and fam.kind != "tabulated"
            and all(k == 1 or (k == 2 and fam.kind == "hermite") for k in ks))


@st.composite
def box_union_families(draw):
    """A d = 2 kernel with (1, 1) and up to three more terms of k <= 3 on normal axes; its sets.

    Each set is the union of at most 6 boxes in [1, 16]^2, and a family has
    1-3 sets; then N and a seed.  An axis is segmented where its terms take
    k = 1, or k <= 2 of the Hermite family, and sampled cell by cell where a
    term takes k = 3 or k = 2 of another family, so families mix the paths.
    """
    kinds = st.sampled_from(["hermite", "hermite", "poisson_charlier", "exponential_poly"])
    factors = [FactorFamily(draw(kinds)) for _ in range(2)]
    weight = st.floats(-2.0, 2.0, allow_nan=False)
    lam = {(1, 1): draw(weight)}
    for kvec in draw(st.lists(st.sampled_from([(1, 2), (2, 1), (2, 2), (1, 3), (3, 1)]),
                              max_size=3, unique=True)):
        lam[kvec] = draw(weight)
    corner = st.tuples(st.integers(1, 16), st.integers(1, 16))
    sets = []
    for _ in range(draw(st.integers(1, 3))):
        pairs = draw(st.lists(st.tuples(corner, corner), min_size=1, max_size=6))
        sets.append(explicit_set(sorted(
            {(i, j) for a, b in pairs for i in range(min(a[0], b[0]), max(a[0], b[0]) + 1)
             for j in range(min(a[1], b[1]), max(a[1], b[1]) + 1)})))
    return (DegenerateKernel(2, lam, factors), [AxisDistribution("standard_normal")] * 2, sets,
            draw(st.integers(1, 40)), draw(st.integers(0, 999)))


def chi2_pages(seed, axis, dof, N):
    """N rows of the ``(seed, TAG_CHI2, axis)`` stream: whole pages of ``2 Gamma(dof / 2)``."""
    reps = -(-mc._PAGE_VALUES // dof.size)
    pages = []
    for page in range(-(-N // reps)):
        keys = np.random.SeedSequence(seed, spawn_key=(mc.TAG_CHI2, axis, page))
        gen = np.random.Generator(np.random.SFC64(keys))
        pages.append(2.0 * gen.standard_gamma(dof / 2.0, size=(reps, dof.size)))
    return np.concatenate(pages)[:N]


def segment_sums(S, cuts):
    """``(lo, hi) -> (kmax, reps)``: a segmented axis' Hermite sums over cells lo..hi.

    ``S``, shape (kmax, reps, segments) with kmax <= 2, holds per segment
    between the ``cuts`` its power sums ``S_1 = sqrt(n) Z`` and ``S_2 = C +
    Z**2``.  A side slice-sums its run of segments; its ``h_1`` sum is that
    of ``S_1``, and its ``h_2`` sum ``(S_2 - length) sqrt(1/2)``.
    """
    def sums(lo, hi):
        out = S[:, :, cuts.index(lo):cuts.index(hi + 1)].sum(axis=2)
        if len(out) == 2:
            out[1] = (out[1] - (hi - lo + 1.0)) * math.sqrt(0.5)
        return out

    return sums


def drawn_cores(kernel, sets, dists, N, rng):
    """Per set, its (T, N) cores from whole per-axis tables of the draws the family reads.

    A segmented axis reads one normal Z per segment between the sorted
    distinct box edges of all sets and, where a term takes k = 2, one
    chi-square C of n - 1 degrees, n the segment's length; a side sums the
    power sums of the segments it covers (``segment_sums``).  Any other axis
    reads a variate per column, up to the widest set, and a side sums its
    cells (``axis_sums``).
    """
    kvecs = list(kernel.lam)
    axes = []
    for axis, (fam, dist, kmax) in enumerate(zip(kernel.factors, dists,
                                                 mc._kmax(kvecs, kernel.d))):
        if segmented(fam, dist, [k[axis] for k in kvecs]):
            cuts = sorted({int(c) for L in sets for c in (*L.lo[:, axis], *(L.hi[:, axis] + 1))})
            n = np.diff(cuts).astype(float)
            z = dist.reader(rng, axis, n.size)(0, N)
            powers = [z * np.sqrt(n)]
            if kmax == 2:
                powers.append(chi2_pages(rng.seed, axis, n - 1.0, N) + z * z)
            axes.append(segment_sums(np.stack(powers), cuts))
        else:
            x = dist.reader(rng, axis, max(L.axis_max(axis) for L in sets))(0, N)
            axes.append(axis_sums(fam, kmax, x))
    out = []
    for L in sets:
        sums = [[side(a, b) for side, a, b in zip(axes, lo, hi)]
                for lo, hi in zip(L.lo.tolist(), L.hi.tolist())]
        cores = np.empty((len(kvecs), N))
        for kvec, core in zip(kvecs, cores):
            for b, box_sums in enumerate(sums):
                term = box_sums[0][kvec[0] - 1]
                for axis in range(1, len(kvec)):
                    term = term * box_sums[axis][kvec[axis] - 1]
                core[...] = term if b == 0 else core + term
        out.append(cores)
    return out


@settings(max_examples=100, deadline=None, derandomize=True)
@given(box_union_families())
@example(SEGMENTED_FAMILY)
@example(PER_CELL_FAMILY)
@example(RUN_FAMILIES[0])
@example(RUN_FAMILIES[1])
def test_segment_side_sums_are_sums_of_the_scaled_page_draws(family):
    # at 3 workers the second and third chunks start their reads of normals and of
    # chi-squares inside a page
    kernel, dists, sets, N, seed = family
    rng = RngSpec(seed).child(0)
    kvecs, weights = mc._terms(kernel.lam)
    layouts = mc._layouts(kernel.factors, kvecs, sets, dists)
    assert [isinstance(layout, list) for layout in layouts] == \
        [segmented(fam, dist, [k[axis] for k in kvecs])
         for axis, (fam, dist) in enumerate(zip(kernel.factors, dists))]
    reference = drawn_cores(kernel, sets, dists, N, rng)
    for workers in (1, 3):
        cores = mc._sum_cores(kernel.factors, kvecs, sets, dists, N, rng, workers)
        for got, ref in zip(cores, reference, strict=True):
            assert np.array_equal(got, ref)
        for L, dist, ref in zip(sets, simulate_family(kernel, sets, dists, N, rng, workers),
                                reference, strict=True):
            values = mc._weigh(ref, weights[0], np.empty(N)) / math.sqrt(L.size)
            assert np.array_equal(dist.values, np.sort(values))


def test_unit_segments_read_the_per_cell_variates():
    # where every segment has length 1 the chi-squares are 0 and the Z stream has one
    # column per lattice column, so the side sums come from the per-cell draws x and x**2
    # (by slice sums of both, not by the row dots of a per-cell power axis)
    factors = [FactorFamily("hermite")] * 2
    lam = {(1, 1): 1.0, (2, 2): 0.5, (1, 2): -0.7}
    sets = [make_rect([1, 1]), make_rect([2, 2]), make_rect([3, 3])]
    dists = [AxisDistribution("standard_normal")] * 2
    assert mc._layouts(factors, list(lam), sets, dists) == [[1, 2, 3, 4]] * 2
    rng = RngSpec(4).child(0)
    field = mc._sum_field(factors, lam, sets, dists, 50, rng, 2)
    draws = [dist.reader(rng, axis, 3)(0, 50) for axis, dist in enumerate(dists)]
    axes = [segment_sums(np.stack([x, x * x]), [1, 2, 3, 4]) for x in draws]
    for L, rows in zip(sets, field, strict=True):
        assert np.array_equal(rows, table_contract(axes, L, lam, 1, 50) / math.sqrt(L.size))


def test_segment_statistics_keep_each_sets_exact_law():
    # (1, 1), (2, 2), (1, 2) and (2, 1) segment both axes.  A box, an L-shape and a
    # staircase, sampled as one family, each match their exact variance and fourth moment
    # within 4 standard errors, and their per-cell law by a two-sample KS at level 0.01
    factors = [FactorFamily("hermite")] * 2
    lam = {(1, 1): 1.0, (2, 2): 0.6, (1, 2): -0.5, (2, 1): 0.3}
    kernel = DegenerateKernel(2, lam, factors)
    sets = [make_rect([5, 7]), lshape_family([6])[0], staircase_set([6, 4, 1])]
    dists = [AxisDistribution("standard_normal")] * 2
    N = 300_000
    assert all(isinstance(layout, list) for layout in mc._layouts(factors, list(lam), sets, dists))
    field = mc._sum_field(factors, lam, sets, dists, N, RngSpec(11), 1)
    # the per-cell reference: a zero-weight (3, 3) term puts both axes cell by cell,
    # and its sums are the cell sums of its draws (``compute_S_L``) on its first replications
    cell_lam = {**lam, (3, 3): 0.0}
    assert not any(isinstance(layout, list)
                   for layout in mc._layouts(factors, list(cell_lam), sets, dists))
    cells = mc._sum_field(factors, cell_lam, sets, dists, N, RngSpec(12), 1)
    draws = [dist.reader(RngSpec(12), axis, max(L.axis_max(axis) for L in sets))(0, 20)
             for axis, dist in enumerate(dists)]
    for L, rows, (sim,) in zip(sets, cells, field, strict=True):
        for r in range(20):
            cell_sum = compute_S_L(kernel, L, [x[r] for x in draws])
            assert rows[0, r] == pytest.approx(cell_sum, rel=1e-12, abs=1e-12)
        var, fourth = _moments.sum_moments(kernel, L, dists)
        se = math.sqrt(fourth / N - var * var * (N - 3) / (N * (N - 1)))
        assert abs(np.var(sim, ddof=1) - var) <= 4.0 * se
        powers = sim ** 4
        assert abs(powers.mean() - fourth) <= 4.0 * powers.std(ddof=1) / math.sqrt(N)
        ks = ks_distance(EmpiricalDist(sim), EmpiricalDist(rows[0]))
        assert ks <= ks_critical(N, N)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(box_union_families())
@example(SEGMENTED_FAMILY)
@example(PER_CELL_FAMILY)
def test_the_cuts_split_every_side_into_whole_segments(family):
    kernel, dists, sets, _, _ = family
    for axis, cuts in enumerate(mc._layouts(kernel.factors, list(kernel.lam), sets, dists)):
        if not isinstance(cuts, list):
            assert cuts == max(L.axis_max(axis) for L in sets)
            continue
        # the cuts are the distinct box edges of the family, ascending
        edges = {int(c) for L in sets for c in (*L.lo[:, axis], *(L.hi[:, axis] + 1))}
        assert cuts == sorted(edges)
        assert all(type(c) is int for c in cuts)      # the provenance writes them as JSON
        for L in sets:
            size = 0
            for lo, hi in zip(L.lo.tolist(), L.hi.tolist()):
                # a box side is a run of whole segments: no segment straddles its ends
                a, b = cuts.index(lo[axis]), cuts.index(hi[axis] + 1)
                assert sum(np.diff(cuts)[a:b]) == hi[axis] - lo[axis] + 1
                other = 1 - axis
                size += (hi[other] - lo[other] + 1) * sum(np.diff(cuts)[a:b])
            assert size == L.size


# ---------------------------------------------------------------------------
# the power route: a per-cell Hermite axis of kmax >= 2 sums powers of its draws
# and combines them with the integer coefficients of He_k
# ---------------------------------------------------------------------------

ULP = 2.0 ** -52


def exact_hermite_prefix(kmax, x):
    """Per k = 1..kmax, exact prefix sums of ``He_k`` over the floats x, and their scale.

    Every float of x is ``X_i / 2**E`` for integers X_i and one E, and ``H_k =
    2**(E k) He_k(x)`` is an integer by ``H_{k+1} = X H_k - k 4**E H_{k-1}``;
    ``prefix[k][i]`` is the sum of ``H_k`` over the first i values, so a
    side's exact sum is a difference of two prefixes over ``2**(E k)``.
    """
    ratios = [v.as_integer_ratio() for v in x.tolist()]
    E = max(den.bit_length() - 1 for _, den in ratios)
    scale = 1 << 2 * E
    prefix = [[0] for _ in range(kmax + 1)]
    for num, den in ratios:
        X = num << (E - den.bit_length() + 1)
        prev, cur = 1, X
        for k in range(1, kmax + 1):
            prefix[k].append(prefix[k][-1] + cur)
            prev, cur = cur, X * cur - k * scale * prev
    return prefix, E


def power_bound(kmax, x, lo, hi):
    """Per k, ``sum_j |c_kj| sum_{i = lo..hi} |x_i|**j / sqrt(k!)``: the route's error scale."""
    a = np.abs(x[lo - 1:hi])
    moments = [float(hi - lo + 1)] + [float((a ** j).sum()) for j in range(1, kmax + 1)]
    return [sum(abs(c) * m for c, m in zip(hermite_coefficients(k), moments))
            / math.sqrt(math.factorial(k)) for k in range(1, kmax + 1)]


@st.composite
def power_axes(draw):
    """Hermite factors to kmax 2..8 on one of three laws, a family of two d = 2 sets, N, seed.

    Sides reach 4096: a box's first side, a staircase's heights.
    """
    law = AxisDistribution(draw(st.sampled_from(
        ["standard_normal", "compensated_poisson", "centered_exponential"])))
    sets = [make_rect([draw(st.integers(1, 4096)), draw(st.integers(1, 40))]),
            draw(st.one_of(
                st.lists(st.integers(0, 4096), min_size=1, max_size=4).filter(any)
                .map(staircase_set),
                st.sets(st.tuples(st.integers(1, 9), st.integers(1, 9)), min_size=1,
                        max_size=20).map(lambda cells: explicit_set(sorted(cells)))))]
    return law, draw(st.integers(2, 8)), sets, draw(st.integers(1, 2)), draw(st.integers(0, 999))


@settings(max_examples=20, deadline=None, derandomize=True)
@given(power_axes())
@example((AxisDistribution("standard_normal"), 8,
          [make_rect([4096, 3]), staircase_set([4096, 7, 7, 300])], 2, 5))
@example((AxisDistribution("compensated_poisson"), 2,
          [make_rect([1, 1]), explicit_set([(1, 1), (1, 3), (2, 2), (5, 4)])], 2, 6))
@example((AxisDistribution("centered_exponential"), 5,
          [make_rect([1000, 40]), staircase_set([0, 3, 3, 2000])], 1, 7))
def test_power_sums_are_within_ulps_of_exact_hermite_sums(case):
    """The power route's side sums lie within 8 ulp of ``sum_j |c_kj| sum_i |x_i|**j / sqrt(k!)``.

    The reference is the exact rational ``sum_i He_k(x_i)`` over the same
    float draws (``exact_hermite_prefix``), divided by ``sqrt(k!)``.  The
    route rounds each power sum ``S_j`` and each step ``c_kj S_j``, so its
    error scales with that bound; it read at most 1.7 ulp of it (three laws,
    kmax 2..8, sides of 5 to 4096 cells).
    """
    law, kmax, sets, N, seed = case
    for axis in range(2):
        spans, _ = mc._spans(sets, axis)
        x = law.reader(RngSpec(seed), axis, max(L.axis_max(axis) for L in sets))(0, N)
        sums = mc._side_sums(FactorFamily("hermite"), kmax, x, spans)
        for r in range(N):
            prefix, E = exact_hermite_prefix(kmax, x[r])
            for (lo, hi), got in zip(spans, sums):
                bound = power_bound(kmax, x[r], lo, hi)
                for k in range(1, kmax + 1):
                    exact = Fraction(prefix[k][hi] - prefix[k][lo - 1], 1 << E * k)
                    want = float(exact) / math.sqrt(math.factorial(k))
                    assert abs(got[k - 1][r] - want) <= 8 * ULP * bound[k - 1], (lo, hi, k)


@st.composite
def segment_axes(draw):
    """A box, an L-shape and a staircase on two segmented normal axes, N and a seed.

    The staircase's distinct heights cut both axes into segments of unequal
    lengths, so its sides and the box's span one segment or several.
    """
    sets = [make_rect([draw(st.integers(1, 300)), draw(st.integers(1, 300))]),
            lshape_family([draw(st.integers(2, 200))])[0],
            staircase_set(draw(st.lists(st.integers(0, 300), min_size=1, max_size=40)
                               .filter(any)))]
    return sets, draw(st.integers(1, 2)), draw(st.integers(0, 999))


# 8300 distinct heights in steps of 1..5 rows: the box's side on the second axis spans 8303
# segments, more than one 8192-value run of a NumPy sum, and the staircase's span 1..8300
DEEP_STAIRCASE = staircase_set(np.cumsum([1 + i % 5 for i in range(8300)])[::-1])


@settings(max_examples=20, deadline=None, derandomize=True)
@given(segment_axes())
@example(([make_rect([40, 30_000]), lshape_family([64])[0], DEEP_STAIRCASE], 2, 9))
@example(([make_rect([1, 1]), lshape_family([2])[0], staircase_set([3, 1])], 1, 10))
def test_segment_sums_are_within_ulps_of_exact_hermite_sums(case):
    """A segmented axis' ``h_1`` and ``h_2`` side sums lie within 8 ulp of their bound form.

    A side of segments i, of n_i cells each, has ``h_1`` sum ``sum_i sqrt(n_i)
    Z_i`` and ``h_2`` sum ``(sum_i (Z_i**2 + C_i) - n) / sqrt 2``, n = sum_i
    n_i, over the same page draws Z and C.  The reference sums them in 600-bit
    arithmetic, in which ``Z**2 + C`` and its sums are exact rationals, and the
    tolerance is 8 ulp of ``sum_i sqrt(n_i) |Z_i|`` and of ``(sum_i (Z_i**2 +
    C_i) + n) / sqrt 2``, as ``power_bound`` forms it.
    """
    sets, N, seed = case
    normal = AxisDistribution("standard_normal")
    rng = RngSpec(seed).child(0)
    for axis, cuts in enumerate(mc._layouts(_hermite(2), [(1, 1), (2, 2)], sets, [normal] * 2)):
        n = np.diff(cuts).astype(float)
        spans, _ = mc._spans(sets, axis)
        got = mc._axis_sums(FactorFamily("hermite"), 2, normal, rng, axis, cuts, spans, N)(
            0, N, np.empty((3, N * n.size)))
        z = normal.reader(rng, axis, n.size)(0, N)
        c = chi2_pages(rng.seed, axis, n - 1.0, N)
        at = {cut: i for i, cut in enumerate(cuts)}
        with mpmath.workprec(600):
            roots = [mpmath.sqrt(v) for v in n.tolist()]
            for r in range(N):
                # prefix sums over the segments of sqrt(n) Z, sqrt(n) |Z| and Z**2 + C
                s1, a1, s2 = [mpmath.mpf(0)], [mpmath.mpf(0)], [mpmath.mpf(0)]
                for root, zi, ci in zip(roots, z[r].tolist(), c[r].tolist()):
                    s1.append(s1[-1] + root * zi)
                    a1.append(a1[-1] + root * abs(zi))
                    s2.append(s2[-1] + mpmath.mpf(zi) ** 2 + ci)
                for (lo, hi), side in zip(spans, got):
                    a, b, length = at[lo], at[hi + 1], hi - lo + 1
                    want1, bound1 = float(s1[b] - s1[a]), float(a1[b] - a1[a])
                    want2 = float((s2[b] - s2[a] - length) / mpmath.sqrt(2))
                    bound2 = float((s2[b] - s2[a] + length) / mpmath.sqrt(2))
                    assert abs(side[0][r] - want1) <= 8 * ULP * bound1, (lo, hi)
                    assert abs(side[1][r] - want2) <= 8 * ULP * bound2, (lo, hi)


def _hermite(d):
    return [FactorFamily("hermite")] * d


# Hermite k <= 2 on a Poisson axis (per cell, no power row past x); kmax 12 on a normal
# axis (five power rows, past the three row buffers); a family of a power axis (k <= 4 on
# normal draws) and a segmented one (k <= 2); and sides wider than 8192 columns
POWER_EDGE_CASES = {
    "poisson_kmax2": (DegenerateKernel(1, {(1,): 0.5, (2,): 1.0}, _hermite(1)),
                      [AxisDistribution("compensated_poisson")],
                      [make_rect([300]), explicit_set([[1], [3], [4], [9]])], 40, 3),
    "normal_kmax12": (DegenerateKernel(1, {(k,): 1.0 / k for k in range(1, 13)}, _hermite(1)),
                      [AxisDistribution("standard_normal")],
                      [make_rect([257]), explicit_set([[2], [3], [40], [41], [42]])], 30, 4),
    "power_and_segments": (DegenerateKernel(2, {(1, 1): 1.0, (2, 2): 0.5, (4, 1): -0.3,
                                                (3, 2): 0.2}, _hermite(2)),
                           [AxisDistribution("standard_normal")] * 2,
                           [make_rect([37, 29]), staircase_set([6, 4, 1])], 30, 5),
    # sides past one run of 8192 columns, which add the dots of their runs
    "wide_sides": (DegenerateKernel(1, {(k,): 1.0 for k in range(1, 5)}, _hermite(1)),
                   [AxisDistribution("standard_normal")],
                   [make_rect([20_000]), make_rect([8193]), make_rect([8192])], 3, 8),
}


@pytest.mark.parametrize("name", sorted(POWER_EDGE_CASES))
def test_power_axes_match_the_recurrence_at_any_block(name):
    kernel, dists, sets, N, seed = POWER_EDGE_CASES[name]
    rng, kvecs = RngSpec(seed), list(kernel.lam)
    cores = mc._sum_cores(kernel.factors, kvecs, sets, dists, N, rng, 1)
    for budget in (mc._BLOCK_BUDGET, 64):       # 64 floats: one-replication blocks
        with mock.patch.object(mc, "_BLOCK_BUDGET", budget):
            for workers in (1, 3):
                again = mc._sum_cores(kernel.factors, kvecs, sets, dists, N, rng, workers)
                assert again.tobytes() == cores.tobytes()
    for got, ref in zip(cores, drawn_cores(kernel, sets, dists, N, rng), strict=True):
        assert np.array_equal(got, ref)
    # on the same draws, each power axis' side sums are the recurrence rows' within the bound
    layouts = mc._layouts(kernel.factors, kvecs, sets, dists)
    powered = 0
    for axis, (fam, dist, kmax, layout) in enumerate(zip(kernel.factors, dists,
                                                        mc._kmax(kvecs, kernel.d), layouts)):
        if isinstance(layout, list):
            continue
        powered += 1
        x = dist.reader(rng, axis, layout)(0, N)
        power, rows = hermite_power_sums(kmax, x), table_sums(fam, kmax, x)
        for lo, hi in mc._spans(sets, axis)[0]:
            diff = np.abs(power(lo, hi) - rows(lo, hi))
            for r in range(N):
                assert np.all(diff[:, r] <= 8 * ULP * np.array(power_bound(kmax, x[r], lo, hi)))
    assert powered == 1


WIDE_CORES = """
import hashlib
from multisum import AxisDistribution, DegenerateKernel, FactorFamily, RngSpec, make_rect, mc
cores = mc._sum_cores([FactorFamily("hermite")], [(k,) for k in range(1, 5)],
                      [make_rect([20_000])], [AxisDistribution("standard_normal")], 3,
                      RngSpec(8), 1)
print(hashlib.sha256(cores.tobytes()).hexdigest())
"""


def test_wide_power_sums_do_not_follow_the_blas_thread_count():
    # OpenBLAS threads a dot of more than 10 000 values, so one np.vecdot over a side of 20 000
    # gives other floats at OPENBLAS_NUM_THREADS=1 than at the default on two or more cores
    src = str(Path(mc.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", WIDE_CORES], env=env, capture_output=True,
                          text=True, check=True, timeout=120)
    kernel, dists, sets, N, seed = POWER_EDGE_CASES["wide_sides"]
    cores = mc._sum_cores(kernel.factors, list(kernel.lam), sets[:1], dists, N, RngSpec(seed), 1)
    assert done.stdout.split() == [hashlib.sha256(cores.tobytes()).hexdigest()]
