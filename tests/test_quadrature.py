"""Tensor quadrature by slabs: the slab product against the whole value grid."""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from multisum import DegenerateKernel, FactorFamily, tabulated_family
from multisum import kernels

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


# ---------------------------------------------------------------------------
# the whole-grid path: every node's value in one array, then one log-sum-exp
# over all of it.  The slab product must agree with it, so it is kept here as
# the reference.
# ---------------------------------------------------------------------------


def reference_lp_norm(vals, weights, p):
    with np.errstate(divide="ignore"):
        np.log(np.abs(vals, out=vals), out=vals)
        vals *= p
        for axis, w in enumerate(weights):
            shape = [1] * vals.ndim
            shape[axis] = -1
            vals += np.log(w).reshape(shape)
    top = vals.max()
    if top == -np.inf:
        return 0.0
    vals -= top
    np.exp(vals, out=vals)
    return float(np.exp((top + math.log(vals.sum())) / p))


def value_grid(kernel, terms, absolute=False):
    """The kernel's values on its whole tensor grid, or the sum of the terms' magnitudes."""
    rules = [fam.rule for fam in kernel.factors]
    vals = np.zeros(tuple(x.size for x, _ in rules))
    for kvec, w in terms.items():
        term = abs(w) if absolute else w
        for axis, k in enumerate(kvec):
            shape = [1] * kernel.d
            shape[axis] = -1
            row = kernel.factors[axis].evaluate_block(k, rules[axis][0])[k - 1]
            term = term * (np.abs(row) if absolute else row).reshape(shape)
        vals += term
    return vals, [w for _, w in rules]


def reference_moment(kernel, p, terms=None):
    terms = kernel.lam if terms is None else terms
    return reference_lp_norm(*value_grid(kernel, terms), p)


# ---------------------------------------------------------------------------
# random kernels over every factor kind
# ---------------------------------------------------------------------------

_MAX_INDEX = {"hermite": 6, "poisson_charlier": 6, "exponential_poly": 6,
              "rademacher_sign": 1}
_NODES = {"hermite": 64, "poisson_charlier": 140, "exponential_poly": 64,
          "rademacher_sign": 2}
_GRID_CAP = 1 << 18   # the reference holds the whole grid


@st.composite
def tabulated(draw):
    n = draw(st.integers(2, 9))
    members = draw(st.integers(1, 3))
    table = draw(st.lists(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n),
                          min_size=members, max_size=members))
    weights = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=n, max_size=n)))
    return tabulated_family(np.arange(n, dtype=float), table, weights / weights.sum())


def _nodes(fam):
    return fam.nodes.size if fam.kind == "tabulated" else _NODES[fam.kind]


def _members(fam):
    return fam.table.shape[0] if fam.kind == "tabulated" else _MAX_INDEX[fam.kind]


@st.composite
def families(draw, d):
    kinds = st.sampled_from(sorted(_NODES) + ["tabulated"])
    fams = []
    for _ in range(d):
        kind = draw(kinds)
        fams.append(draw(tabulated()) if kind == "tabulated" else FactorFamily(kind))
    return fams


@st.composite
def instances(draw):
    """A kernel of 1..4 axes, a nonempty subset of its terms, p and a slab budget."""
    d = draw(st.integers(1, 4))
    fams = draw(families(d).filter(lambda fs: math.prod(map(_nodes, fs)) <= _GRID_CAP))
    kvec = st.tuples(*[st.integers(1, _members(fam)) for fam in fams])
    weight = st.one_of(st.just(0.0), st.floats(0.01, 2.0), st.floats(-2.0, -0.01))
    lam = draw(st.dictionaries(kvec, weight, min_size=1, max_size=6))
    keys = draw(st.lists(st.sampled_from(sorted(lam)), min_size=1, unique=True))
    p = draw(st.floats(2.0, 64.0))
    budget = draw(st.integers(1, 5_000))
    return DegenerateKernel(d, lam, fams), {k: lam[k] for k in keys}, p, budget


# ---------------------------------------------------------------------------
# one walk for a whole p-grid against one walk per p: the one-p slab walk is
# kept here as the reference, so each grid value must equal it bit for bit.
# ---------------------------------------------------------------------------


def one_p_lp_norm(slabs, p):
    """The one-p walk over every slab: it makes each block and reads no bound."""
    top, total = -math.inf, 0.0
    for vals, log_weights, _ in slabs:
        vals = vals() if callable(vals) else vals
        with np.errstate(divide="ignore"):
            np.log(np.abs(vals, out=vals), out=vals)
        vals *= p
        for log_w in log_weights:
            vals += log_w
        peak = vals.max()
        if not peak < math.inf:
            return math.nan
        if peak > top:
            total *= math.exp(top - peak)
            top = peak
        live = vals[vals > top + kernels._EXP_FLOOR]
        live -= top
        total += np.exp(live, out=live).sum()
    if top == -math.inf:
        return 0.0
    return float(np.exp((top + math.log(total)) / p))


def _same(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


def block_tops(vals, log_weights, p_grid):
    """Per p, the largest ``p log|v| + log w`` of a block, by the walk's own float operations."""
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = np.log(np.abs(vals))
        tops = []
        for p in p_grid:
            terms = logs * p
            for log_w in log_weights:
                terms = terms + log_w
            tops.append(float(terms.max()))
    return tops


@st.composite
def slab_streams(draw):
    """1-4 slabs of one width, each on its own scale: some all zero, one maybe non-finite.

    A slab is made eagerly or by a function, and carries no bounds or, per p,
    its largest term plus a slack of 0 or more, so the walk skips the slabs
    that the running top rules out.
    """
    cols = draw(st.integers(1, 12))
    log_right = np.array(draw(st.lists(st.floats(-40.0, 0.0), min_size=cols, max_size=cols)))
    slabs = []
    for _ in range(draw(st.integers(1, 4))):
        rows = draw(st.integers(1, 6))
        if draw(st.booleans()) and draw(st.booleans()):
            vals = np.zeros((rows, cols))
        else:
            scale = 10.0 ** draw(st.integers(-150, 150))    # moves the running top between slabs
            vals = scale * np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=rows * cols,
                                                  max_size=rows * cols))).reshape(rows, cols)
        log_left = np.array(draw(st.lists(st.floats(-40.0, 0.0), min_size=rows,
                                          max_size=rows)))[:, None]
        slabs.append((vals, [log_left, log_right]))
    if draw(st.booleans()) and draw(st.booleans()):
        vals = slabs[draw(st.integers(0, len(slabs) - 1))][0]
        vals.flat[draw(st.integers(0, vals.size - 1))] = draw(
            st.sampled_from([math.inf, -math.inf, math.nan]))
    p_grid = draw(st.lists(st.floats(1.0, 16.0) | st.sampled_from([2.0, 8.0]),
                           min_size=1, max_size=5))
    p_grid += draw(st.lists(st.sampled_from(p_grid), max_size=2))    # repeated p
    slack = st.sampled_from([0.0, 1e-9, 1.0, 100.0])
    slabs = [(vals, log_weights, draw(st.booleans()),
              draw(st.sampled_from([None, [t + draw(slack) for t in
                                           block_tops(vals, log_weights, p_grid)]])))
             for vals, log_weights in slabs]
    return slabs, p_grid


def _fresh(slabs, index=None):
    """Copies of the slabs, with the bounds of the one p at ``index`` of the grid if given."""
    return [((lambda v=vals: v.copy()) if lazy else vals.copy(), log_weights,
             tops if tops is None or index is None else [tops[index]])
            for vals, log_weights, lazy, tops in slabs]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(slab_streams())
def test_grid_walk_equals_the_one_p_walks(stream):
    slabs, p_grid = stream
    got = kernels._lp_norm(_fresh(slabs), p_grid)
    want = [one_p_lp_norm(_fresh(slabs), p) for p in p_grid]
    assert len(got) == len(want)
    assert all(map(_same, got, want)), (got, want)
    assert all(map(_same, got, [kernels._lp_norm(_fresh(slabs, i), [p])[0]
                                for i, p in enumerate(p_grid)]))


@SETTINGS
@given(instances(), st.lists(st.floats(2.0, 64.0), min_size=1, max_size=4))
def test_kernel_grid_moments_equal_the_one_p_moments(instance, p_grid):
    kernel, terms, _, budget = instance
    with mock.patch.object(kernels, "_SLAB_FLOATS", budget):
        got = kernel.moments(p_grid, terms)
        with mock.patch.object(kernels, "_lp_norm",
                               lambda slabs, one_p: [one_p_lp_norm(slabs, *one_p)]):
            want = [kernel.moment(p, terms) for p in p_grid]
    assert all(map(_same, got, want)), (got, want)


@SETTINGS
@given(instances())
def test_slab_product_matches_the_whole_grid(instance):
    kernel, terms, p, budget = instance
    with mock.patch.object(kernels, "_SLAB_FLOATS", budget):
        got = kernel.moment(p, terms)
    want = reference_moment(kernel, p, terms)
    # relative to the norm of the summed magnitudes, which is the value itself
    # unless the terms cancel, where the order of the additions shows
    scale = reference_lp_norm(*value_grid(kernel, terms, absolute=True), p)
    assert got == pytest.approx(want, rel=1e-13, abs=1e-13 * scale)


def test_uneven_slabs_cover_every_leading_row():
    # 64 x 64 nodes in blocks of 18 x 18 (budget 5 * 64 + 7): the last row and column runs hold 10
    fam = FactorFamily("hermite")
    kernel = DegenerateKernel(2, {(1, 1): 1.0, (2, 3): -0.5, (4, 1): 0.25}, [fam, fam])
    with mock.patch.object(kernels, "_SLAB_FLOATS", 5 * 64 + 7):
        got = kernel.moment(6.0)
    assert got == pytest.approx(reference_moment(kernel, 6.0), rel=1e-13)


# ---------------------------------------------------------------------------
# fixed cases
# ---------------------------------------------------------------------------


def _poisson(d, lam):
    return DegenerateKernel(d, lam, [FactorFamily("poisson_charlier")] * d)


def test_empty_terms_and_zero_grid_give_zero():
    kernel = _poisson(3, {(1, 1, 1): 0.5})
    assert kernel.moment(4.0, {}) == 0.0
    assert _poisson(3, {(1, 1, 1): 0.0, (2, 1, 1): 0.0}).moment(4.0) == 0.0


@pytest.mark.parametrize("w", [math.inf, -math.inf, math.nan])
def test_non_finite_grid_value_gives_nan(w):
    fam = FactorFamily("hermite")    # no node at 0, so w * x is never 0 * inf
    kernel = DegenerateKernel(2, {(1, 1): 1.0, (2, 2): w}, [fam, fam])
    assert math.isnan(kernel.moment(2.0))
    assert math.isnan(kernel.residual_norms(1, [2.0])[0])


def test_one_axis_factor_moment_matches_the_reference():
    for kind in sorted(_NODES):
        fam = FactorFamily(kind)
        x, w = fam.rule
        for p in (2.0, 5.5, 64.0):
            want = reference_lp_norm(fam.evaluate(1, x), [w], p)
            assert fam.moment(1, p) == pytest.approx(want, rel=1e-15)


def test_node_limit_is_checked_before_any_work():
    kernel = _poisson(5, {(1,) * 5: 1.0})
    with mock.patch.object(FactorFamily, "evaluate_block") as evaluate:
        with pytest.raises(ValueError, match=str(140 ** 5)):
            kernel.moment(2.0)
    evaluate.assert_not_called()


def test_four_axis_moment_stays_in_a_few_mib():
    # 64**4 Hermite nodes: the whole grid would take 128 MiB
    fam = FactorFamily("hermite")
    lam = {(k,) * 4: 1.0 / k for k in range(1, 4)}
    kernel = DegenerateKernel(4, lam, [fam] * 4)
    peaks = []
    for p_grid in ([2.0], [2.0, 4.0, 8.0], [2.0, 3.0, 4.0, 5.0, 6.0, 8.0]):
        tracemalloc.start()
        try:
            got = kernel.moments(p_grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peaks.append(peak)
    assert peaks[0] < 4 * 2 ** 20
    assert got[0] == pytest.approx(math.sqrt(sum(w * w for w in lam.values())), rel=1e-10)
    # a grid of any length adds one slab-sized buffer, never a value grid per p
    slab = kernels._SLAB_FLOATS * 8
    assert abs(peaks[1] - peaks[0] - slab) < 2 ** 16
    assert abs(peaks[2] - peaks[1]) < 2 ** 12


# ---------------------------------------------------------------------------
# the blocks a walk makes
# ---------------------------------------------------------------------------


def counted_moments(kernel, p_grid, skip=True):
    """``kernel.moments(p_grid)`` and the number of grid values its walk made.

    Without ``skip`` the walk gets no block bounds, so it makes every block.
    """
    made, walk = [], kernels._lp_norm

    def counting_walk(slabs, p_grid):
        def counted():
            for vals, log_weights, tops in slabs:
                def make(vals=vals):
                    out = vals() if callable(vals) else vals
                    made.append(out.size)
                    return out
                yield make, log_weights, tops if skip else None
        return walk(counted(), p_grid)

    with mock.patch.object(kernels, "_lp_norm", counting_walk):
        norms = kernel.moments(p_grid)
    return norms, sum(made)


def test_bounds_kernel_walk_makes_at_most_30_percent_of_its_grid():
    # the benchmark's bound kernel: behind the e**-1 / k! weights almost every term lies
    # more than e**64 below the largest, and heaviest-first blocks leave them unmade
    kernel = _poisson(3, {(k,) * 3: 2.0 ** -k for k in range(1, 9)})
    norms, made = counted_moments(kernel, [2.0, 4.0, 8.0])
    assert made <= 0.3 * 140 ** 3
    assert counted_moments(kernel, [2.0, 4.0, 8.0], skip=False) == (norms, 140 ** 3)


def test_equal_weights_walk_makes_every_value():
    # factor values within a factor of 3 of each other: no block can fall e**64 below another
    n = 40
    table = 1.0 + 0.5 * np.sin(np.arange(1, 3)[:, None] * np.arange(n)[None, :])
    fam = tabulated_family(np.arange(n, dtype=float), table, np.full(n, 1.0 / n))
    kernel = DegenerateKernel(3, {(1, 1, 1): 1.0, (2, 1, 2): -0.5, (2, 2, 2): 0.25}, [fam] * 3)
    norms, made = counted_moments(kernel, [2.0, 4.0, 8.0])
    assert made == n ** 3
    assert counted_moments(kernel, [2.0, 4.0, 8.0], skip=False) == (norms, n ** 3)


@st.composite
def factor_pairs(draw):
    """A left (n_lead, T) and right (T, n_trail) factor, log weights, a p-grid and a budget."""
    n_lead, n_trail, count = draw(st.integers(1, 40)), draw(st.integers(1, 40)), draw(st.integers(1, 5))
    scaled = st.tuples(st.floats(-1.0, 1.0), st.integers(-30, 30)).map(lambda m: m[0] * 10.0 ** m[1])
    entry = st.one_of(st.just(0.0), scaled)
    left = np.array(draw(st.lists(entry, min_size=n_lead * count, max_size=n_lead * count)))
    right = np.array(draw(st.lists(entry, min_size=count * n_trail, max_size=count * n_trail)))
    log_w = st.floats(-300.0, 0.0)
    log_left = np.array(draw(st.lists(log_w, min_size=n_lead, max_size=n_lead)))
    log_right = np.array(draw(st.lists(log_w, min_size=n_trail, max_size=n_trail)))
    p_grid = draw(st.lists(st.floats(1.0, 64.0), min_size=1, max_size=4))
    return (left.reshape(n_lead, count), right.reshape(count, n_trail), log_left, log_right,
            p_grid, draw(st.integers(1, 400)))


def _checked_blocks(left, right, log_left, log_right, p_grid):
    """Per block, its bounds and its largest ``p log|v| + log w`` at each p, as the walk makes it."""
    for vals, log_weights, tops in kernels._blocks(left, right, log_left, log_right, p_grid):
        yield tops, block_tops(vals(), log_weights, p_grid)


@SETTINGS
@given(factor_pairs())
@example((np.array([[1e-9]]), np.array([[2.0 ** -1022]]), np.zeros(1), np.zeros(1), [1.0], 1))
def test_block_bounds_hold_every_term(pair):
    # the example's product is subnormal, so it rounds up by far more than a relative ulp
    *factors, budget = pair
    with mock.patch.object(kernels, "_SLAB_FLOATS", budget):
        for tops, largest in _checked_blocks(*factors):
            assert all(t >= m for t, m in zip(tops, largest)), (tops, largest)


def test_block_bound_is_tight_where_every_term_adds_up():
    # every L_it R_tj is the same positive value, so |v| = T max_t |L_it R_tj|: the bound's
    # p log T is needed in full
    count = 6
    left, right = np.full((30, count), 0.5), np.full((count, 50), 3.0)
    log_left, log_right = np.linspace(-5.0, 0.0, 30), np.linspace(-9.0, -1.0, 50)
    with mock.patch.object(kernels, "_SLAB_FLOATS", 64):
        for tops, largest in _checked_blocks(left, right, log_left, log_right, [2.0, 7.5]):
            assert all(m <= t <= m + 1e-6 for t, m in zip(tops, largest)), (tops, largest)


def test_four_axis_poisson_l2_norm_is_the_lambda_norm():
    # 140**4 nodes; orthonormal Charlier factors make |f|_2 = sqrt(sum lambda**2)
    lam = {(k,) * 4: 2.0 ** -k for k in range(1, 9)}
    [got] = _poisson(4, lam).moments([2.0])
    assert got == pytest.approx(math.sqrt(sum(w * w for w in lam.values())), rel=1e-12)
