"""Moment-bound routes: Rosenthal function, trivial/Klesov/quasi-norm/split bounds."""

import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multisum import (BoundReport, DegenerateKernel, FactorFamily, TabulatedKernel,
                      dp_quasinorm, rosenthal_K, tabulated_family,
                      theorem_W_bound, theorem_W_bounds, trivial_bound, ROSENTHAL_CONSTANT)
from multisum.rosenthal import _dp_terms, _residual_floors

E = math.e


# ---------------------------------------------------------------------------
# the Rosenthal function
# ---------------------------------------------------------------------------


def test_rosenthal_K_anchor_values():
    assert rosenthal_K(2.0) == 1.0
    assert rosenthal_K(E) == pytest.approx(ROSENTHAL_CONSTANT, rel=1e-14)
    # direct arithmetic at the constant's argmax point
    p0 = 33.4610
    assert rosenthal_K(p0) == pytest.approx(6.229111509618731, rel=1e-12)
    assert rosenthal_K(4.0) == pytest.approx(1.8855841877051704, rel=1e-12)


def test_rosenthal_K_domain_and_jump():
    with pytest.raises(ValueError):
        rosenthal_K(1.9)
    # documented upper-bound artifact: the rule jumps above 1 just past p = 2
    assert rosenthal_K(2.0 + 1e-9) > 1.8
    arr = rosenthal_K(np.array([2.0, 4.0, 8.0]))
    assert arr[0] == 1.0 and arr[2] > arr[1]


def test_rosenthal_K_minimum_at_e():
    ps = np.linspace(2.01, 60, 500)
    vals = rosenthal_K(ps)
    assert abs(ps[np.argmin(vals)] - E) < 0.1


# ---------------------------------------------------------------------------
# trivial bound
# ---------------------------------------------------------------------------


def test_trivial_bound_values():
    assert trivial_bound(0.0, 4.0, 7) == 0.0
    assert trivial_bound(1.0, 2.0, 4) == 2.0
    rng = np.random.default_rng(5)
    for _ in range(20):
        m = float(rng.uniform(0.1, 5))
        c = float(rng.uniform(0.5, 3))
        n = int(rng.integers(1, 100))
        assert trivial_bound(c * m, 2.0, n) == pytest.approx(
            c * trivial_bound(m, 2.0, n), rel=1e-14)


# ---------------------------------------------------------------------------
# Klesov product bound: K(p)**d * D_p of a rank-one kernel
# ---------------------------------------------------------------------------


def sign_kernel(d):
    return DegenerateKernel(d, {(1,) * d: 1.0}, [FactorFamily("rademacher_sign")] * d)


def klesov(kernel, p):
    return rosenthal_K(p) ** kernel.d * dp_quasinorm(kernel, p)


def test_rank_one_product_bound_values():
    assert klesov(sign_kernel(2), 2.0) == 1.0
    assert klesov(sign_kernel(1), 4.0) == pytest.approx(1.8855841877051704, rel=1e-12)


def exact_fourth_moment_rademacher(cells):
    """Oracle: E S_L^4 for f = x*y on sign variables, enumerated exactly."""
    rows = sorted({i for i, _ in cells})
    cols = sorted({j for _, j in cells})
    total = 0.0
    count = 0
    for eps in itertools.product((-1.0, 1.0), repeat=len(rows)):
        row_val = dict(zip(rows, eps))
        for delta in itertools.product((-1.0, 1.0), repeat=len(cols)):
            col_val = dict(zip(cols, delta))
            s = sum(row_val[i] * col_val[j] for i, j in cells) / math.sqrt(len(cells))
            total += s ** 4
            count += 1
    return total / count


def test_klesov_dominates_enumerated_fourth_moments():
    # every nonempty subset of the 3x3 grid, enumerated over all sign choices
    grid = [(i, j) for i in range(1, 4) for j in range(1, 4)]
    bound = klesov(sign_kernel(2), 4.0)          # Rademacher |g|_p = 1 for all p
    worst = 0.0
    for r in range(1, 10):
        for cells in itertools.combinations(grid, r):
            m4 = exact_fourth_moment_rademacher(cells) ** 0.25
            worst = max(worst, m4)
            assert m4 <= bound + 1e-12
    assert worst > 1.0   # the bound is doing nontrivial work somewhere


# ---------------------------------------------------------------------------
# representation quasi-norm
# ---------------------------------------------------------------------------


def unit_hermite_kernel(lam):
    return DegenerateKernel(2, lam, [FactorFamily("hermite"), FactorFamily("hermite")])


def test_dp_rank_one_unit():
    k = unit_hermite_kernel({(1, 1): 1.0})
    assert dp_quasinorm(k, 2.0) == pytest.approx(1.0, rel=1e-12)


def test_dp_two_term_diagonal_at_two():
    k = unit_hermite_kernel({(1, 1): 0.6, (2, 2): 0.4})
    # orthonormal factors have unit L2 norms, so the value is the weight sum
    assert dp_quasinorm(k, 2.0) == pytest.approx(1.0, rel=1e-10)


def test_dp_bounded_by_product_of_axis_maxima():
    rng = np.random.default_rng(11)
    for _ in range(10):
        keys = {(int(rng.integers(1, 4)), int(rng.integers(1, 4))) for _ in range(3)}
        w = rng.uniform(-1, 1, len(keys))
        w = w / np.sum(np.abs(w))            # l1 weight 1
        k = unit_hermite_kernel(dict(zip(sorted(keys), w)))
        p = 4.0
        cap = 1.0
        for axis in range(2):
            cap *= max(k.factors[axis].moment(j, p) for j in range(1, 4))
        assert dp_quasinorm(k, p) <= cap + 1e-12


# ---------------------------------------------------------------------------
# best-split bound
# ---------------------------------------------------------------------------


def test_theorem_w_rank_one_reduces_to_klesov():
    k = unit_hermite_kernel({(1, 1): 1.0})
    rep = theorem_W_bound(k, 4.0, L_size=50, M_max=6)
    expect = rosenthal_K(4.0) ** 2 * dp_quasinorm(k, 4.0)
    assert rep.m_star == 1
    assert rep.route == "theorem_W"
    assert rep.bound_value == pytest.approx(expect, rel=1e-12)


def brownian_tabulated(n=128):
    return TabulatedKernel.from_function(lambda x, y: np.minimum(x, y), n=n)


def centered_brownian_tabulated(n=128):
    def f(x, y):
        return np.minimum(x, y) - (x - x * x / 2) - (y - y * y / 2) + 1.0 / 3.0
    return TabulatedKernel.from_function(f, n=n)


def tabulated_rank_split(tk, m, p):
    """Reference ``(Z_M, Q_{M,p})``: a fresh rank-m kernel from the SVD, and its residual."""
    s, left, right = tk.spectral()
    rank = int(np.sum(s > s[0] * 1e-13)) if s.size else 0
    m_eff = min(m, s.size)
    fam_x = tabulated_family(tk.x_nodes, left[:m_eff], tk.x_weights)
    fam_y = tabulated_family(tk.y_nodes, right[:m_eff], tk.y_weights)
    lam = {(k + 1, k + 1): float(s[k]) for k in range(m_eff)}
    z_m = DegenerateKernel(2, lam, [fam_x, fam_y])
    if m >= rank:
        return z_m, 0.0
    if p == 2.0:
        return z_m, float(math.sqrt(np.sum(s[m_eff:] ** 2)))
    recon = (left[:m_eff].T * s[:m_eff]) @ right[:m_eff]
    resid = TabulatedKernel(tk.x_nodes, tk.x_weights, tk.y_nodes, tk.y_weights,
                            tk.values - recon)
    return z_m, resid.moment(p)


def degenerate_rank_split(kernel, m, p):
    """Reference ``(Z_M, Q_{M,p})``: fresh kernels for the terms up to m and above it."""
    head = {k: w for k, w in kernel.lam.items() if max(k) <= m}
    tail = {k: w for k, w in kernel.lam.items() if max(k) > m}
    z_m = DegenerateKernel(kernel.d, head, kernel.factors)
    if not tail:
        return z_m, 0.0
    return z_m, DegenerateKernel(kernel.d, tail, kernel.factors).moment(p)


def per_rank_theorem_w(kernel, p, L_size, M_max, visited=None):
    """Reference best split: build Z_M and its residual from scratch at every rank.

    ``visited``, a list, receives each rank the search reaches.
    """
    split = tabulated_rank_split if isinstance(kernel, TabulatedKernel) else degenerate_rank_split
    kd = rosenthal_K(p) ** kernel.d
    best_val, best_m = math.inf, None
    for m in range(1, M_max + 1):
        if visited is not None:
            visited.append(m)
        z_m, q_m = split(kernel, m, p)
        val = kd * dp_quasinorm(z_m, p) + math.sqrt(L_size) * q_m
        if val < best_val or math.isnan(val):
            best_val, best_m = val, m
        if q_m == 0.0 or math.isnan(val):
            break
    return best_val, best_m


@st.composite
def degenerate_kernels(draw):
    """Hermite, Charlier or Laguerre terms, off-diagonal keys in any order, some zero weights.

    Weights span 12 decades, so some residuals are far below the head and some far above.
    """
    d = draw(st.integers(2, 3))
    # 140 Poisson nodes per axis: at d = 3 keep one Charlier axis at most
    kinds = draw(st.lists(st.sampled_from(["hermite", "poisson_charlier", "exponential_poly"]),
                          min_size=d, max_size=d)
                 .filter(lambda ks: d == 2 or ks.count("poisson_charlier") <= 1))
    keys = draw(st.lists(st.tuples(*[st.integers(1, 3)] * d), min_size=1, max_size=8,
                         unique=True))
    weight = st.just(0.0) | st.builds(lambda w, e: w * 10.0 ** e,
                                      st.floats(-3.0, 3.0, allow_subnormal=False),
                                      st.integers(-6, 6))
    lam = {k: draw(weight) for k in keys}
    return DegenerateKernel(d, lam, list(map(FactorFamily, kinds)))


@st.composite
def tabulated_kernels(draw):
    """Random grids and weights; low-rank value grids reach the numerical-rank cutoff."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    nx, ny = draw(st.integers(2, 12)), draw(st.integers(2, 12))
    rank = draw(st.integers(1, min(nx, ny)))
    values = rng.normal(size=(nx, rank)) @ rng.normal(size=(rank, ny))
    return TabulatedKernel(np.sort(rng.uniform(size=nx)), rng.dirichlet(np.ones(nx)),
                           np.sort(rng.uniform(size=ny)), rng.dirichlet(np.ones(ny)),
                           values)


PER_RANK = settings(max_examples=60, deadline=None, derandomize=True)
ORDERS = st.sampled_from([2.0, 3.0, 4.5])


def test_theorem_w_equals_per_rank_reference_degenerate():
    # the floors skip rank walks, so count the skips: a run that skipped none would
    # pass without testing them
    walks = {"reached": 0, "skipped": 0}

    @PER_RANK
    @given(degenerate_kernels(), ORDERS, st.integers(1, 10 ** 6), st.integers(1, 5))
    def check(kernel, p, L_size, M_max):
        with mock.patch.object(kernel, "residual_norms", wraps=kernel.residual_norms) as spy:
            rep = theorem_W_bound(kernel, p, L_size=L_size, M_max=M_max)
        visited = []
        assert (rep.bound_value, rep.m_star) == per_rank_theorem_w(kernel, p, L_size, M_max,
                                                                   visited)
        walked = {call.args[0] for call in spy.call_args_list}
        # ranks whose residual holds a nonzero weight: only a floor can skip their walk
        weighted = [m for m in visited if any(w and max(k) > m for k, w in kernel.lam.items())]
        walks["reached"] += len(weighted)
        walks["skipped"] += len(set(weighted) - walked)

    check()
    assert walks["skipped"] > 0


@PER_RANK
@given(tabulated_kernels(), ORDERS, st.integers(1, 10_000), st.integers(1, 14))
def test_theorem_w_equals_per_rank_reference_tabulated(kernel, p, L_size, M_max):
    rep = theorem_W_bound(kernel, p, L_size=L_size, M_max=M_max)
    assert (rep.bound_value, rep.m_star) == per_rank_theorem_w(kernel, p, L_size, M_max)


def test_theorem_w_rank_nondecreasing_in_L():
    tk = brownian_tabulated()
    m_prev = 0
    for L_size in (1, 100, 10_000):
        rep = theorem_W_bound(tk, 2.0, L_size=L_size, M_max=30)
        assert rep.m_star >= m_prev
        m_prev = rep.m_star
        # brute-force oracle over the same rank range
        best = math.inf
        for m in range(1, 31):
            z_m, q_m = tabulated_rank_split(tk, m, 2.0)
            best = min(best, dp_quasinorm(z_m, 2.0) + math.sqrt(L_size) * q_m)
        assert rep.bound_value == pytest.approx(best, rel=1e-9)


def test_theorem_w_brownian_matches_trace_tail_oracle():
    # independent oracle: dense eigendecomposition, trace tails as the error term
    tk = centered_brownian_tabulated(n=256)
    rep = theorem_W_bound(tk, 2.0, L_size=100, M_max=256)
    rx = np.sqrt(tk.x_weights)
    a = rx[:, None] * tk.values * rx[None, :]
    eig = np.linalg.svd(a, compute_uv=False)
    partial = np.cumsum(eig)
    best = math.inf
    for m in range(1, 257):
        head = partial[m - 1]
        tail = partial[-1] - partial[m - 1]
        best = min(best, head + 10.0 * tail)
    assert rep.bound_value == pytest.approx(best, rel=0.02)


def test_theorem_w_argument_errors():
    k = unit_hermite_kernel({(1, 1): 1.0})
    with pytest.raises(ValueError):
        theorem_W_bound(k, 4.0, L_size=10, M_max=0)
    with pytest.raises(ValueError):
        theorem_W_bound(k, 4.0, L_size=0, M_max=2)


def test_theorem_w_nan_residual_is_reported_not_skipped():
    # ranks 1 and 3 are finite, and rank 3 beats rank 1; rank 2 is NaN
    class NanAtRankTwo:
        d = 2
        head = unit_hermite_kernel({(1, 1): 1.0})

        def residual_norms(self, m, p_grid):
            return [{1: 1.0, 2: math.nan}.get(m, 0.0) for _ in p_grid]

        def digest_payload(self):
            return "nan-at-rank-two"

    rep = theorem_W_bound(NanAtRankTwo(), 4.0, L_size=50, M_max=6)
    assert math.isnan(rep.bound_value)
    assert rep.m_star == 2


def test_theorem_w_nan_at_one_p_stops_that_p_only():
    # rank 2 is NaN at p = 4 only; at p = 3 the residual falls to 0 at rank 3, the best split
    class NanAtRankTwoForFour:
        d = 2
        head = unit_hermite_kernel({(1, 1): 1.0})

        def __init__(self):
            self.calls = []

        def residual_norms(self, m, p_grid):
            self.calls.append((m, list(p_grid)))
            return [math.nan if (m, p) == (2, 4.0) else {1: 1.0, 2: 0.5}.get(m, 0.0)
                    for p in p_grid]

        def digest_payload(self):
            return "nan-at-rank-two-for-four"

    family = NanAtRankTwoForFour()
    at_four, at_three = theorem_W_bounds(family, [4.0, 3.0], L_size=50, M_max=6)
    assert math.isnan(at_four.bound_value)
    assert at_four.m_star == 2
    assert at_three.m_star == 3
    assert at_three.bound_value == rosenthal_K(3.0) ** 2 * dp_quasinorm(family.head, 3.0)
    # one call per rank for every p still searching; the ranks end once both have stopped
    assert family.calls == [(1, [4.0, 3.0]), (2, [4.0, 3.0]), (3, [3.0])]
    assert theorem_W_bound(NanAtRankTwoForFour(), 3.0, L_size=50, M_max=6) == at_three


def test_theorem_w_overflowing_residual_is_nan_at_its_rank():
    # rank 1's residual 1e300 * C_3 (x) C_3 overflows on the Poisson grid, so its walk is
    # NaN.  Rank 3 leaves no residual, and its finite value would win if a floor skipped
    # rank 1: the walk is certified finite nowhere below it
    kernel = DegenerateKernel(2, {(3, 3): 1e300, (1, 1): 1.0},
                              [FactorFamily("poisson_charlier")] * 2)
    with pytest.warns(RuntimeWarning, match="overflow"):
        reports = theorem_W_bounds(kernel, [2.0, 4.0, 8.0], L_size=100, M_max=3)
    assert [math.isnan(rep.bound_value) for rep in reports] == [True] * 3
    assert [rep.m_star for rep in reports] == [1] * 3
    assert kernel.residual_l2_floors(3)[:2] == [None, None]


def _report_key(rep):
    """A report's fields, with the value as its repr, so NaN equals NaN and -0.0 is not 0.0."""
    return rep.p, repr(rep.bound_value), rep.route, rep.m_star, rep.inputs_digest


GRIDS = st.lists(st.sampled_from([2.0, 3.0, 4.5, 8.0]), min_size=1, max_size=4)


@PER_RANK
@given(degenerate_kernels(), GRIDS, st.integers(1, 10_000), st.integers(1, 5))
def test_theorem_w_grid_equals_per_p_calls_degenerate(kernel, p_grid, L_size, M_max):
    grid = theorem_W_bounds(kernel, p_grid, L_size, M_max)
    assert list(map(_report_key, grid)) == [
        _report_key(theorem_W_bound(kernel, p, L_size, M_max)) for p in p_grid]
    assert [(rep.bound_value, rep.m_star) for rep in grid] == [
        per_rank_theorem_w(kernel, p, L_size, M_max) for p in p_grid]


@PER_RANK
@given(tabulated_kernels(),
       GRIDS.filter(lambda grid: 2.0 in grid and set(grid) != {2.0}),   # closed form and walks
       st.integers(1, 10_000), st.integers(1, 14))
def test_theorem_w_grid_equals_per_p_calls_tabulated(kernel, p_grid, L_size, M_max):
    grid = theorem_W_bounds(kernel, p_grid, L_size, M_max)
    assert list(map(_report_key, grid)) == [
        _report_key(theorem_W_bound(kernel, p, L_size, M_max)) for p in p_grid]
    assert [(rep.bound_value, rep.m_star) for rep in grid] == [
        per_rank_theorem_w(kernel, p, L_size, M_max) for p in p_grid]


def test_residual_floors_are_below_the_walks():
    floored = []

    @PER_RANK
    @given(degenerate_kernels(), GRIDS, st.integers(1, 5))
    def check(kernel, p_grid, M_max):
        terms = [list(_dp_terms(kernel, p)) for p in p_grid]
        floors, free = _residual_floors(kernel, terms, M_max)
        floored.extend(floors)
        for m in range(1, (free or M_max) + 1):
            norms = kernel.residual_norms(m, p_grid)
            assert all(floors[i, m] <= q for i, q in enumerate(norms) if (i, m) in floors)
            if m == free:
                assert norms == [0.0] * len(p_grid)

    check()
    assert floored


# ---------------------------------------------------------------------------
# route monotonicity and report plumbing
# ---------------------------------------------------------------------------


def test_bounds_nondecreasing_in_p_above_e():
    k = unit_hermite_kernel({(1, 1): 1.0})
    ps = np.linspace(E, 16.0, 12)
    klesov = [rosenthal_K(p) ** 2 * dp_quasinorm(k, p) for p in ps]
    triv = [trivial_bound(k.moment(p), p, 25) for p in ps]
    assert all(b >= a - 1e-9 for a, b in zip(klesov, klesov[1:]))
    assert all(b >= a - 1e-9 for a, b in zip(triv, triv[1:]))


def test_bound_report_rows():
    rep = BoundReport(4.0, 2.5, "theorem_W", m_star=3, inputs_digest="abc")
    row = rep.to_json_row()
    assert row["M_star"] == 3 and row["route"] == "theorem_W"
    with pytest.raises(ValueError):
        BoundReport(2.0, -1.0, "trivial")
