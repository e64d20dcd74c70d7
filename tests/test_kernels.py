"""Factor systems, degenerate kernels, spectral decomposition, rank truncation."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import dblquad

from multisum import (AxisDistribution, DegenerateKernel, FactorFamily, TabulatedKernel,
                      dp_quasinorm, kernel_from_json, kernel_to_json, quadrature_rule,
                      rosenthal_K, tabulated_family, theorem_W_bound)
from multisum import kernels
from multisum.kernels import _inverse_factorials


def gaussian_pair(lam):
    return DegenerateKernel(2, lam, [FactorFamily("hermite"), FactorFamily("hermite")])


# ---------------------------------------------------------------------------
# factor families
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("family", [FactorFamily("hermite"), FactorFamily("poisson_charlier"),
                                    FactorFamily("exponential_poly")])
def test_orthonormality_audit(family):
    x, w = quadrature_rule(family.canonical_base)
    block = family.evaluate_block(6, x)
    gram = (block * w) @ block.T
    assert np.abs(gram - np.eye(6)).max() < 1e-8
    assert np.abs(block @ w).max() < 1e-10      # centering


def test_rademacher_family_single_member():
    fam = FactorFamily("rademacher_sign")
    assert np.array_equal(fam.evaluate(1, np.array([-1.0, 1.0])), [-1.0, 1.0])
    with pytest.raises(ValueError):
        fam.evaluate(2, np.array([1.0]))
    assert fam.moment(1, 7.0) == 1.0


def test_hermite_second_member_value():
    fam = FactorFamily("hermite")
    # (x^2 - 1)/sqrt(2) vanishes at 1
    assert fam.evaluate(2, np.array([1.0]))[0] == pytest.approx(0.0, abs=1e-14)
    assert fam.evaluate(2, np.array([2.0]))[0] == pytest.approx(3 / math.sqrt(2))


def test_factor_index_zero_rejected():
    with pytest.raises(ValueError):
        FactorFamily("hermite").evaluate(0, np.array([1.0]))


def ulps(got: float, exact) -> float:
    """``|got - exact|`` in units of the last place of the double nearest ``exact``."""
    return float(abs(mpmath.mpf(got) - exact) / math.ulp(float(exact)))


def test_poisson_weights_are_within_an_ulp():
    with mpmath.workprec(200):
        x, w = quadrature_rule("compensated_poisson")
        assert np.array_equal(x, np.arange(140) - 1.0)
        worst = max(ulps(w[k], mpmath.exp(-1) / mpmath.factorial(k)) for k in range(140))
    assert worst <= 1.0


@pytest.mark.parametrize("root", [True, False])
def test_factorial_norms_are_within_an_ulp(root):
    # 1/sqrt(k!) for Hermite and Charlier, 1/k! for Laguerre; past 2**1000 the root's
    # factorial is scaled by a power of 4 (k = 300 is 2**2041)
    ks = list(range(41)) + ([150, 170, 200, 300] if root else [150, 170])
    table = _inverse_factorials(max(ks), root)
    with mpmath.workprec(200):
        worst = max(ulps(table[k], 1 / (mpmath.sqrt(mpmath.factorial(k)) if root
                                        else mpmath.factorial(k))) for k in ks)
    assert worst <= 1.0
    assert not table.flags.writeable


@pytest.mark.parametrize("n", [2, 3, 17, 64, 100])
def test_gauss_rules_match_numpy_polynomial_bit_for_bit(n):
    # built on numpy.linalg alone, by numpy.polynomial's own steps, so no node or weight moves
    from numpy.polynomial.hermite_e import hermegauss
    from numpy.polynomial.laguerre import laggauss
    for ours, theirs in [(kernels._hermite_gauss, hermegauss),
                         (kernels._laguerre_gauss, laggauss)]:
        got, want = ours(n), theirs(n)
        assert all(np.array_equal(a, b) and a.dtype == b.dtype for a, b in zip(got, want))
    x, w = hermegauss(64)
    assert all(map(np.array_equal, quadrature_rule("standard_normal"),
                   (x, w / math.sqrt(2.0 * math.pi))))
    t, w = laggauss(64)
    assert all(map(np.array_equal, quadrature_rule("centered_exponential"), (t - 1.0, w)))


def test_laguerre_rows_match_mpmath():
    # 64 Gauss-Laguerre nodes and 2000 Exp(1) points, compensated; the error is scaled by
    # max(|ref|, 1), since rows near a root are not relatively exact
    t = np.concatenate([np.polynomial.laguerre.laggauss(64)[0],
                        np.random.default_rng(12).exponential(size=2000)])
    rows = FactorFamily("exponential_poly").evaluate_block(12, t - 1.0)
    worst = 0.0
    with mpmath.workprec(120):
        for k in range(1, 13):
            ref = [(-1) ** k * mpmath.laguerre(k, 0, mpmath.mpf(v)) for v in t]
            worst = max(worst, max(float(abs(row - r) / max(abs(r), 1))
                                   for row, r in zip(rows[k - 1], ref)))
    assert worst <= 1e-14


# ---------------------------------------------------------------------------
# kernel evaluation
# ---------------------------------------------------------------------------


def test_eval_rank_one_product():
    k = gaussian_pair({(1, 1): 1.0})
    assert k.evaluate([2.0, 3.0]) == pytest.approx(6.0, rel=1e-14)


def test_eval_zero_weights():
    k = gaussian_pair({(1, 1): 0.0, (2, 2): 0.0})
    assert k.evaluate([0.3, -1.2]) == 0.0


def test_eval_hermite_diagonal_at_ones():
    k = gaussian_pair({(1, 1): 1.0, (2, 2): 0.5})
    assert k.evaluate([1.0, 1.0]) == pytest.approx(1.0, rel=1e-14)


def test_eval_dimension_mismatch():
    k = gaussian_pair({(1, 1): 1.0})
    with pytest.raises(ValueError):
        k.evaluate([1.0, 2.0, 3.0])


def test_variance_identity_under_orthonormality():
    k = gaussian_pair({(1, 1): 0.8, (2, 1): 0.36, (3, 2): 0.48})
    x, w = quadrature_rule("standard_normal")
    grid = np.array([[k.evaluate([a, b]) for b in x] for a in x])
    var = float((w[:, None] * w[None, :] * grid ** 2).sum())
    mean = float((w[:, None] * w[None, :] * grid).sum())
    assert abs(mean) < 1e-10
    assert var - mean ** 2 == pytest.approx(k.sigma_sq, abs=1e-8)


# ---------------------------------------------------------------------------
# moment curves
# ---------------------------------------------------------------------------


def test_moment_curve_product_normal():
    k = gaussian_pair({(1, 1): 1.0})
    assert k.moment(2.0) == pytest.approx(1.0, rel=1e-10)
    # E xi^4 = 3 on each axis: |xy|_4 = 3 ** 0.5
    assert k.moment(4.0) == pytest.approx(math.sqrt(3.0), rel=1e-10)


def test_moment_curve_nondecreasing():
    k = gaussian_pair({(1, 1): 0.5, (2, 2): 0.5})
    values = [k.moment(p) for p in np.geomspace(1.5, 12, 9)]
    assert np.all(np.diff(values) >= -1e-12)


def test_moment_curve_quadrature_oracle_dblquad():
    # independent 2-d quadrature of |xy|^3 against the bivariate normal;
    # odd powers are not polynomial, so the 64-node rule is approximate there
    k = gaussian_pair({(1, 1): 1.0})
    val, _ = dblquad(
        lambda y, x: abs(x * y) ** 3 * np.exp(-(x * x + y * y) / 2) / (2 * np.pi),
        -8, 8, -8, 8)
    assert k.moment(3.0) == pytest.approx(val ** (1 / 3), rel=2e-4)


_ANALYTIC = {"hermite": 8, "rademacher_sign": 1, "poisson_charlier": 8,
             "exponential_poly": 8}      # kind -> largest factor index drawn


@st.composite
def rank_one_kernels(draw):
    kind = draw(st.sampled_from(sorted(_ANALYTIC)))
    d = draw(st.integers(1, 3))
    kvec = tuple(draw(st.integers(1, _ANALYTIC[kind])) for _ in range(d))
    w = draw(st.floats(0.1, 10.0)) * draw(st.sampled_from([-1.0, 1.0]))
    return DegenerateKernel(d, {kvec: w}, [FactorFamily(kind)] * d)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(rank_one_kernels(), st.floats(2.0, 16.0))
def test_rank_one_tensor_moment_is_product_of_factor_moments(kernel, p):
    # the tensor quadrature of |w prod g| factorizes exactly over the axes
    (kvec, w), = kernel.lam.items()
    product = abs(w) * math.prod(kernel.factors[axis].moment(k, p)
                                 for axis, k in enumerate(kvec))
    assert math.isfinite(product)
    assert kernel.moment(p) == pytest.approx(product, rel=1e-12)


def test_factor_moment_outside_the_moment_rule_is_refused():
    rademacher = AxisDistribution("rademacher")
    # the k = 1 member is the identity, so any law has a moment rule for it
    assert FactorFamily("hermite").moment(1, 4.0, rademacher) == 1.0
    with pytest.raises(ValueError, match="moment rule"):
        FactorFamily("hermite").moment(2, 4.0, rademacher)
    table = tabulated_family([-1.0, 1.0], [[-1.0, 1.0]], [0.5, 0.5])
    assert table.moment(1, 4.0) == 1.0
    with pytest.raises(ValueError, match="moment rule"):
        table.moment(1, 4.0, rademacher)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(rank_one_kernels(), st.floats(2.0, 16.0))
def test_one_moment_rule_under_the_base_laws(kernel, p):
    # under its base law a factor moment is the base quadrature, bit for bit, so
    # the sandwich's D_p is |w| prod |g|_p.  K(p)**d * D_p is Klesov's
    # |w| * (K(p)**d * prod |g|_p) with the last two products swapped: each side
    # is within 1.5 ulp of the exact product, so they differ by at most 2 ulp
    # (0, 1 and 2 ulp in 75%, 25% and 0.3% of random rank-one kernels)
    (kvec, w), = kernel.lam.items()
    laws = [AxisDistribution(fam.canonical_base) for fam in kernel.factors]
    moments = [fam.moment(k, p) for fam, k in zip(kernel.factors, kvec)]
    assert [fam.moment(k, p, law) for fam, k, law in zip(kernel.factors, kvec, laws)] == moments
    lower = dp_quasinorm(kernel, p, laws)
    assert lower == abs(w) * math.prod(moments)
    upper = rosenthal_K(p) ** kernel.d * lower
    klesov = abs(w) * (rosenthal_K(p) ** kernel.d * math.prod(moments))
    assert abs(upper - klesov) <= 2 * math.ulp(klesov)


@st.composite
def analytic_kernels(draw):
    """One to three terms over a single analytic factor kind."""
    kind = draw(st.sampled_from(sorted(_ANALYTIC)))
    # 140 Poisson nodes per axis: at d = 3 each moment is a 2.7 M-node quadrature
    d = draw(st.integers(1, 2 if kind == "poisson_charlier" else 3))
    kvec = st.tuples(*[st.integers(1, _ANALYTIC[kind])] * d)
    weight = st.floats(0.1, 5.0) | st.floats(-5.0, -0.1)
    lam = draw(st.dictionaries(kvec, weight, min_size=1, max_size=3))
    return DegenerateKernel(d, lam, [FactorFamily(kind)] * d)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(analytic_kernels(), st.lists(st.floats(1.0, 16.0), min_size=2, max_size=5,
                                    unique=True))
def test_quadrature_moment_curve_is_lyapunov_monotone(kernel, ps):
    # the quadrature rules are probability measures, so |f|_p is nondecreasing in p
    values = np.array([kernel.moment(p) for p in sorted(ps)])
    assert np.all(values[1:] >= values[:-1] * (1.0 - 1e-12))


# ---------------------------------------------------------------------------
# spectral decomposition
# ---------------------------------------------------------------------------


def legendre01(n):
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1), 0.5 * w


def test_spectral_rank_one():
    def g(x):
        return x - 0.5
    def h(y):
        return y * y
    tk = TabulatedKernel.from_function(lambda x, y: g(x) * h(y), n=48)
    s, left, right = tk.spectral()
    x, w = legendre01(48)
    g2 = math.sqrt(float(np.sum(w * g(x) ** 2)))
    h2 = math.sqrt(float(np.sum(w * h(x) ** 2)))
    assert s[0] == pytest.approx(g2 * h2, rel=1e-10)
    assert np.all(s[1:] < s[0] * 1e-10)


def test_spectral_brownian_eigenvalues():
    tk = TabulatedKernel.from_function(lambda x, y: np.minimum(x, y), n=256)
    s, left, right = tk.spectral()
    exact = np.array([4 / (math.pi ** 2 * (2 * k - 1) ** 2) for k in range(1, 6)])
    assert np.allclose(s[:5], exact, rtol=0.01)
    # symmetric PSD kernel: left and right factors coincide up to sign
    for i in range(5):
        same = np.allclose(left[i], right[i], atol=1e-8)
        flip = np.allclose(left[i], -right[i], atol=1e-8)
        assert same or flip


def test_spectral_factors_orthonormal_under_weights():
    tk = TabulatedKernel.from_function(lambda x, y: np.minimum(x, y) + x * y, n=64)
    s, left, right = tk.spectral()
    top = left[:6]
    gram = (top * tk.x_weights) @ top.T
    assert np.abs(gram - np.eye(6)).max() < 1e-10


# ---------------------------------------------------------------------------
# rank truncation
# ---------------------------------------------------------------------------


def test_approx_full_rank_gives_zero_error():
    tk = TabulatedKernel.from_function(lambda x, y: np.minimum(x, y), n=16)
    assert tk.residual_norms(16, [2.0, 3.0]) == [0.0, 0.0]


def test_approx_frobenius_and_trace_tails():
    tk = TabulatedKernel.from_function(lambda x, y: np.minimum(x, y), n=128)
    s, left, right = tk.spectral()
    [q] = tk.residual_norms(3, [2.0])
    assert q == pytest.approx(math.sqrt(float(np.sum(s[3:] ** 2))), rel=1e-10)
    # the p = 2 closed form agrees with the weighted norm of the residual grid
    recon = (left[:3].T * s[:3]) @ right[:3]
    w2 = np.outer(tk.x_weights, tk.y_weights)
    assert q == pytest.approx(math.sqrt(float((w2 * (tk.values - recon) ** 2).sum())),
                              rel=1e-8)
    # the trace-style tail is the plain sum of the discarded singular values
    assert float(np.sum(s[3:])) > q


def test_approx_trace_tail_brownian_closed_form():
    tk = TabulatedKernel.from_function(lambda x, y: np.minimum(x, y), n=256)
    s, _, _ = tk.spectral()
    assert float(np.sum(s[1:])) == pytest.approx(0.5 - 4 / math.pi ** 2, rel=0.02)


def test_approx_residual_monotone():
    tk = TabulatedKernel.from_function(lambda x, y: np.minimum(x, y) ** 2 + x * y, n=64)
    prev2, prev3 = math.inf, math.inf
    for m in range(1, 9):
        q2, q3 = tk.residual_norms(m, [2.0, 3.0])
        assert q2 <= prev2 + 1e-12
        assert q3 <= prev3 + 1e-12
        prev2, prev3 = q2, q3


def test_eckart_young_optimality_against_perturbations():
    tk = TabulatedKernel.from_function(lambda x, y: np.minimum(x, y) + 0.3 * x * y, n=32)
    m = 2
    # the head's first m terms, evaluated on the grid, are the rank-m truncation
    head = tk.head
    fx, fy = head.factors
    grid = sum(head.lam[(k, k)] * np.outer(fx.evaluate(k, tk.x_nodes),
                                           fy.evaluate(k, tk.y_nodes))
               for k in range(1, m + 1))
    w2 = np.outer(tk.x_weights, tk.y_weights)
    base_resid = math.sqrt(float((w2 * (tk.values - grid) ** 2).sum()))
    assert [base_resid] == pytest.approx(tk.residual_norms(m, [2.0]), rel=1e-8)
    rng = np.random.default_rng(17)
    s, left, right = tk.spectral()
    for _ in range(100):
        # random rank-m competitor: perturbed truncation, same rank
        du = rng.normal(0, 0.05, size=(m, left.shape[1]))
        dv = rng.normal(0, 0.05, size=(m, right.shape[1]))
        cand = ((left[:m] + du).T * s[:m]) @ (right[:m] + dv)
        resid = math.sqrt(float((w2 * (tk.values - cand) ** 2).sum()))
        assert resid >= base_resid - 1e-12


def test_degenerate_kernel_truncation_route():
    k = gaussian_pair({(1, 1): 0.7, (2, 2): 0.2, (3, 3): 0.1})
    assert k.head is k
    # orthonormal residual: L2 error is the root of the discarded weight mass
    assert k.residual_norms(2, [2.0]) == pytest.approx([0.1], rel=1e-9)
    assert k.residual_norms(1, [2.0]) == pytest.approx([math.hypot(0.2, 0.1)], rel=1e-9)
    assert k.residual_norms(3, [2.0]) == [0.0]


def test_tabulated_head_is_the_weighted_svd():
    tk = TabulatedKernel.from_function(lambda x, y: np.minimum(x, y) + x * y, n=24)
    s, _, _ = tk.spectral()
    head = tk.head
    assert head is tk.head                       # built once
    assert list(head.lam) == [(k, k) for k in range(1, s.size + 1)]
    assert list(head.lam.values()) == s.tolist()
    for i, j in [(0, 0), (5, 9), (23, 11)]:
        pt = [float(tk.x_nodes[i]), float(tk.y_nodes[j])]
        assert head.evaluate(pt) == pytest.approx(tk.values[i, j], abs=1e-12)


def test_tabulated_digest_covers_values_and_weights():
    # dyadic values: every summation order gives the same value sum
    tk = TabulatedKernel.from_function(lambda x, y: np.floor(8 * np.minimum(x, y)) / 8,
                                       n=32)
    x, wx, y, wy = tk.x_nodes, tk.x_weights, tk.y_nodes, tk.y_weights
    variants = [tk,
                TabulatedKernel(x, wx, y, wy, tk.values.T[::-1]),
                TabulatedKernel(x, wx, y, np.full(32, 1.0 / 32), tk.values),
                TabulatedKernel(x, wx, 0.5 * y, wy, tk.values)]
    # same x nodes, value sum and shape: a payload of only those cannot tell them apart
    assert len({k.values.sum() for k in variants}) == 1
    digests = {theorem_W_bound(k, 2.0, L_size=10, M_max=4).inputs_digest
               for k in variants}
    assert len(digests) == len(variants)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_kernel_json_round_trip():
    k = gaussian_pair({(1, 2): 0.5, (2, 1): -0.25})
    clone = kernel_from_json(kernel_to_json(k))
    assert clone.lam == k.lam
    pt = [0.7, -1.1]
    assert clone.evaluate(pt) == pytest.approx(k.evaluate(pt), rel=1e-14)


@pytest.mark.parametrize("d, dims", [(True, 1), (2.0, 2)], ids=["bool", "float"])
def test_kernel_json_dimension_is_an_integer(d, dims):
    # true once loaded a 1-D kernel and entered provenance as true; 2.0 failed on a list product
    hermite = [FactorFamily("hermite")] * dims
    obj = kernel_to_json(DegenerateKernel(dims, {(1,) * dims: 1.0}, hermite))
    with pytest.raises(ValueError, match="'d'"):
        kernel_from_json(dict(obj, d=d))


def test_tabulated_kernel_factors_serialize():
    tk = TabulatedKernel.from_function(lambda x, y: np.minimum(x, y), n=24)
    obj = kernel_to_json(tk.head)
    clone = kernel_from_json(obj)
    pt = [float(tk.x_nodes[5]), float(tk.y_nodes[9])]
    assert clone.evaluate(pt) == pytest.approx(tk.head.evaluate(pt), rel=1e-12)
    # the written key is derived: no axis law samples a tabulated factor's node grid
    assert obj["orthonormal"] is False
    assert kernel_to_json(gaussian_pair({(1, 1): 1.0}))["orthonormal"] is True

