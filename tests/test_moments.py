"""Per-axis law tables: factor means, Gram matrices and four-way moments under each axis law."""

import math
from fractions import Fraction
from functools import lru_cache

import mpmath
import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from multisum import AxisDistribution, FactorFamily, tabulated_family
from multisum._moments import axis_law_table

KINDS = ("hermite", "rademacher_sign", "poisson_charlier", "exponential_poly")
LAWS = ("standard_normal", "rademacher", "centered_exponential", "compensated_poisson")
X = sp.Symbol("x")


@lru_cache(maxsize=None)
def exact_factor(kind: str, k: int):
    """Factor k as ``(square, coefficients)``: ``sqrt(square) * sum_m c_m x**m``, all rational.

    Built from closed forms, not from the library's recurrences: ``He_k / sqrt(k!)``;
    the identity; the Charlier sum ``(-1)**k sum_j (-1)**j C(k, j) (n)_j / sqrt(k!)`` at
    ``n = x + 1``; ``(-1)**k L_k(x + 1)``.
    """
    if kind == "hermite":
        poly, square = sp.hermite_prob(k, X), Fraction(1, math.factorial(k))
    elif kind == "rademacher_sign":
        poly, square = X, Fraction(1)
    elif kind == "poisson_charlier":
        poly = (-1) ** k * sum((-1) ** j * sp.binomial(k, j) * sp.ff(X + 1, j)
                               for j in range(k + 1))
        square = Fraction(1, math.factorial(k))
    else:
        poly, square = (-1) ** k * sp.laguerre(k, X + 1), Fraction(1)
    coeffs = sp.Poly(sp.expand(poly), X).all_coeffs()[::-1]
    return square, tuple(Fraction(int(c.p), int(c.q)) for c in coeffs)


@lru_cache(maxsize=None)
def raw_moment(law: str, j: int) -> int:
    """``E x**j`` under the axis law, an integer."""
    if law == "standard_normal":
        return 0 if j % 2 else int(sp.factorial2(j - 1))
    if law == "rademacher":
        return 0 if j % 2 else 1
    if law == "centered_exponential":
        return int(sp.subfactorial(j))     # E (T - 1)**j for T ~ Exp(1)
    # E (N - 1)**j for N ~ Poisson(1), whose raw moments are the Bell numbers
    return sum(int(sp.binomial(j, i)) * int(sp.bell(i)) * (-1) ** (j - i) for i in range(j + 1))


def exact_moment(kind: str, law: str, ks) -> float:
    """``E prod_k g_k`` over the factors ``ks``: an exact value, rounded to a float."""
    square, poly = Fraction(1), (Fraction(1),)
    for k in ks:
        s, c = exact_factor(kind, k)
        square *= s
        prod = [Fraction(0)] * (len(poly) + len(c) - 1)
        for i, a in enumerate(poly):
            for j, b in enumerate(c):
                prod[i + j] += a * b
        poly = tuple(prod)
    mean = sum(c * raw_moment(law, m) for m, c in enumerate(poly))
    return float(mean) * math.sqrt(square)


@st.composite
def tables(draw):
    kind, law = draw(st.sampled_from(KINDS)), draw(st.sampled_from(LAWS))
    top = 1 if kind == "rademacher_sign" else 4
    ks = draw(st.lists(st.integers(1, top), min_size=1, max_size=4))
    return kind, law, ks


@settings(max_examples=60, deadline=None)
@given(tables())
def test_law_table_matches_exact_moments(case):
    # every analytic kind under each law that has a rule, k <= 4, repeats in any order
    kind, law, ks = case
    mean, gram, four = axis_law_table(FactorFamily(kind), AxisDistribution(law), ks)
    n = len(ks)
    assert mean.shape == (n,) and gram.shape == (n, n) and four.shape == (n,) * 4
    for index in np.ndindex(*four.shape):
        want = exact_moment(kind, law, [ks[i] for i in index])
        assert four[index] == pytest.approx(want, rel=1e-12, abs=1e-12)
    for a in range(n):
        assert mean[a] == pytest.approx(exact_moment(kind, law, [ks[a]]), rel=1e-12, abs=1e-12)
        for b in range(n):
            want = exact_moment(kind, law, [ks[a], ks[b]])
            assert gram[a, b] == pytest.approx(want, rel=1e-12, abs=1e-12)
    if FactorFamily(kind).canonical_base == law:
        # a canonical pair is centred and orthonormal exactly, not within rounding
        assert np.array_equal(mean, np.zeros(n))
        assert np.array_equal(gram, np.equal.outer(ks, ks))


@pytest.mark.parametrize("kind, law", [("hermite", "standard_normal"),
                                       ("exponential_poly", "centered_exponential"),
                                       ("poisson_charlier", "standard_normal"),
                                       ("hermite", "centered_exponential")])
def test_gauss_rule_table_stops_where_four_factors_pass_its_degree(kind, law):
    # 64 Gauss nodes integrate degree 127 exactly: four factors of degree 31, not 32
    family, dist = FactorFamily(kind), AxisDistribution(law)
    assert axis_law_table(family, dist, range(1, 32)) is not None
    assert axis_law_table(family, dist, range(1, 33)) is None
    assert axis_law_table(family, dist, [32]) is None


def test_law_rules_have_no_degree_limit_but_no_rule_has_no_table():
    # the Rademacher and Poisson rules are the laws themselves
    rademacher, poisson = AxisDistribution("rademacher"), AxisDistribution("compensated_poisson")
    assert axis_law_table(FactorFamily("hermite"), rademacher, [40]) is not None
    assert axis_law_table(FactorFamily("poisson_charlier"), poisson, range(1, 41)) is not None
    with np.errstate(over="ignore", invalid="ignore"):    # the top nodes' rows overflow
        assert axis_law_table(FactorFamily("poisson_charlier"), poisson, [200]) is None
    # a log-Weibull law has a table of its identity factor only
    assert axis_law_table(FactorFamily("hermite"), AxisDistribution("log_weibull", beta=1.0),
                          [1, 2]) is None
    table = tabulated_family([-1.0, 1.0], [[-1.0, 1.0]], [0.5, 0.5])
    assert axis_law_table(table, rademacher, [1]) is None


def log_weibull_moment(beta: float, p: int) -> float:
    """``E xi**p`` (p even) of the log-Weibull law: ``p int y**(p-1) P(|xi| > y) dy`` at 30 digits.

    In u = ln(1 + y) the integrand is ``p (e**u - 1)**(p-1) e**u exp(-u**(1 + 1/beta))``.
    """
    with mpmath.workdps(30):
        b = mpmath.mpf(beta)
        f = lambda u: p * mpmath.expm1(u) ** (p - 1) * mpmath.exp(u - u ** (1 + 1 / b))
        return float(mpmath.quad(f, [0, 1, 4, 10, 30, mpmath.inf]))


@pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("kind", KINDS)
def test_log_weibull_identity_table_matches_mpmath(kind, beta):
    # the identity of every analytic family: mean 0, Gram E xi^2, four-way E xi^4 throughout
    law = AxisDistribution("log_weibull", beta=beta)
    mean, gram, four = axis_law_table(FactorFamily(kind), law, [1, 1, 1])
    second, fourth = log_weibull_moment(beta, 2), log_weibull_moment(beta, 4)
    assert mean.shape == (3,) and not mean.any()
    assert gram.shape == (3, 3) and four.shape == (3, 3, 3, 3)
    assert np.all(gram == gram.flat[0]) and np.all(four == four.flat[0])
    assert gram.flat[0] == pytest.approx(second, rel=1e-8)
    assert four.flat[0] == pytest.approx(fourth, rel=1e-8)
    assert axis_law_table(FactorFamily(kind), law, [1, 2]) is None
